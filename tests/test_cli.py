"""The command-line interface, driven through its main() entry point."""

import functools
import json

import pytest

from repro import serialization as ser
from repro.cli import main
from repro.coalitions import TrustNetwork
from repro.constraints import TableConstraint, empty_store, variable
from repro.semirings import WeightedSemiring
from repro.solver import SCSP, solve


@pytest.fixture
def fig1_file(tmp_path, fig1):
    problem = SCSP([fig1["c1"], fig1["c2"], fig1["c3"]], con=["X"], name="fig1")
    path = tmp_path / "fig1.json"
    path.write_text(ser.dumps(problem))
    return path


@pytest.fixture
def network_file(tmp_path):
    network = TrustNetwork(
        ["a", "b", "c"],
        {
            ("a", "a"): 0.6, ("b", "b"): 0.6, ("c", "c"): 0.6,
            ("a", "b"): 0.9, ("b", "a"): 0.9,
            ("a", "c"): 0.2, ("c", "a"): 0.2,
            ("b", "c"): 0.3, ("c", "b"): 0.3,
        },
    )
    path = tmp_path / "net.json"
    path.write_text(ser.dumps(network))
    return path


@pytest.fixture
def market_file(tmp_path):
    market = {
        "kind": "market",
        "services": [
            {
                "service_id": f"svc-{provider}",
                "operation": "compress",
                "qos": {
                    "kind": "qos-document",
                    "service_name": "compress",
                    "provider": provider,
                    "policies": [
                        {"attribute": "cost", "variables": {}, "constant": cost}
                    ],
                },
            }
            for provider, cost in (("P1", 5.0), ("P2", 3.0))
        ],
        "request": {
            "client": "cli-client",
            "operation": "compress",
            "attribute": "cost",
            "acceptance": {"lower": 10.0, "upper": 0.0},
        },
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market))
    return path


class TestSolve:
    def test_solves_fig1(self, fig1_file, capsys):
        exit_code = main(["solve", str(fig1_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["blevel"] == 7.0
        assert out["consistent"] is True
        assert out["optima"] == [[{"X": "a"}]]

    def test_method_flag(self, fig1_file, capsys):
        main(["solve", str(fig1_file), "--method", "elimination"])
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "elimination"

    def test_reference_kernels_agree(self, fig1_file, capsys, monkeypatch):
        import repro.cli as cli

        for backend in ("dict", "dense"):
            monkeypatch.setattr(
                cli, "solve", functools.partial(solve, backend=backend)
            )
            exit_code = main(["solve", str(fig1_file)])
            out = json.loads(capsys.readouterr().out)
            assert exit_code == 0
            assert out["blevel"] == 7.0
            assert out["optima"] == [[{"X": "a"}]]

    def test_rejects_unknown_backend(self, fig1_file):
        # The kernel choice is not a CLI option.
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(fig1_file), "--solver-backend", "dense"])
        assert exc.value.code == 2

    def test_inconsistent_problem_exit_1(self, tmp_path, capsys):
        weighted = WeightedSemiring()
        x = variable("x", [0])
        dead = TableConstraint(weighted, [x], {})
        path = tmp_path / "dead.json"
        path.write_text(ser.dumps(SCSP([dead], name="dead")))
        assert main(["solve", str(path)]) == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tmp_path / "missing.json")])
        assert exc.value.code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err


class TestCoalitions:
    def test_exact(self, network_file, capsys):
        exit_code = main(["coalitions", str(network_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["found"] and out["stable"]
        assert ["a", "b"] in out["partition"]
        # Exact enumeration counts the stable universe and reports it.
        assert out["stable_partitions"] >= 1

    def test_local_search(self, network_file, capsys):
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                "local-search",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["method"] == "local-search"
        assert out["stable"] is True
        assert "stable_partitions" not in out

    def test_engine(self, network_file, capsys):
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                "engine",
                "--seed",
                "3",
                "--workers",
                "2",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["method"] == "engine"
        assert out["stable"] is True
        assert ["a", "b"] in out["partition"]

    @pytest.mark.parametrize("method", ["local-search", "engine"])
    def test_unstable_result_exits_nonzero(
        self, method, network_file, capsys
    ):
        # A zero-iteration climb returns its (unstable) singleton start:
        # the result is *found* but carries blocking coalitions, which
        # is not a Def. 4 answer.  The CLI used to report success here.
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                method,
                "--restarts",
                "1",
                "--max-iterations",
                "0",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["found"] is True
        assert out["stable"] is False
        assert exit_code == 1


class TestNegotiate:
    def test_best_provider_wins(self, market_file, capsys):
        exit_code = main(["negotiate", str(market_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["success"] is True
        assert out["sla"]["providers"] == ["P2"]
        assert out["sla"]["agreed_level"] == 3.0
        assert len(out["evaluations"]) == 2

    def test_solver_flags_accepted(self, market_file, capsys):
        exit_code = main(
            [
                "negotiate",
                str(market_file),
                "--no-solve-cache",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["sla"]["providers"] == ["P2"]

    @pytest.mark.parametrize("backend", ["auto", "monolith", "factored"])
    def test_store_backend_flag(
        self, market_file, capsys, monkeypatch, backend
    ):
        """Each ``backend=`` value of ``empty_store`` (``auto`` means
        factored) signs the same SLA when the broker's acceptance check
        builds its store with it.  The store is no longer chosen on the
        command line, so the value is injected into the broker."""
        import repro.soa.broker as broker_module

        built = []

        def reference(semiring):
            store = empty_store(semiring, backend=backend)
            built.append(store.backend)
            return store

        monkeypatch.setattr(broker_module, "empty_store", reference)
        exit_code = main(["negotiate", str(market_file)])
        out = json.loads(capsys.readouterr().out)
        expected = "factored" if backend == "auto" else backend
        assert built and set(built) == {expected}
        assert exit_code == 0
        assert out["sla"]["providers"] == ["P2"]
        assert out["sla"]["agreed_level"] == 3.0

    def test_unknown_store_backend_rejected(self, market_file):
        # The store representation is not a CLI option.
        with pytest.raises(SystemExit) as exc:
            main(
                ["negotiate", str(market_file), "--store-backend", "monolith"]
            )
        assert exc.value.code == 2

    def test_failed_negotiation_exit_1(self, tmp_path, capsys):
        market = {
            "kind": "market",
            "services": [],
            "request": {"operation": "compress", "attribute": "cost"},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(market))
        assert main(["negotiate", str(path)]) == 1

    def test_non_market_payload_rejected(self, fig1_file):
        with pytest.raises(SystemExit) as exc:
            main(["negotiate", str(fig1_file)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "drop",
        (
            ("request",),
            ("request", "operation"),
            ("request", "attribute"),
            ("services", 0, "qos"),
        ),
        ids=lambda path: "-".join(str(part) for part in path),
    )
    def test_malformed_market_is_typed_error(
        self, market_file, tmp_path, capsys, drop
    ):
        market = json.loads(market_file.read_text())
        parent = market
        for part in drop[:-1]:
            parent = parent[part]
        del parent[drop[-1]]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(market))
        assert main(["negotiate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: market")
        assert repr(drop[-1]) in err


class TestRuntime:
    def test_serves_market_sessions(self, market_file, capsys):
        exit_code = main(
            ["runtime", str(market_file), "--requests", "4", "--seed", "1"]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["requests"] == 4
        assert out["outcomes"] == {"completed": 4}
        assert len(out["sessions"]) == 4
        assert all(s["sla_id"] is not None for s in out["sessions"])

    def test_outage_faults_trigger_retries_and_degradation(
        self, market_file, capsys
    ):
        exit_code = main(
            [
                "runtime",
                str(market_file),
                "--requests",
                "6",
                "--seed",
                "1",
                "--fault-outage",
                "1:2",
                "--base-backoff",
                "0.001",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["retries_total"] > 0
        assert out["outcomes"].get("degraded", 0) >= 1
        degraded = [
            s for s in out["sessions"] if s["status"] == "degraded"
        ]
        assert all(s["attempts"] > 1 for s in degraded)

    def test_fault_run_logs_retries_and_degradation_events(
        self, market_file, capsys, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "runtime",
                str(market_file),
                "--requests",
                "6",
                "--seed",
                "1",
                "--fault-outage",
                "1:2",
                "--base-backoff",
                "0.001",
                "--trace-out",
                str(trace),
            ]
        )
        capsys.readouterr()
        kinds = [
            json.loads(line).get("kind")
            for line in trace.read_text().splitlines()
        ]
        assert "runtime.retry" in kinds
        assert "fault.injected" in kinds
        assert "runtime.degraded" in kinds

    def test_bad_fault_flag_rejected(self, market_file):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "runtime",
                    str(market_file),
                    "--fault-outage",
                    "not-a-window",
                ]
            )
        assert exc.value.code == 2


class TestLoadgen:
    def test_synthetic_market_by_default(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--clients",
                "8",
                "--rate",
                "2000",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["offered"] == 8
        assert out["outcomes"] == {"completed": 8}
        assert out["throughput_rps"] > 0
        assert out["latency_s"]["p99"] >= out["latency_s"]["p50"]

    def test_explicit_market_and_closed_loop(self, market_file, capsys):
        exit_code = main(
            [
                "loadgen",
                "--market",
                str(market_file),
                "--clients",
                "3",
                "--requests",
                "6",
                "--mode",
                "closed",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["offered"] == 6
        assert out["outcomes"]["completed"] == 6

    def test_telemetry_snapshot_shows_queue_wait_histogram(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--clients",
                "5",
                "--rate",
                "2000",
                "--seed",
                "3",
                "--telemetry",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        names = {m["name"] for m in out["telemetry"]["metrics"]}
        assert "runtime_queue_wait_seconds" in names
        assert "runtime_session_seconds" in names
        assert "runtime_sessions_total" in names


class TestFleet:
    def test_synthetic_market_over_shards(self, capsys):
        exit_code = main(
            [
                "fleet",
                "--shards",
                "3",
                "--clients",
                "6",
                "--requests",
                "12",
                "--mode",
                "closed",
                "--seed",
                "5",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["shards"] == 3
        assert out["fleet"]["offered"] == 12
        assert out["fleet"]["outcomes"]["completed"] == 12
        assert sum(
            row["offered"] for row in out["per_shard"].values()
        ) == 12
        assert out["cache"]["solve"] is not None

    FLEET_ARGS = [
        "fleet",
        "--shards",
        "2",
        "--clients",
        "2",
        "--requests",
        "4",
        "--mode",
        "closed",
        "--seed",
        "5",
    ]

    def test_no_solve_cache_flag(self, market_file, capsys):
        exit_code = main(
            self.FLEET_ARGS
            + ["--market", str(market_file), "--no-solve-cache"]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["cache"]["solve"] is None
        assert out["fleet"]["outcomes"]["completed"] == 4

    def test_l2_cache_flag_is_gone(self, market_file):
        with pytest.raises(SystemExit) as exc:
            main(
                self.FLEET_ARGS
                + ["--market", str(market_file), "--no-l2-cache"]
            )
        assert exc.value.code == 2

    def test_telemetry_snapshot_shows_fleet_metrics(self, capsys):
        exit_code = main(
            [
                "fleet",
                "--shards",
                "2",
                "--clients",
                "4",
                "--requests",
                "8",
                "--mode",
                "closed",
                "--seed",
                "5",
                "--telemetry",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        names = {m["name"] for m in out["telemetry"]["metrics"]}
        assert "fleet_sessions_total" in names
        assert "fleet_shards" in names
        # the shared solve cache reports through the common cache family
        hits = next(
            m for m in out["telemetry"]["metrics"]
            if m["name"] == "cache_hits_total"
        )
        assert any(
            sample["labels"] == {"cache": "solve"} and sample["value"] > 0
            for sample in hits["samples"]
        )


@pytest.fixture
def slo_market_file(tmp_path):
    market = {
        "kind": "market",
        "services": [
            {
                "service_id": service_id,
                "operation": operation,
                "qos": {
                    "kind": "qos-document",
                    "service_name": operation,
                    "provider": provider,
                    "policies": [
                        {
                            "attribute": "reliability",
                            "variables": {},
                            "constant": level,
                        }
                    ],
                },
            }
            for service_id, operation, provider, level in (
                ("ocr-fast", "ocr", "P1", 0.99),
                ("translate-hq", "translate", "P2", 0.98),
            )
        ],
        "observations": {
            "ocr-fast": {"attempts": 200, "failures": 2}
        },
    }
    path = tmp_path / "slo-market.json"
    path.write_text(json.dumps(market))
    return path


class TestSlo:
    ARGS = [
        "--attribute",
        "reliability",
        "--pipeline",
        "ocr-fast,translate-hq",
    ]

    def test_achievable_json_exit_0(self, slo_market_file, capsys):
        code = main(
            ["slo", str(slo_market_file), "--target", "0.75"] + self.ARGS
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["achievable"] is True
        assert out["attribute"] == "reliability"
        levels = {lv["service_id"]: lv for lv in out["levels"]}
        assert levels["ocr-fast"]["informative"] is True
        assert levels["translate-hq"]["informative"] is False

    def test_unachievable_text_exit_1(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.999",
                "--format",
                "text",
            ]
            + self.ARGS
        )
        text = capsys.readouterr().out
        assert code == 1
        assert "UNACHIEVABLE" in text
        assert "remediation" in text

    def test_trust_published_skips_evidence(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.97",
                "--trust-published",
            ]
            + self.ARGS
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["bound"] == pytest.approx(0.99 * 0.98)

    def test_unknown_service_exit_2(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.9",
                "--attribute",
                "reliability",
                "--pipeline",
                "ghost",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_plan_file_beats_market_plan(
        self, slo_market_file, tmp_path, capsys
    ):
        from repro.soa import Choose, Invoke, Pipeline

        plan = Pipeline(
            [
                Choose([Invoke("ocr-fast"), Invoke("translate-hq")]),
            ]
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(ser.dumps(plan))
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.5",
                "--attribute",
                "reliability",
                "--plan",
                str(plan_path),
                "--choose",
                "redundant",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["choose"] == "redundant"

    def test_no_plan_anywhere_is_usage_error(self, slo_market_file):
        with pytest.raises(SystemExit) as exc:
            main(["slo", str(slo_market_file), "--target", "0.9"])
        assert exc.value.code == 2


class TestValidateSemiring:
    def test_builtin_ok(self, capsys):
        assert main(["validate-semiring", "fuzzy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    @pytest.mark.parametrize("flag", ("--trace-out", "--prometheus-out"))
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        target = tmp_path / "missing-dir" / "out.txt"
        code = main(["validate-semiring", "fuzzy", flag, str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is True
        assert captured.err.startswith("error: cannot write")

    def test_parameterized(self, capsys):
        assert (
            main(["validate-semiring", "set", "--universe", "r,w,x"]) == 0
        )
        assert (
            main(["validate-semiring", "bounded-weighted", "--cap", "5"])
            == 0
        )


class TestConsoleScript:
    def test_installed_entry_point_works(self, fig1_file):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", str(fig1_file)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["blevel"] == 7.0
