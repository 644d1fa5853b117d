"""The three solver backends, individually and against each other."""

import itertools
import math
import random

import pytest

from repro.constraints import TableConstraint, variable
from repro.semirings import (
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    SetSemiring,
    WeightedSemiring,
)
from repro.solver import (
    SCSP,
    ProblemError,
    solve,
    solve_branch_bound,
    solve_elimination,
    solve_exhaustive,
)


@pytest.fixture
def fig1_problem(fig1):
    return SCSP([fig1["c1"], fig1["c2"], fig1["c3"]], con=["X"])


class TestExhaustive:
    def test_fig1(self, fig1_problem):
        result = solve_exhaustive(fig1_problem)
        assert result.blevel == 7.0
        assert result.frontier == [7.0]
        assert result.optima == [[{"X": "a"}]]
        assert result.stats.leaves_evaluated == 4

    def test_partial_order_frontier(self, setbased):
        x = variable("x", [0, 1, 2])
        c = TableConstraint(
            setbased,
            [x],
            {
                (0,): frozenset({"read"}),
                (1,): frozenset({"write"}),
                (2,): frozenset(),
            },
        )
        result = solve_exhaustive(SCSP([c]))
        assert len(result.frontier) == 2
        assert result.blevel == frozenset({"read", "write"})  # lub


class TestBranchBound:
    def test_fig1(self, fig1_problem):
        result = solve_branch_bound(fig1_problem)
        assert result.blevel == 7.0
        assert result.optima == [[{"X": "a"}]]

    def test_rejects_partial_orders(self, setbased):
        x = variable("x", [0])
        c = TableConstraint(setbased, [x], {(0,): frozenset({"read"})})
        with pytest.raises(ProblemError, match="total order"):
            solve_branch_bound(SCSP([c]))

    def test_pruning_happens(self, weighted):
        # A chain of variables with one clearly best value each: B&B must
        # prune a substantial part of the leaf space.
        variables = [variable(f"v{i}", range(4)) for i in range(5)]
        constraints = [
            TableConstraint(
                weighted,
                [v],
                {(d,): 0.0 if d == 0 else 50.0 for d in range(4)},
            )
            for v in variables
        ]
        problem = SCSP(constraints)
        result = solve_branch_bound(problem)
        assert result.blevel == 0.0
        assert result.stats.leaves_evaluated < 4**5

    def test_lookahead_toggle_same_result(self, fig1_problem):
        with_la = solve_branch_bound(fig1_problem, lookahead=True)
        without_la = solve_branch_bound(fig1_problem, lookahead=False)
        assert with_la.blevel == without_la.blevel
        assert with_la.optima == without_la.optima

    def test_ordering_choices_same_result(self, fig1_problem):
        for ordering in ("given", "min-domain", "min-degree", "max-degree"):
            result = solve_branch_bound(fig1_problem, ordering=ordering)
            assert result.blevel == 7.0

    def test_inconsistent_problem(self, weighted):
        x = variable("x", [0, 1])
        c = TableConstraint(weighted, [x], {})  # all zero (∞)
        result = solve_branch_bound(SCSP([c]))
        assert result.blevel == weighted.zero
        assert result.optima == [[]]
        assert not result.is_consistent


class TestElimination:
    def test_fig1(self, fig1_problem):
        result = solve_elimination(fig1_problem)
        assert result.blevel == 7.0
        assert result.optima == [[{"X": "a"}]]
        assert result.stats.buckets_processed == 1  # only Y eliminated

    def test_partial_order_supported(self, setbased):
        x = variable("x", [0, 1])
        y = variable("y", [0, 1])
        cxy = TableConstraint(
            setbased,
            [x, y],
            {
                (0, 0): frozenset({"read"}),
                (0, 1): frozenset({"write"}),
                (1, 0): frozenset(),
                (1, 1): frozenset({"read", "write"}),
            },
        )
        result = solve_elimination(SCSP([cxy], con=["x"]))
        reference = solve_exhaustive(SCSP([cxy], con=["x"]))
        assert result.blevel == reference.blevel
        assert sorted(map(str, result.frontier)) == sorted(
            map(str, reference.frontier)
        )

    def test_intermediate_size_tracked(self, fig1_problem):
        result = solve_elimination(fig1_problem)
        assert result.stats.largest_intermediate >= 2


def _nested_pair(semiring, values):
    """A requirement over (y, x) and an offer over (x,): nested scopes,
    listed in the order that differs from the branching order."""
    x = variable("x", [0, 1, 2])
    y = variable("y", [0, 1])
    keys = list(itertools.product(y.domain, x.domain))
    requirement = TableConstraint(semiring, [y, x], dict(zip(keys, values)))
    offer = TableConstraint(
        semiring, [x], {(0,): values[0], (1,): values[2], (2,): values[1]}
    )
    return requirement, offer


def assert_same_as_branch_bound(problem, **options):
    """``auto`` answers densely, exactly as branch & bound does."""
    auto = solve(problem, **options)
    bnb = solve_branch_bound(problem, **options)
    assert auto.method == "elimination"
    assert repr(auto.blevel) == repr(bnb.blevel)
    assert auto.frontier == bnb.frontier
    assert [[list(d.items()) for d in g] for g in auto.optima] == [
        [list(d.items()) for d in g] for g in bnb.optima
    ]
    assert auto.best_assignment == bnb.best_assignment
    return auto


class TestAutoDispatch:
    def test_auto_picks_branch_bound_for_total_orders(self, fig1_problem):
        assert solve(fig1_problem).method == "branch-bound"

    @pytest.mark.parametrize(
        "semiring",
        [WeightedSemiring(), FuzzySemiring(), ProbabilisticSemiring()],
        ids=lambda s: s.name,
    )
    def test_nested_pair_routes_to_dense_elimination(self, semiring):
        values = [0.5, 0.25, 0.5, 0.75, 0.25, 0.5]
        requirement, offer = _nested_pair(semiring, values)
        for constraints in ([requirement, offer], [offer, requirement]):
            problem = SCSP(constraints)
            result = assert_same_as_branch_bound(problem)
            # every joint leaf evaluated, no search tree
            assert result.stats.leaves_evaluated == 6
            assert result.stats.nodes_expanded == 0
            assert_same_as_branch_bound(SCSP(constraints, con=["y"]))
            assert_same_as_branch_bound(problem, ordering="given")
            assert_same_as_branch_bound(problem, lookahead=False)

    def test_single_constraint_routes_to_dense_elimination(self, weighted):
        requirement, _ = _nested_pair(weighted, [3.0, 1.0, 1.0, 2.0, 1.0, 4.0])
        result = assert_same_as_branch_bound(SCSP([requirement]))
        assert result.blevel == 1.0
        assert result.optima == [
            [{"x": 1, "y": 0}, {"x": 2, "y": 0}, {"x": 1, "y": 1}]
        ]

    def test_all_zero_problem_has_no_optima(self, weighted):
        requirement, offer = _nested_pair(weighted, [math.inf] * 6)
        result = assert_same_as_branch_bound(SCSP([requirement, offer]))
        assert result.blevel == math.inf
        assert result.optima == [[]]

    def test_more_than_two_factors_stay_on_branch_bound(self, weighted):
        requirement, offer = _nested_pair(weighted, [1.0] * 6)
        problem = SCSP([requirement, offer, offer])
        assert solve(problem).method == "branch-bound"

    def test_non_nested_pair_stays_on_branch_bound(self, weighted):
        x = variable("x", [0, 1])
        y = variable("y", [0, 1])
        cx = TableConstraint(weighted, [x], {(0,): 1.0, (1,): 2.0})
        cy = TableConstraint(weighted, [y], {(0,): 1.0, (1,): 2.0})
        assert solve(SCSP([cx, cy])).method == "branch-bound"

    def test_lex_composite_stays_on_branch_bound(self, weighted, fuzzy):
        lex = LexicographicSemiring([fuzzy, weighted])
        x = variable("x", [0, 1])
        c = TableConstraint(lex, [x], {(0,): (0.5, 1.0), (1,): (0.5, 2.0)})
        assert solve(SCSP([c])).method == "branch-bound"

    def test_dict_backend_stays_on_branch_bound(self, weighted):
        requirement, offer = _nested_pair(weighted, [1.0] * 6)
        problem = SCSP([requirement, offer])
        assert solve(problem, backend="dict").method == "branch-bound"

    def test_auto_picks_elimination_for_partial_orders(self, setbased):
        x = variable("x", [0])
        c = TableConstraint(setbased, [x], {(0,): frozenset({"read"})})
        assert solve(SCSP([c])).method == "elimination"

    def test_unknown_method_rejected(self, fig1_problem):
        with pytest.raises(ProblemError, match="unknown solve method"):
            solve(fig1_problem, method="quantum")


class TestCrossBackendAgreement:
    """Randomized differential testing: all backends must agree."""

    @pytest.mark.parametrize("seed", range(8))
    def test_total_order_agreement(self, seed):
        rng = random.Random(seed)
        semiring = rng.choice(
            [FuzzySemiring(), WeightedSemiring(), ProbabilisticSemiring()]
        )
        n = rng.randint(2, 4)
        variables = [
            variable(f"v{i}", range(rng.randint(2, 3))) for i in range(n)
        ]
        constraints = []
        for _ in range(rng.randint(2, 5)):
            scope = rng.sample(variables, rng.randint(1, 2))
            table = {}
            for key in itertools.product(*[v.domain for v in scope]):
                if isinstance(semiring, WeightedSemiring):
                    table[key] = float(rng.randint(0, 9))
                else:
                    table[key] = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
            constraints.append(TableConstraint(semiring, scope, table))
        used = sorted({name for c in constraints for name in c.support})
        con = rng.sample(used, rng.randint(1, len(used)))
        problem = SCSP(constraints, con=con)

        reference = solve_exhaustive(problem)
        bnb = solve_branch_bound(problem)
        elim = solve_elimination(problem)

        assert semiring.equiv(reference.blevel, bnb.blevel)
        assert semiring.equiv(reference.blevel, elim.blevel)

        ref_optima = {
            tuple(sorted(d.items())) for d in reference.optima[0]
        }
        elim_optima = {tuple(sorted(d.items())) for d in elim.optima[0]}
        assert ref_optima == elim_optima
        bnb_optima = {tuple(sorted(d.items())) for d in bnb.optima[0]}
        if reference.is_consistent:
            assert bnb_optima and bnb_optima <= ref_optima

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_order_agreement(self, seed):
        rng = random.Random(100 + seed)
        semiring = SetSemiring({"p", "q", "r"})
        subsets = [
            frozenset(),
            frozenset({"p"}),
            frozenset({"q"}),
            frozenset({"p", "q"}),
            frozenset({"p", "q", "r"}),
        ]
        variables = [variable(f"v{i}", range(2)) for i in range(3)]
        constraints = []
        for _ in range(3):
            scope = rng.sample(variables, rng.randint(1, 2))
            table = {
                key: rng.choice(subsets)
                for key in itertools.product(*[v.domain for v in scope])
            }
            constraints.append(TableConstraint(semiring, scope, table))
        used = sorted({name for c in constraints for name in c.support})
        problem = SCSP(constraints, con=used)
        reference = solve_exhaustive(problem)
        elim = solve_elimination(problem)
        assert reference.blevel == elim.blevel
        assert {frozenset(v) for v in reference.frontier} == {
            frozenset(v) for v in elim.frontier
        }
