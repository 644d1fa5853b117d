"""The QoS/dependability broker-orchestrator (paper Sec. 4, Fig. 6).

The broker sits between clients and providers, hosts the soft-constraint
solver, and carries out the five computation steps of the paper:

1. the client requests a binding, stating the required QoS;
2. the broker searches the UDDI registry for providers;
3. the broker performs QoS negotiation (nmsccp agents on its store);
4. offered vs required QoS are compared to determine an agreed QoS;
5. on success, an SLA binding is created and both parties informed.

Selection solves one SCSP per candidate (client requirement ⊗ provider
offer) and keeps the semiring-best; composition introduces one selection
variable per pipeline slot and solves for the best provider tuple under
the per-attribute aggregation rules.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..constraints.constraint import FunctionConstraint, SoftConstraint
from ..telemetry import get_events, get_registry, get_tracer
from ..constraints.operations import combine
from ..constraints.store import empty_store
from ..constraints.variables import Variable
from ..semirings.base import Semiring
from ..sccp.check import CheckSpec
from ..solver import SCSP, SolveCache, solve
from .composition import (
    AGGREGATION_RULES,
    AggregationRule,
    Choose,
    Invoke,
    Pipeline,
    Plan,
    Split,
)
from .messages import MessageBus
from .negotiation import NegotiationOutcome, Party, negotiate
from .qos import compile_document, resolve_attribute
from .registry import ServiceRegistry
from .service import ServiceDescription
from .sla import SLA, SLARepository


class BrokerError(Exception):
    """Raised on unanswerable requests (no providers, no attribute, …)."""


@dataclass
class ClientRequest:
    """Step 1: a binding request with its required QoS.

    ``requirements`` are soft constraints over shared resource variables;
    ``acceptance`` is the client's checked interval on the merged store
    (``None`` accepts any consistent agreement).
    """

    client: str
    operation: str
    attribute: str
    requirements: List[SoftConstraint] = field(default_factory=list)
    acceptance: Optional[CheckSpec] = None
    semiring: Optional[Semiring] = None

    def resolved_semiring(self) -> Semiring:
        if self.semiring is not None:
            return self.semiring
        if self.requirements:
            return self.requirements[0].semiring
        return resolve_attribute(self.attribute).semiring()


@dataclass
class CandidateEvaluation:
    """Step 4 for one provider: offered ⊗ required, solved."""

    description: ServiceDescription
    blevel: Any
    accepted: bool
    best_assignment: Optional[Dict[str, Any]]

    @property
    def provider(self) -> str:
        return self.description.provider


@dataclass
class NegotiationResult:
    """The broker's answer to a client request."""

    request: ClientRequest
    success: bool
    sla: Optional[SLA]
    evaluations: List[CandidateEvaluation]
    outcome: Optional[NegotiationOutcome] = None
    detail: str = ""
    #: Round metadata (:class:`~repro.soa.allocation.AllocationInfo`)
    #: attached when the session was served through an allocation policy;
    #: ``None`` on the legacy per-session path.  Never affects the SLA.
    allocation: Any = None

    @property
    def chosen(self) -> Optional[CandidateEvaluation]:
        if self.sla is None:
            return None
        for evaluation in self.evaluations:
            if evaluation.description.service_id in self.sla.service_ids:
                return evaluation
        return None


@dataclass
class ParetoPoint:
    """One nondominated offer: a candidate, its product-valued level and
    the resource assignment achieving it."""

    description: ServiceDescription
    level: Tuple[Any, ...]
    assignment: Dict[str, Any]

    @property
    def provider(self) -> str:
        return self.description.provider


@dataclass
class MulticriteriaResult:
    """The Pareto frontier of a joint multi-attribute negotiation."""

    client: str
    operation: str
    attributes: Tuple[str, ...]
    frontier: List[ParetoPoint]
    semiring: Any

    @property
    def satisfiable(self) -> bool:
        return bool(self.frontier)

    def providers(self) -> List[str]:
        return sorted({point.provider for point in self.frontier})

    def dominated_by_frontier(self, level: Tuple[Any, ...]) -> bool:
        """Whether ``level`` is strictly worse than some frontier point."""
        return any(
            self.semiring.gt(point.level, level) for point in self.frontier
        )


class Broker:
    """The negotiation orchestrator with an embedded SCSP solver.

    ``solve_cache`` (on by default) memoizes candidate-SCSP solves under
    a canonical problem fingerprint, so a market's repeated negotiations
    hit warm entries instead of re-running the solver;
    ``solver_backend`` selects the factor representation
    (``auto``/``dict``/``dense``, see :mod:`repro.solver.kernels`);
    ``store_backend`` selects the constraint-store representation for
    acceptance checks and nmsccp confirmation runs
    (``auto``/``monolith``/``factored``, see
    :mod:`repro.constraints.store`); ``batching`` (a
    :class:`~repro.runtime.batching.BatchConfig` or a prebuilt
    :class:`~repro.runtime.batching.BatchScheduler`) coalesces
    concurrent candidate solves sharing one constraint topology into
    stacked batched sweeps — the ``--solver-batching`` serving-path
    optimization; lowerable solves then route through batched bucket
    elimination, bit-identical per session to solving alone;
    ``allocation_policy`` (``"greedy"``/``"fair"`` or an
    :class:`~repro.soa.allocation.AllocationPolicy`) routes
    :meth:`serve_session` through coalesced allocation rounds —
    ``greedy`` reproduces this method's per-session agreements exactly,
    ``fair`` solves one joint SCSP per round over the lexicographic
    ⟨min client satisfaction, total welfare⟩ objective.  ``None`` (the
    default) keeps the legacy path with no policy objects touched.

    ``slo_penalty`` (default ``None`` = off, matchmaking bit-identical
    to before the SLO analytics existed) turns on error-budget-aware
    selection: a flag share in ``(0, 1]``.  When the client's acceptance
    interval states a probability lower bound, step 4 computes each
    accepted candidate's share of the client's error budget
    (:func:`repro.slo.share_of`) and prefers the semiring-best candidate
    whose share stays within the flag share; only when every candidate
    overspends does the unpenalized best win (availability over a
    rejection).
    """

    ENDPOINT = "broker"

    def __init__(
        self,
        registry: ServiceRegistry,
        bus: Optional[MessageBus] = None,
        name: str = "broker",
        solve_cache: bool = True,
        solver_backend: str = "auto",
        store_backend: Optional[str] = None,
        batching: Optional[Any] = None,
        allocation_policy: Optional[Any] = None,
        rounds: Optional[Any] = None,
        slo_penalty: Optional[float] = None,
    ) -> None:
        self.registry = registry
        self.bus = bus
        self.name = name
        self.slas = SLARepository()
        self.solve_cache: Optional[SolveCache] = (
            SolveCache() if solve_cache else None
        )
        self.solver_backend = solver_backend
        self.store_backend = store_backend
        self.batcher = None
        if batching is not None:
            # Deferred import: repro.runtime imports this module.
            from ..runtime.batching import BatchConfig, BatchScheduler

            if isinstance(batching, BatchScheduler):
                self.batcher = batching
            elif isinstance(batching, BatchConfig):
                self.batcher = BatchScheduler(batching)
            else:
                raise BrokerError(
                    "batching must be a BatchConfig or BatchScheduler, "
                    f"got {type(batching).__name__}"
                )
        self.allocation_policy = None
        self.rounds = None
        if allocation_policy is not None:
            # Deferred import: repro.soa.allocation imports this module.
            from .allocation import resolve_allocation_policy

            self.allocation_policy = resolve_allocation_policy(
                allocation_policy
            )
            from ..runtime.batching import BatchConfig, RoundScheduler

            if isinstance(rounds, RoundScheduler):
                self.rounds = rounds
            elif isinstance(rounds, BatchConfig):
                self.rounds = RoundScheduler(rounds)
            elif rounds is None:
                # Allocation rounds ride the same coalescing windows the
                # solver batcher uses, so one --batch-window flag tunes
                # both; without a batcher, a default window applies.
                config = (
                    self.batcher.config
                    if self.batcher is not None
                    else BatchConfig()
                )
                self.rounds = RoundScheduler(config)
            else:
                raise BrokerError(
                    "rounds must be a BatchConfig or RoundScheduler, "
                    f"got {type(rounds).__name__}"
                )
        elif rounds is not None:
            raise BrokerError(
                "rounds requires an allocation_policy to dispatch to"
            )
        if slo_penalty is not None and not 0.0 < slo_penalty <= 1.0:
            raise BrokerError("slo_penalty must be in (0, 1] or None")
        self.slo_penalty = slo_penalty
        #: (qos-doc id, attribute, semiring, pool identities) → compiled
        #: offer constraints + the variables compiling added to the pool.
        self._offer_memo: Dict[tuple, tuple] = {}
        #: Logical clock stamping each session's SLA.  One ``next`` per
        #: session is atomic across the executor threads that serve
        #: sessions concurrently, and the drawn value is kept locally.
        self._clock = itertools.count(1)
        if bus is not None:
            bus.register(self.ENDPOINT)

    def _solve(self, problem: SCSP, **options) -> Any:
        """One SCSP solve through the broker's cache and backend.

        With batching enabled, plain candidate solves (no method
        override) go through the :class:`BatchScheduler`, coalescing
        with concurrent same-topology sessions; explicit-method callers
        (composition paths) keep the direct route.
        """
        if self.batcher is not None and not options:
            return self.batcher.solve(
                problem,
                backend=self.solver_backend,
                cache=self.solve_cache,
            )
        return solve(
            problem,
            backend=self.solver_backend,
            cache=self.solve_cache,
            **options,
        )

    def _compile_offer(
        self,
        description: ServiceDescription,
        attribute: str,
        semiring: Semiring,
        pool: Dict[str, Variable],
    ) -> List[SoftConstraint]:
        """``compile_document``, memoized per document/attribute/pool.

        Repeated negotiations over the same registry re-present the same
        QoS documents and (via shared requirement objects) the same pool
        variables, so the compiled constraint *objects* are reused — and
        with them their materialized-table, dense-factor and fingerprint
        memos: the warm path never re-materializes anything.  Keying on
        object identities makes staleness impossible — republishing a
        service or sending different requirement variables produces a
        fresh key.  (A racing duplicate compile is benign: both threads
        build equal constraints and one memo entry wins.)
        """
        key = (
            id(description.qos),
            attribute,
            semiring,
            tuple(sorted((name, id(var)) for name, var in pool.items())),
        )
        hit = self._offer_memo.get(key)
        if hit is not None:
            constraints, added = hit
            pool.update(added)
            return list(constraints)
        before = set(pool)
        constraints = compile_document(
            description.qos, attribute, semiring, pool
        )
        added = {
            name: var for name, var in pool.items() if name not in before
        }
        self._offer_memo[key] = (tuple(constraints), added)
        return constraints

    # ------------------------------------------------------------------
    # Single-service selection (steps 1–5)
    # ------------------------------------------------------------------

    def negotiate(
        self,
        request: ClientRequest,
        verify_scheduler_independence: bool = False,
    ) -> NegotiationResult:
        """Select the semiring-best provider for one operation.

        Each of the paper's five computation steps (Fig. 6) runs under
        its own telemetry span, all children of one ``broker.request``
        root; the result outcome is counted per class.
        """
        tracer = get_tracer()
        with tracer.span(
            "broker.request",
            client=request.client,
            operation=request.operation,
            attribute=request.attribute,
        ):
            result = self._negotiate_steps(
                request, verify_scheduler_independence, tracer
            )
        self._count_request(result)
        return result

    # ------------------------------------------------------------------
    # Allocation rounds (multi-client serving seam)
    # ------------------------------------------------------------------

    def serve_session(
        self,
        request: ClientRequest,
        verify_scheduler_independence: bool = False,
    ) -> NegotiationResult:
        """Serve one client session through the allocation seam.

        Without an ``allocation_policy`` this *is* :meth:`negotiate` —
        the legacy per-session path, bit-identical agreements.  With a
        policy, the session joins the broker's :class:`RoundScheduler`:
        concurrent sessions for the same operation/attribute coalesce
        into one allocation round and the policy assigns providers
        jointly (see :mod:`repro.soa.allocation`).
        """
        if self.allocation_policy is None:
            return self.negotiate(request, verify_scheduler_independence)
        return self.rounds.negotiate(
            self, request, verify=verify_scheduler_independence
        )

    def negotiate_round(
        self,
        requests: Sequence[ClientRequest],
        verify_scheduler_independence: bool = False,
        round_id: int = 0,
    ) -> List[NegotiationResult]:
        """Allocate one round of coalesced sessions via the policy.

        Results come back in submission order.  Called by the
        :class:`~repro.runtime.batching.RoundScheduler` leader; also
        usable directly for synchronous round-based markets (tests, the
        fairness bench).  Falls back to greedy (legacy semantics) when
        no policy is configured.
        """
        policy = self.allocation_policy
        if policy is None:
            from .allocation import GreedyAllocation

            policy = GreedyAllocation()
        with get_tracer().span(
            "broker.allocation-round",
            policy=policy.name,
            sessions=len(requests),
            round_id=round_id,
        ):
            return policy.allocate(
                self,
                list(requests),
                verify=verify_scheduler_independence,
                round_id=round_id,
            )

    def _negotiate_steps(
        self,
        request: ClientRequest,
        verify_scheduler_independence: bool,
        tracer: Any,
    ) -> NegotiationResult:
        stamp = next(self._clock)

        # Step 1: the client requests a binding, stating the required QoS.
        with tracer.span("broker.step1-request"):
            semiring = request.resolved_semiring()
            self._post(
                request.client, "negotiate-request", request.operation
            )

        # Step 2: the broker searches the registry for providers.
        with tracer.span("broker.step2-registry-search") as span:
            candidates = self.registry.find(
                operation=request.operation,
                requires_attribute=request.attribute,
            )
            span.set_attribute("candidates", len(candidates))
            self._post(self.name, "registry-query", len(candidates))
        if not candidates:
            return NegotiationResult(
                request,
                success=False,
                sla=None,
                evaluations=[],
                detail=f"no provider offers {request.operation!r} with "
                f"{request.attribute!r}",
            )

        # Step 3: QoS negotiation — one SCSP per candidate on the
        # broker's store.
        with tracer.span("broker.step3-negotiation"):
            evaluations: List[CandidateEvaluation] = []
            for description in candidates:
                evaluations.append(
                    self._evaluate(description, request, semiring)
                )

        # Step 4: offered vs required QoS determine the agreed QoS.
        with tracer.span("broker.step4-compare") as span:
            accepted = [e for e in evaluations if e.accepted]
            span.set_attribute("accepted", len(accepted))
            if not accepted:
                self._post(self.name, "negotiate-reject", request.client)
                return NegotiationResult(
                    request,
                    success=False,
                    sla=None,
                    evaluations=evaluations,
                    detail="no candidate satisfies the client's "
                    "acceptance interval",
                )
            best = self._select_best(accepted, request, semiring)
            outcome = self._confirm(best, request, semiring) if (
                verify_scheduler_independence
            ) else None
        if outcome is not None and not outcome.success:
            return NegotiationResult(
                request,
                success=False,
                sla=None,
                evaluations=evaluations,
                outcome=outcome,
                detail="nmsccp confirmation run failed",
            )

        # Step 5: the SLA binding is created and both parties informed.
        with tracer.span("broker.step5-sla") as span:
            sla = self._sign(best, request, semiring, stamp)
            span.set_attribute("sla_id", sla.sla_id)
            self._post(self.name, "sla-created", sla.sla_id)
        get_events().emit(
            "broker.sla-created",
            sla_id=sla.sla_id,
            client=request.client,
            provider=best.description.provider,
            service_id=best.description.service_id,
            attribute=request.attribute,
        )
        return NegotiationResult(
            request,
            success=True,
            sla=sla,
            evaluations=evaluations,
            outcome=outcome,
            detail=f"bound to {best.description.service_id!r}",
        )

    def _select_best(
        self,
        accepted: List[CandidateEvaluation],
        request: ClientRequest,
        semiring: Semiring,
    ) -> CandidateEvaluation:
        """Step 4's winner among the accepted candidates.

        With ``slo_penalty`` off (the default) this is exactly the
        semiring-best scan it always was.  With it on, candidates whose
        error-budget share against the client's stated probability floor
        exceeds the flag share are penalized: the semiring-best
        *unflagged* candidate wins when one exists.
        """
        def semiring_best(
            pool: List[CandidateEvaluation],
        ) -> CandidateEvaluation:
            best = pool[0]
            for evaluation in pool[1:]:
                if semiring.gt(evaluation.blevel, best.blevel):
                    best = evaluation
            return best

        target = self._budget_target(request)
        if self.slo_penalty is None or target is None:
            return semiring_best(accepted)
        from ..slo import share_of

        unflagged = [
            e
            for e in accepted
            if isinstance(e.blevel, (int, float))
            and 0.0 <= e.blevel <= 1.0
            and share_of(e.blevel, target) <= self.slo_penalty
        ]
        pool = unflagged or accepted
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "broker_slo_penalized_total",
                "Accepted candidates set aside for overspending the "
                "client's error budget.",
                labelnames=("attribute",),
            ).labels(request.attribute).inc(len(accepted) - len(pool))
        return semiring_best(pool)

    def _budget_target(self, request: ClientRequest) -> Optional[float]:
        """The probability floor the penalty budgets against, when the
        request states one (a plain-level lower bound on a probability
        attribute with room for an error budget)."""
        if request.attribute not in ("availability", "reliability"):
            return None
        if request.acceptance is None:
            return None
        lower = request.acceptance.lower
        if isinstance(lower, SoftConstraint) or lower is None:
            return None
        if not isinstance(lower, (int, float)):
            return None
        if not 0.0 < float(lower) < 1.0:
            return None
        return float(lower)

    def _count_request(self, result: NegotiationResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        if result.success:
            outcome = "success"
        elif not result.evaluations:
            outcome = "no-provider"
        elif result.outcome is not None and not result.outcome.success:
            outcome = "confirmation-failed"
        else:
            outcome = "rejected"
        registry.counter(
            "broker_requests_total",
            "Client binding requests, by outcome.",
            labelnames=("outcome",),
        ).labels(outcome).inc()
        registry.counter(
            "broker_candidates_evaluated_total",
            "Per-candidate SCSP evaluations performed.",
        ).inc(len(result.evaluations))

    def _evaluate(
        self,
        description: ServiceDescription,
        request: ClientRequest,
        semiring: Semiring,
    ) -> CandidateEvaluation:
        """Step 4: offered ⊗ required as one SCSP."""
        pool: Dict[str, Variable] = {
            var.name: var
            for constraint in request.requirements
            for var in constraint.scope
        }
        offer = self._compile_offer(
            description, request.attribute, semiring, pool
        )
        if not offer:
            return CandidateEvaluation(description, semiring.zero, False, None)
        constraints = list(request.requirements) + offer
        problem = SCSP(constraints, name=description.service_id)
        started = time.perf_counter()
        with get_tracer().span(
            "broker.candidate-solve",
            service_id=description.service_id,
            provider=description.provider,
        ):
            result = self._solve(problem)
        get_registry().histogram(
            "broker_candidate_solve_seconds",
            "Per-candidate SCSP solve wall time.",
        ).observe(time.perf_counter() - started)

        if request.acceptance is not None:
            # Told factor by factor: on the factored backend the store
            # stays a factor set and the acceptance check routes through
            # the solver instead of materializing the union scope.
            store = empty_store(semiring, backend=self.store_backend)
            for constraint in constraints:
                store = store.tell(constraint)
            accepted = request.acceptance.holds(store)
        else:
            accepted = result.is_consistent
        return CandidateEvaluation(
            description, result.blevel, accepted, result.best_assignment
        )

    def _confirm(
        self,
        evaluation: CandidateEvaluation,
        request: ClientRequest,
        semiring: Semiring,
    ) -> NegotiationOutcome:
        """Step 3 made explicit: rerun the winner as nmsccp agents and
        certify scheduler independence."""
        pool: Dict[str, Variable] = {
            var.name: var
            for constraint in request.requirements
            for var in constraint.scope
        }
        offer = self._compile_offer(
            evaluation.description, request.attribute, semiring, pool
        )
        provider = Party(
            evaluation.description.provider, offer, acceptance=None
        )
        client = Party(
            request.client, list(request.requirements), request.acceptance
        )
        return negotiate(
            [provider, client],
            semiring,
            verify_scheduler_independence=True,
            store_backend=self.store_backend,
        )

    def _sign(
        self,
        evaluation: CandidateEvaluation,
        request: ClientRequest,
        semiring: Semiring,
        created_at: int,
    ) -> SLA:
        pool: Dict[str, Variable] = {
            var.name: var
            for constraint in request.requirements
            for var in constraint.scope
        }
        offer = self._compile_offer(
            evaluation.description, request.attribute, semiring, pool
        )
        agreed = combine(
            list(request.requirements) + offer, semiring=semiring
        )
        sla = SLA(
            client=request.client,
            providers=(evaluation.description.provider,),
            attribute=request.attribute,
            semiring=semiring,
            agreed_constraint=agreed,
            agreed_level=evaluation.blevel,
            resource_assignment=dict(evaluation.best_assignment or {}),
            service_ids=(evaluation.description.service_id,),
            created_at=created_at,
        )
        self.slas.add(sla)
        return sla

    # ------------------------------------------------------------------
    # Composition selection
    # ------------------------------------------------------------------

    def negotiate_composition(
        self,
        client: str,
        slots: Sequence[str],
        attribute: str,
        pattern: str = "pipeline",
        minimum_level: Any = None,
        rule: Optional[AggregationRule] = None,
        slo_target: Any = None,
        slo_choose: str = "worst-case",
    ) -> Tuple[Optional[SLA], Optional[Plan], Dict[str, Any]]:
        """Choose one provider per operation slot, optimizing the
        aggregated QoS of the composite (paper: "look for complex services
        by composing together simpler service interfaces").

        Returns ``(sla, plan, diagnostics)``; ``sla`` is ``None`` when no
        selection reaches ``minimum_level``.

        ``slo_target`` arms the unachievable-SLO precheck: before the
        selection SCSP is even built, the analytics fold the per-slot
        *best* offers through the aggregation rule (the exact reachable
        optimum, by monotonicity) and compare against the target.  An
        unachievable target short-circuits to ``(None, None,
        diagnostics)`` with the typed verdict — including remediation
        guidance — under ``diagnostics["slo"]``, saving the doomed solve.
        """
        with get_tracer().span(
            "broker.composition",
            client=client,
            slots=len(slots),
            attribute=attribute,
            pattern=pattern,
        ):
            return self._negotiate_composition(
                client,
                slots,
                attribute,
                pattern,
                minimum_level,
                rule,
                slo_target,
                slo_choose,
            )

    def _negotiate_composition(
        self,
        client: str,
        slots: Sequence[str],
        attribute: str,
        pattern: str,
        minimum_level: Any,
        rule: Optional[AggregationRule],
        slo_target: Any = None,
        slo_choose: str = "worst-case",
    ) -> Tuple[Optional[SLA], Optional[Plan], Dict[str, Any]]:
        stamp = next(self._clock)
        semiring = resolve_attribute(attribute).semiring()
        if rule is None:
            try:
                rule = AGGREGATION_RULES[attribute]
            except KeyError:
                raise BrokerError(
                    f"no aggregation rule for attribute {attribute!r}"
                ) from None

        # Scalar offer per candidate: its best achievable level.
        slot_candidates: List[List[ServiceDescription]] = []
        offer_level: Dict[str, Any] = {}
        for operation in slots:
            candidates = self.registry.find(
                operation=operation, requires_attribute=attribute
            )
            if not candidates:
                raise BrokerError(
                    f"no provider for slot operation {operation!r}"
                )
            slot_candidates.append(candidates)
            for description in candidates:
                if description.service_id not in offer_level:
                    constraints = self._compile_offer(
                        description, attribute, semiring, {}
                    )
                    problem = SCSP(constraints, name=description.service_id)
                    offer_level[description.service_id] = self._solve(
                        problem
                    ).blevel

        # Unachievable-SLO precheck: fold the per-slot best offers (the
        # reachable optimum) before spending a selection solve.
        if slo_target is not None:
            verdict = self._precheck_slo(
                slot_candidates,
                offer_level,
                pattern,
                attribute,
                semiring,
                rule,
                slo_target,
                slo_choose,
            )
            if verdict is not None and not verdict.achievable:
                diagnostics = {
                    "offer_levels": dict(offer_level),
                    "blevel": None,
                    "evaluations": 0,
                    "slo": verdict.to_dict(),
                }
                self._post(self.name, "composition-slo-reject", client)
                return None, None, diagnostics

        # One selection variable per slot, domain = candidate service ids.
        selection_vars = [
            Variable(f"slot{i}", tuple(d.service_id for d in candidates))
            for i, candidates in enumerate(slot_candidates)
        ]

        fold = {
            "pipeline": rule.sequence,
            "split": rule.split,
            "choose": rule.choose,
        }.get(pattern)
        if fold is None:
            raise BrokerError(f"unknown composition pattern {pattern!r}")

        def aggregated(*chosen_ids: str) -> Any:
            return fold([offer_level[sid] for sid in chosen_ids])

        objective = FunctionConstraint(
            semiring, selection_vars, aggregated, name=f"compose-{attribute}"
        )
        problem = SCSP([objective], name="composition")
        result = self._solve(problem)

        diagnostics = {
            "offer_levels": dict(offer_level),
            "blevel": result.blevel,
            "evaluations": result.stats.leaves_evaluated,
        }
        if minimum_level is not None and not semiring.geq(
            result.blevel, minimum_level
        ):
            return None, None, diagnostics

        assert result.best_assignment is not None
        chosen_ids = [
            result.best_assignment[var.name] for var in selection_vars
        ]
        plan_children = [Invoke(sid) for sid in chosen_ids]
        plan: Plan = {
            "pipeline": Pipeline,
            "split": Split,
            "choose": Choose,
        }[pattern](plan_children)

        providers = tuple(
            self.registry.get(sid).provider for sid in chosen_ids
        )
        sla = SLA(
            client=client,
            providers=providers,
            attribute=attribute,
            semiring=semiring,
            agreed_constraint=objective,
            agreed_level=result.blevel,
            resource_assignment=dict(result.best_assignment),
            service_ids=tuple(chosen_ids),
            created_at=stamp,
        )
        self.slas.add(sla)
        self._post(self.name, "composition-sla", sla.sla_id)
        get_events().emit(
            "broker.composition-sla",
            sla_id=sla.sla_id,
            client=client,
            attribute=attribute,
            service_ids=list(chosen_ids),
        )
        return sla, plan, diagnostics

    def _precheck_slo(
        self,
        slot_candidates: List[List[ServiceDescription]],
        offer_level: Dict[str, Any],
        pattern: str,
        attribute: str,
        semiring: Semiring,
        rule: Optional[AggregationRule],
        slo_target: Any,
        slo_choose: str,
    ) -> Any:
        """The detector over per-slot best offers (see
        :func:`repro.slo.check_slo`)."""
        from ..slo import SLOError, check_slo

        best_ids: List[str] = []
        for candidates in slot_candidates:
            best = candidates[0].service_id
            for description in candidates[1:]:
                if semiring.gt(
                    offer_level[description.service_id], offer_level[best]
                ):
                    best = description.service_id
            best_ids.append(best)
        plan_type = {
            "pipeline": Pipeline,
            "split": Split,
            "choose": Choose,
        }[pattern]
        plan = plan_type([Invoke(sid) for sid in best_ids])
        try:
            return check_slo(
                plan,
                {sid: offer_level[sid] for sid in best_ids},
                slo_target,
                attribute=attribute,
                choose=slo_choose,
                rule=rule,
                semiring=semiring,
            )
        except SLOError as exc:
            raise BrokerError(f"SLO precheck failed: {exc}") from exc

    # ------------------------------------------------------------------
    # SLO analytics queries
    # ------------------------------------------------------------------

    def advertised_levels(
        self, attribute: str, operation: Optional[str] = None
    ) -> Dict[str, Any]:
        """Each published service's best achievable level for
        ``attribute`` (its scalar offer), via the broker's memoized
        offer compiler and solve cache."""
        semiring = resolve_attribute(attribute).semiring()
        levels: Dict[str, Any] = {}
        for description in self.registry.find(
            operation=operation, requires_attribute=attribute
        ):
            constraints = self._compile_offer(
                description, attribute, semiring, {}
            )
            problem = SCSP(constraints, name=description.service_id)
            levels[description.service_id] = self._solve(problem).blevel
        return levels

    def slo_report(
        self,
        plan: Plan,
        target: float,
        attribute: str = "availability",
        use_observations: bool = True,
        **options: Any,
    ) -> Any:
        """Full SLO analytics (:func:`repro.slo.analyze`) for a plan over
        this broker's market: published levels come from the registered
        QoS offers, delivered-quality evidence from the registry's
        observation ledger (``use_observations=False`` trusts the
        advertisements).  Extra keyword ``options`` pass through to
        ``analyze`` (``buffer``, ``min_attempts``, ``choose``, …)."""
        from ..slo import analyze

        semiring = resolve_attribute(attribute).semiring()
        published: Dict[str, Any] = {}
        for service_id in set(plan.services()):
            description = self.registry.get(service_id)
            constraints = self._compile_offer(
                description, attribute, semiring, {}
            )
            problem = SCSP(constraints, name=service_id)
            published[service_id] = self._solve(problem).blevel
        observations = (
            self.registry.observation_windows() if use_observations else None
        )
        if not use_observations:
            options.setdefault("trust_published", True)
        return analyze(
            plan,
            published,
            target,
            attribute=attribute,
            observations=observations,
            **options,
        )

    # ------------------------------------------------------------------
    # Multi-criteria (Pareto) selection
    # ------------------------------------------------------------------

    def negotiate_multicriteria(
        self,
        client: str,
        operation: str,
        attributes: Sequence[str],
        requirements: Optional[List[SoftConstraint]] = None,
    ) -> "MulticriteriaResult":
        """Negotiate several QoS attributes jointly over their product
        semiring (paper Sec. 4: "the cartesian product of multiple
        c-semirings is still a c-semiring and, therefore, we can model
        also a multicriteria optimization").

        Each candidate's offers for every attribute are folded into one
        product-valued constraint; incomparable trade-offs survive as a
        Pareto frontier instead of being collapsed by an arbitrary
        scalarization.  ``requirements`` (optional) are product-valued
        client constraints combined into every candidate's problem.
        """
        from ..semirings.product import ProductSemiring

        if len(attributes) < 2:
            raise BrokerError(
                "multicriteria negotiation needs at least two attributes"
            )
        next(self._clock)
        component_semirings = [
            resolve_attribute(a).semiring() for a in attributes
        ]
        product = ProductSemiring(component_semirings)

        candidates = [
            d
            for d in self.registry.find(operation=operation)
            if all(a in d.qos.attributes() for a in attributes)
        ]
        if not candidates:
            return MulticriteriaResult(
                client, operation, tuple(attributes), [], product
            )

        points: List[ParetoPoint] = []
        for description in candidates:
            pool: Dict[str, Variable] = {
                var.name: var
                for constraint in (requirements or [])
                for var in constraint.scope
            }
            per_attribute = []
            for attribute, semiring in zip(attributes, component_semirings):
                offer = compile_document(
                    description.qos, attribute, semiring, pool
                )
                per_attribute.append(
                    combine(offer, semiring=semiring)
                )
            scope = tuple(
                {
                    var.name: var
                    for constraint in per_attribute
                    for var in constraint.scope
                }.values()
            )

            def joint(*values, _scope=scope, _parts=per_attribute):
                assignment = {
                    var.name: value for var, value in zip(_scope, values)
                }
                return tuple(part.value(assignment) for part in _parts)

            offer_constraint = FunctionConstraint(
                product, scope, joint, name=description.service_id
            )
            constraints = list(requirements or []) + [offer_constraint]
            problem = SCSP(constraints, name=description.service_id)
            result = solve(problem, method="exhaustive")
            for value, group in zip(result.frontier, result.optima):
                for assignment in group:
                    points.append(
                        ParetoPoint(
                            description=description,
                            level=value,
                            assignment=dict(assignment),
                        )
                    )

        # Pareto-filter across candidates.
        frontier_values = product.max_elements(
            [point.level for point in points]
        )
        frontier = [
            point for point in points if point.level in frontier_values
        ]
        frontier.sort(
            key=lambda p: (p.description.service_id, repr(p.level))
        )
        return MulticriteriaResult(
            client, operation, tuple(attributes), frontier, product
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _post(self, sender: str, kind: str, body: Any) -> None:
        """Journal a protocol step on the bus when one is attached."""
        if self.bus is not None:
            if sender not in self.bus.endpoints():
                self.bus.register(sender)
            self.bus.send(sender, self.ENDPOINT, kind, body)
