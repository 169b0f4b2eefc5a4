"""The shared SCC evaluation core behind every bottom-up evaluator.

The paper states its cost model in terms of semi-naive bottom-up
evaluation of the SCC-stratified program, but historically each driver
(`naive_eval`, `seminaive_eval`, `provenance_eval`) re-implemented its
own whole-program fixpoint loop.  This module extracts the shared
layer: :class:`SCCScheduler` owns the predicate dependency graph
traversal, groups strongly connected components into **topological
depth batches**, and runs one :class:`ComponentRun` — a per-component
fixpoint — for each component.  The evaluator frontends differ only in
the *mode* of that per-component fixpoint:

* ``mode="seminaive"`` — the delta-decomposed iteration (the paper's
  evaluator; also used by ``provenance_eval`` with a derivation
  recorder attached);
* ``mode="naive"`` — full re-evaluation of the component's rules every
  round (the trivially-correct oracle, now quadratic per component
  instead of per program).

Depth batches are the parallelism unit: depth 0 holds components with
no dependencies outside themselves, depth *d+1* holds components all
of whose dependencies live at depths ``<= d``.  Two components in the
same batch share no dependency edge in either direction, so their
**write sets are disjoint** (a component only writes head relations of
its own SCC) and neither reads what the other writes.  With
``jobs > 1`` (or ``REPRO_JOBS``) the scheduler hands a batch to its
:class:`~repro.engine.backends.ExecutorBackend` (``backend=`` /
``REPRO_BACKEND``): ``serial`` runs it in batch order, ``thread``
overlaps components on a thread pool over staged relations, and
``process`` ships declarative
:class:`~repro.engine.backends.ComponentSpec` work units to a process
pool for real compute parallelism.  Every backend merges component
results at the batch barrier in batch order, so
``facts``/``inferences``/``iterations`` are bit-identical for every
backend and every ``jobs`` value; only wall time and scheduling vary.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.dependency import DependencyGraph
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine import faults
from repro.engine.backends import make_backend
from repro.engine.columnar import execute_columnar, resolve_exec
from repro.engine.cost import resolve_planner
from repro.engine.database import Database, FactTuple, Relation, RowTuple
from repro.engine.joins import _resolve, instantiate_head, join_rule, relation_from_tuples
from repro.engine.plan import PlanCache, RoleSpec
from repro.engine.stats import ComponentTimeout, EvalStats, NonTerminationError

Signature = Tuple[str, int]
FactKey = Tuple[str, int, FactTuple]

#: Environment variable supplying the session-wide default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable supplying the session-wide watchdog budget.
TIMEOUT_ENV = "REPRO_TIMEOUT"

#: Fixpoint modes the scheduler knows how to drive.
MODES = ("seminaive", "naive")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalize a worker-count choice, honouring ``REPRO_JOBS``.

    ``None`` falls back to the environment (default 1 — fully
    sequential, the deterministic reference schedule).  Anything that
    is not a positive integer raises ``ValueError`` so typos fail
    loudly rather than silently running sequentially.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"invalid {JOBS_ENV}={raw!r}; expected a positive integer"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_timeout(max_seconds=None) -> Optional[float]:
    """Normalize a watchdog budget, honouring ``REPRO_TIMEOUT``.

    ``None`` falls back to the environment; an empty/unset environment
    means no watchdog (the default).  The budget is per *component*
    wall clock, checked at fixpoint round boundaries; a component that
    exceeds it raises :class:`~repro.engine.stats.ComponentTimeout`.
    Anything that is not a positive number of seconds raises
    ``ValueError`` so typos fail loudly — mirroring
    :func:`resolve_jobs`/:func:`repro.engine.backends.resolve_backend`.
    """
    source = "max_seconds"
    if max_seconds is None:
        raw = os.environ.get(TIMEOUT_ENV, "").strip()
        if not raw:
            return None
        max_seconds, source = raw, TIMEOUT_ENV
    try:
        value = float(max_seconds)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid {source}={max_seconds!r}; expected a positive number "
            f"of seconds"
        ) from None
    if not value > 0:  # also rejects NaN
        raise ValueError(
            f"invalid {source}={max_seconds!r}; expected a positive number "
            f"of seconds"
        )
    return value


def component_depths(
    sccs: Sequence[Sequence[Signature]],
    predecessors: Mapping[Signature, Set[Signature]],
) -> List[int]:
    """Topological depth of each SCC, given SCCs in evaluation order.

    Depth 0 components depend on nothing outside themselves; a
    component's depth is otherwise one more than the deepest component
    it depends on.  Because every dependency edge crosses strictly
    increasing depth, components sharing a depth are mutually
    independent — the property the parallel batches rely on.

    ``sccs`` must be in evaluation order (dependencies before
    dependents, as :meth:`DependencyGraph.sccs` returns them) so each
    component's dependencies are assigned before it.
    """
    scc_of: Dict[Signature, int] = {}
    for i, scc in enumerate(sccs):
        for sig in scc:
            scc_of[sig] = i
    depths: List[int] = []
    for i, scc in enumerate(sccs):
        depth = 0
        for sig in scc:
            for dep in predecessors.get(sig, ()):
                j = scc_of[dep]
                if j != i:
                    depth = max(depth, depths[j] + 1)
        depths.append(depth)
    return depths


class ComponentTask:
    """One SCC of the dependency graph, ready to evaluate.

    ``sigs`` is the component's signature set (also its write set:
    every rule's head signature belongs to the SCC of that rule);
    ``recursive`` marks components needing fixpoint iteration.
    """

    __slots__ = ("index", "depth", "sigs", "rules", "recursive")

    def __init__(
        self,
        index: int,
        depth: int,
        sigs: frozenset,
        rules: List[Rule],
        recursive: bool,
    ):
        self.index = index
        self.depth = depth
        self.sigs = sigs
        self.rules = rules
        self.recursive = recursive

    def __repr__(self) -> str:
        kind = "recursive" if self.recursive else "single-pass"
        return (
            f"ComponentTask(depth={self.depth}, {kind}, "
            f"sigs={sorted(self.sigs)}, rules={len(self.rules)})"
        )


class SCCScheduler:
    """Shared driver: stratify a program and run per-component fixpoints.

    The frontends (:func:`~repro.engine.seminaive.seminaive_eval`,
    :func:`~repro.engine.naive.naive_eval`,
    :func:`~repro.engine.provenance.provenance_eval`) construct one of
    these per evaluation, then call :meth:`run` against a database that
    already holds the EDB and any program facts.

    ``recorder`` attaches plan-level provenance: a duck-typed object
    with ``start_round()`` / ``observe(sig, fact, rule_index, rule,
    body_keys)`` / ``commit(sig, fact)`` / ``fork()`` / ``absorb()``
    (see :class:`repro.engine.provenance.DerivationRecorder`).  It is
    only consulted on the semi-naive paths — provenance evaluation is
    SCC-stratified semi-naive.

    ``backend`` selects how parallel depth batches execute: a name
    (``"serial"``/``"thread"``/``"process"``; ``None`` reads
    ``REPRO_BACKEND``, defaulting to ``thread``) or a ready
    :class:`~repro.engine.backends.ExecutorBackend` instance.  With
    ``jobs == 1`` the backend is never consulted — every schedule is
    the sequential one.
    """

    def __init__(
        self,
        program: Program,
        mode: str = "seminaive",
        use_plans: bool = True,
        planner: Optional[str] = None,
        jobs: Optional[int] = None,
        backend=None,
        max_iterations: Optional[int] = None,
        max_facts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        recorder=None,
        cache: Optional[PlanCache] = None,
        exec: Optional[str] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.program = program
        self.mode = mode
        self.use_plans = use_plans
        self.planner = resolve_planner(planner) if use_plans else None
        self.jobs = resolve_jobs(jobs)
        self.backend = make_backend(backend)
        self.exec_mode = resolve_exec(exec)
        self.max_iterations = max_iterations
        self.max_facts = max_facts
        self.max_seconds = resolve_timeout(max_seconds)
        self.recorder = recorder
        #: Optional shared plan cache: when set, sequential component
        #: runs compile into it instead of one private cache per run,
        #: so repeated evaluations of the same program (the per-query
        #: serving path) reuse compiled plans across calls.
        self.cache = cache if use_plans else None

        self.graph = DependencyGraph(program)
        rules_by_head: Dict[Signature, List[Rule]] = {}
        for rule in program.proper_rules():
            rules_by_head.setdefault(rule.head.signature, []).append(rule)

        sccs = self.graph.sccs()
        depths = component_depths(sccs, self.graph.predecessors)
        self.tasks: List[ComponentTask] = []
        for i, scc in enumerate(sccs):
            scc_set = frozenset(scc)
            rules = [rule for sig in scc for rule in rules_by_head.get(sig, ())]
            if not rules:
                continue  # EDB-only component: nothing to evaluate
            recursive = any(
                lit.signature in scc_set for rule in rules for lit in rule.body
            )
            self.tasks.append(
                ComponentTask(i, depths[i], scc_set, rules, recursive)
            )
        batches: Dict[int, List[ComponentTask]] = {}
        for task in self.tasks:
            batches.setdefault(task.depth, []).append(task)
        #: Components grouped by topological depth, shallowest first;
        #: same-batch components are mutually independent.
        self.batches: List[List[ComponentTask]] = [
            batches[d] for d in sorted(batches)
        ]

    # ------------------------------------------------------------------

    def component_run(
        self, task: ComponentTask, recorder=None, fact_base: int = 0
    ) -> "ComponentRun":
        """A :class:`ComponentRun` for ``task`` with this run's knobs.

        The execution backends call this so every backend evaluates
        components with exactly the same configuration — they differ
        only in where the run executes and how results merge back.
        """
        return ComponentRun(
            task,
            mode=self.mode,
            use_plans=self.use_plans,
            planner=self.planner,
            max_iterations=self.max_iterations,
            max_facts=self.max_facts,
            max_seconds=self.max_seconds,
            recorder=recorder,
            fact_base=fact_base,
            cache=self.cache,
            exec_mode=self.exec_mode,
        )

    def run(self, db: Database, stats: EvalStats) -> None:
        """Evaluate every component batch-by-batch into ``db``.

        ``stats`` accumulates across components.  Raises
        :class:`NonTerminationError` when a component exceeds the
        iteration or fact budget (budgets are whole-evaluation, shared
        across components).  Batches with parallelism to exploit go to
        the execution backend; its pooled resources are released when
        the run finishes.
        """
        if self.exec_mode == "columnar":
            # Mint the run's term dictionary up front, before any
            # parallel batch: stages inherit it by reference, so
            # concurrent components never race to attach competing
            # dictionaries to shared lower-stratum relations.
            db.ensure_dictionary()
        stats.scc_count += len(self.tasks)
        try:
            for batch in self.batches:
                if len(batch) > 1:
                    stats.scc_parallel_batches += 1
                if self.jobs == 1 or len(batch) == 1:
                    for task in batch:
                        self.component_run(task, self.recorder).execute(db, stats)
                else:
                    self.backend.run_batch(self, batch, db, stats)
                    self._recheck_fact_budget(stats)
        finally:
            self.backend.close()

    def _recheck_fact_budget(self, stats: EvalStats) -> None:
        """Re-check ``max_facts`` against a batch's absorbed totals.

        Parallel components check the budget against the batch-start
        baseline only; the barrier re-check makes a batch that
        *collectively* exceeds the budget raise exactly like the
        sequential schedule would (at most one batch later).
        """
        if self.max_facts is not None and stats.facts > self.max_facts:
            raise NonTerminationError(
                f"evaluation exceeded {self.max_facts} facts",
                stats.iterations,
                stats.facts,
            )


class ComponentRun:
    """The fixpoint of one SCC — the unit of work the scheduler schedules.

    Dispatches on the component shape and the scheduler's mode:

    * non-recursive component → one pass over its rules;
    * recursive, ``mode="seminaive"`` → delta-decomposed iteration
      (compiled plans by default, the legacy dict interpreter under
      ``use_plans=False``);
    * recursive, ``mode="naive"`` → full re-evaluation of the
      component's rules every round until no new facts.

    ``max_iterations`` bounds the fixpoint rounds of any *single*
    component (a divergence guard — a diverging component exceeds any
    cap by itself, and the bound does not shrink as programs gain more
    components); ``max_facts`` bounds the whole evaluation's derived
    facts, with ``fact_base`` carrying the budget context into
    parallel batches, where ``stats`` is component-local.

    Construction takes the evaluation knobs explicitly (rather than a
    scheduler) so the run is self-contained: the process execution
    backend rebuilds one inside a worker from a declarative
    :class:`~repro.engine.backends.ComponentSpec`, far from any
    scheduler object.  ``cache`` lets a worker supply its own
    :class:`~repro.engine.plan.PlanCache`; by default each run
    compiles into a private cache — rules belong to exactly one
    component (grouped by head SCC), so either way exactly the same
    (rule, roles) pairs compile, and the cache is free to use from a
    worker thread or process.
    """

    __slots__ = (
        "task",
        "mode",
        "use_plans",
        "cache",
        "recorder",
        "max_iterations",
        "max_facts",
        "max_seconds",
        "fact_base",
        "rounds",
        "_deadline",
        "exec_mode",
    )

    def __init__(
        self,
        task: ComponentTask,
        mode: str = "seminaive",
        use_plans: bool = True,
        planner: Optional[str] = None,
        max_iterations: Optional[int] = None,
        max_facts: Optional[int] = None,
        max_seconds: Optional[float] = None,
        recorder=None,
        fact_base: int = 0,
        cache: Optional[PlanCache] = None,
        exec_mode: str = "tuple",
    ):
        self.task = task
        self.mode = mode
        self.use_plans = use_plans
        if cache is None and use_plans:
            cache = PlanCache(planner or "greedy")
        self.cache = cache if use_plans else None
        self.recorder = recorder
        self.max_iterations = max_iterations
        self.max_facts = max_facts
        self.max_seconds = max_seconds
        self.fact_base = fact_base
        self.rounds = 0
        self._deadline: Optional[float] = None
        #: "columnar" routes compiled-plan execution through the batch
        #: kernel (repro.engine.columnar); anything else — and every
        #: provenance or interpreter run — stays tuple-at-a-time.
        self.exec_mode = exec_mode

    # -- budget guards --------------------------------------------------

    def _check_facts(self, stats: EvalStats) -> None:
        if (
            self.max_facts is not None
            and self.fact_base + stats.facts > self.max_facts
        ):
            raise NonTerminationError(
                f"evaluation exceeded {self.max_facts} facts",
                stats.iterations,
                self.fact_base + stats.facts,
            )

    def _begin_round(self, stats: EvalStats) -> None:
        """Count one fixpoint round, guarding this component's budget."""
        stats.iterations += 1
        self.rounds += 1
        if self.max_iterations is not None and self.rounds > self.max_iterations:
            raise NonTerminationError(
                f"component {sorted(self.task.sigs)} exceeded "
                f"{self.max_iterations} iterations",
                stats.iterations,
                self.fact_base + stats.facts,
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ComponentTimeout(
                f"component {sorted(self.task.sigs)} exceeded its "
                f"{self.max_seconds:g}s wall-clock budget",
                stats.iterations,
                self.fact_base + stats.facts,
            )

    # -- dispatch ---------------------------------------------------------

    def execute(self, db: Database, stats: EvalStats) -> None:
        faults.fire("component")
        if self.max_seconds is not None:
            # Per-component wall clock: the watchdog is armed at execute
            # time (not construction) so pool queueing doesn't count.
            self._deadline = time.monotonic() + self.max_seconds
        if self.recorder is not None:
            # Source the provenance backend ratio where the work runs:
            # every component of one evaluation uses the same backend,
            # so the stat barriers' inference-weighted blend reduces to
            # this value (and stays exact if the backends ever mix).
            stats.provenance_plan_ratio = 1.0 if self.cache is not None else 0.0
        if (
            self.exec_mode == "columnar"
            and self.recorder is None
            and self.cache is not None
        ):
            # Adopt (or mint) the database's term dictionary lazily so
            # every caller that builds a ComponentRun directly — the
            # process-backend worker, incremental recomputes — gets the
            # columnar path without its own setup step.
            db.ensure_dictionary()
            if not self.task.recursive:
                self._eval_once_columnar(db, stats)
            elif self.mode == "naive":
                self._eval_naive(db, stats)
            else:
                self._eval_seminaive_columnar(db, stats)
            return
        if not self.task.recursive:
            self._eval_once(db, stats)
        elif self.mode == "naive":
            self._eval_naive(db, stats)
        elif self.cache is not None:
            self._eval_seminaive_plans(db, stats)
        else:
            self._eval_seminaive_interpreted(db, stats)

    # -- provenance plumbing ----------------------------------------------

    def _interpreted_body_keys(self, rule: Rule, bindings) -> Tuple[FactKey, ...]:
        """Ground body fact keys under ``bindings`` (interpreter path)."""
        keys = []
        for literal in rule.body:
            args = tuple(_resolve(arg, bindings) for arg in literal.args)
            keys.append((literal.predicate, literal.arity, args))
        return tuple(keys)

    # -- non-recursive: one pass -------------------------------------------

    def _eval_once(self, db: Database, stats: EvalStats) -> None:
        """Single pass for a non-recursive component."""
        recorder = self.recorder
        self._begin_round(stats)
        if recorder is not None:
            recorder.start_round()
        for rule_index, rule in enumerate(self.task.rules):
            sig = rule.head.signature
            rel = db.relation(*sig)

            if self.cache is not None:
                emitted: List[FactTuple] = []
                plan = self.cache.plan(rule, (), stats, db=db)
                if recorder is not None:
                    def on_match(head, body_keys, sig=sig, rel=rel,
                                 rule=rule, idx=rule_index, emitted=emitted):
                        emitted.append(head)
                        if head not in rel.tuples:
                            recorder.observe(sig, head, idx, rule, body_keys)

                    plan.execute(db, None, None, stats, on_match=on_match)
                else:
                    plan.execute(db, None, emitted.append, stats)
                if plan.estimated_rows is not None:
                    stats.record_estimate(plan.estimated_rows, len(emitted))
                stats.inferences += len(emitted)
                for fact in emitted:
                    if rel.add(fact):
                        stats.record_fact(sig)
                        if recorder is not None:
                            recorder.commit(sig, fact)
                        self._check_facts(stats)
            else:
                emitted = []

                def on_match(bindings, rule=rule, idx=rule_index,
                             sig=sig, rel=rel, emitted=emitted):
                    stats.inferences += 1
                    fact = instantiate_head(rule, bindings)
                    emitted.append(fact)
                    if recorder is not None and fact not in rel.tuples:
                        recorder.observe(
                            sig, fact, idx, rule,
                            self._interpreted_body_keys(rule, bindings),
                        )

                join_rule(db, rule, on_match)
                for fact in emitted:
                    if rel.add(fact):
                        stats.record_fact(sig)
                        if recorder is not None:
                            recorder.commit(sig, fact)
                        self._check_facts(stats)

    # -- non-recursive: one pass, columnar ----------------------------------

    def _eval_once_columnar(self, db: Database, stats: EvalStats) -> None:
        """Single columnar pass for a non-recursive component.

        Per rule: run the batch kernel (falling back to the tuple
        executor for ineligible plans — counters are identical either
        way), then decode only the rows that are actually new.
        """
        dictionary = db.dictionary
        terms = dictionary.terms
        self._begin_round(stats)
        for rule in self.task.rules:
            sig = rule.head.signature
            rel = db.relation(*sig)
            plan = self.cache.plan(rule, (), stats, db=db)
            rows = execute_columnar(plan, db, None, stats)
            if rows is None:
                emitted: List[FactTuple] = []
                plan.execute(db, None, emitted.append, stats)
                if plan.estimated_rows is not None:
                    stats.record_estimate(plan.estimated_rows, len(emitted))
                stats.inferences += len(emitted)
                for fact in emitted:
                    if rel.add(fact):
                        stats.record_fact(sig)
                        self._check_facts(stats)
                continue
            if plan.estimated_rows is not None:
                stats.record_estimate(plan.estimated_rows, len(rows))
            stats.inferences += len(rows)
            if not rows:
                continue
            if rel.arity > 0 and rel.dictionary is dictionary:
                seen = rel.col_set()
                if self.max_facts is None:
                    # Bulk absorption (no limit to trip mid-batch).
                    novel: List[RowTuple] = []
                    pending: Set[RowTuple] = set()
                    for row in rows:
                        if row not in seen and row not in pending:
                            pending.add(row)
                            novel.append(row)
                    if novel:
                        rel.append_rows(novel)
                        stats.record_facts(sig, len(novel))
                else:
                    # Fact budget set: add one at a time so the limit
                    # trips on exactly the same fact as the tuple path.
                    for row in rows:
                        if row not in seen:
                            rel.add_row(tuple(terms[i] for i in row), row)
                            stats.record_fact(sig)
                            self._check_facts(stats)
            else:
                # Head relation outside this run's dictionary (or
                # nullary): decode and take the plain tuple adds.
                for row in rows:
                    fact = tuple(terms[i] for i in row)
                    if rel.add(fact):
                        stats.record_fact(sig)
                        self._check_facts(stats)

    # -- recursive: semi-naive on compiled plans ----------------------------

    def _eval_seminaive_plans(self, db: Database, stats: EvalStats) -> None:
        """Semi-naive iteration for one recursive component (compiled plans).

        Neither deltas nor "old" relations are ever materialized: at
        round ``t`` a component relation's append-only log holds the
        facts through ``t-1`` in derivation order, so *delta* (new at
        ``t-1``) is the log slice ``[delta_start:len]`` and *old*
        (through ``t-2``) is the prefix ``[0:delta_start]`` — both
        zero-copy :class:`~repro.engine.database.RelationView` windows.
        """
        rules = self.task.rules
        scc_set = self.task.sigs
        cache = self.cache
        recorder = self.recorder
        rels: Dict[Signature, Relation] = {
            sig: db.relation(*sig) for sig in scc_set
        }
        # Facts present before the first round seed the delta (magic
        # seeds and facts from earlier strata drive round one);
        # delta_start marks the log offset where the current delta begins.
        delta_start: Dict[Signature, int] = {sig: 0 for sig in scc_set}

        # One delta decomposition per recursive occurrence per rule; each
        # (rule, roles) pair is compiled once by the cache and fetched per
        # round (the refetch is what the plan_cache_hits counter measures).
        # Rules with no recursive body literal have no entry; they fire
        # only in the first round (see the dispatch below).
        variants: Dict[Rule, List[Tuple[RoleSpec, List[Tuple[int, str, Signature]]]]] = {}
        for rule in rules:
            positions = [
                i for i, lit in enumerate(rule.body) if lit.signature in scc_set
            ]
            if not positions:
                continue
            rule_variants = []
            for j, _ in enumerate(positions):
                roles = tuple(
                    (other, "delta" if k == j else "old")
                    for k, other in enumerate(positions)
                    if k >= j
                )
                binding = [
                    (pos, role, rule.body[pos].signature) for pos, role in roles
                ]
                rule_variants.append((roles, binding))
            variants[rule] = rule_variants

        first_round = True
        while True:
            self._begin_round(stats)
            if recorder is not None:
                recorder.start_round()
            # Log lengths at round start; nothing is appended mid-round, so
            # views and the full relations both expose exactly "through t-1".
            stop = {sig: len(rels[sig]) for sig in scc_set}
            delta_views = {
                sig: rels[sig].view(delta_start[sig], stop[sig]) for sig in scc_set
            }
            old_views = {
                sig: rels[sig].view(0, delta_start[sig]) for sig in scc_set
            }
            new: Dict[Signature, Set[FactTuple]] = {sig: set() for sig in scc_set}

            for rule_index, rule in enumerate(rules):
                sig = rule.head.signature
                emitted: List[FactTuple] = []
                if recorder is not None:
                    full = rels[sig].tuples
                    fresh = new[sig]

                    def emit(head, body_keys, sig=sig, rule=rule,
                             idx=rule_index, full=full, fresh=fresh,
                             emitted=emitted):
                        emitted.append(head)
                        if head not in full:
                            fresh.add(head)
                            recorder.observe(sig, head, idx, rule, body_keys)

                    run_plan = lambda plan, overrides: plan.execute(
                        db, overrides, None, stats, on_match=emit
                    )
                else:
                    run_plan = lambda plan, overrides, emit=emitted.append: (
                        plan.execute(db, overrides, emit, stats)
                    )

                rule_variants = variants.get(rule)
                if rule_variants is None:
                    # Rules with no recursive body literal fire only once, in
                    # the first round (their input never changes afterwards).
                    if first_round:
                        plan = cache.plan(rule, (), stats, db=db)
                        run_plan(plan, None)
                        if plan.estimated_rows is not None:
                            stats.record_estimate(plan.estimated_rows, len(emitted))
                else:
                    for roles, binding in rule_variants:
                        overrides = {
                            pos: delta_views[body_sig]
                            if role == "delta"
                            else old_views[body_sig]
                            for pos, role, body_sig in binding
                        }
                        # Re-fetching the plan every round is what lets the
                        # cost planner notice cardinality drift and re-plan.
                        plan = cache.plan(
                            rule, roles, stats, db=db, overrides=overrides
                        )
                        before = len(emitted)
                        run_plan(plan, overrides)
                        if plan.estimated_rows is not None:
                            stats.record_estimate(
                                plan.estimated_rows, len(emitted) - before
                            )
                if emitted:
                    stats.inferences += len(emitted)
                    if recorder is None:
                        new[sig] |= set(emitted) - rels[sig].tuples

            changed = False
            # Advance: delta becomes old (a log-offset bump); full absorbs new.
            for sig in scc_set:
                delta_start[sig] = stop[sig]
            for sig in scc_set:
                fresh = new[sig]
                if fresh:
                    changed = True
                    rel = rels[sig]
                    for fact in fresh:
                        if rel.add(fact):
                            stats.record_fact(sig)
                            if recorder is not None:
                                recorder.commit(sig, fact)
                    self._check_facts(stats)
            first_round = False
            if not changed:
                break

    # -- recursive: semi-naive, columnar -------------------------------------

    def _eval_seminaive_columnar(self, db: Database, stats: EvalStats) -> None:
        """Semi-naive iteration with batch-at-a-time rule bodies.

        Structurally identical to :meth:`_eval_seminaive_plans` — same
        delta decomposition, same per-round plan refetch, same
        round-end absorption — but the working currency is interned
        rows: rule bodies run through
        :func:`~repro.engine.columnar.execute_columnar` (falling back
        per call to the tuple executor, whose emitted facts are then
        interned), dedup is int-row set difference against the head's
        column set, and only genuinely novel rows are decoded back to
        terms.  Counters match the tuple path bit for bit.
        """
        dictionary = db.dictionary
        rules = self.task.rules
        scc_set = self.task.sigs
        cache = self.cache
        rels: Dict[Signature, Relation] = {
            sig: db.relation(*sig) for sig in scc_set
        }
        if any(
            sig[1] == 0 or rels[sig].dictionary is not dictionary
            for sig in scc_set
        ):
            # A nullary or foreign-dictionary head cannot take row
            # appends; run the whole component down the tuple path.
            self._eval_seminaive_plans(db, stats)
            return
        intern = dictionary.intern
        delta_start: Dict[Signature, int] = {sig: 0 for sig in scc_set}

        variants: Dict[Rule, List[Tuple[RoleSpec, List[Tuple[int, str, Signature]]]]] = {}
        for rule in rules:
            positions = [
                i for i, lit in enumerate(rule.body) if lit.signature in scc_set
            ]
            if not positions:
                continue
            rule_variants = []
            for j, _ in enumerate(positions):
                roles = tuple(
                    (other, "delta" if k == j else "old")
                    for k, other in enumerate(positions)
                    if k >= j
                )
                binding = [
                    (pos, role, rule.body[pos].signature) for pos, role in roles
                ]
                rule_variants.append((roles, binding))
            variants[rule] = rule_variants

        first_round = True
        while True:
            self._begin_round(stats)
            stop = {sig: len(rels[sig]) for sig in scc_set}
            delta_views = {
                sig: rels[sig].view(delta_start[sig], stop[sig]) for sig in scc_set
            }
            old_views = {
                sig: rels[sig].view(0, delta_start[sig]) for sig in scc_set
            }
            new: Dict[Signature, Set[RowTuple]] = {sig: set() for sig in scc_set}

            for rule in rules:
                sig = rule.head.signature
                emitted: List[RowTuple] = []
                rule_variants = variants.get(rule)
                if rule_variants is None:
                    if first_round:
                        plan = cache.plan(rule, (), stats, db=db)
                        rows = execute_columnar(plan, db, None, stats)
                        if rows is None:
                            # Ineligible plan or source: tuple oracle,
                            # then intern its output into the row world.
                            facts: List[FactTuple] = []
                            plan.execute(db, None, facts.append, stats)
                            rows = [
                                tuple(intern(t) for t in fact) for fact in facts
                            ]
                        emitted = rows
                        if plan.estimated_rows is not None:
                            stats.record_estimate(plan.estimated_rows, len(emitted))
                else:
                    for roles, binding in rule_variants:
                        overrides = {
                            pos: delta_views[body_sig]
                            if role == "delta"
                            else old_views[body_sig]
                            for pos, role, body_sig in binding
                        }
                        plan = cache.plan(
                            rule, roles, stats, db=db, overrides=overrides
                        )
                        before = len(emitted)
                        rows = execute_columnar(plan, db, overrides, stats)
                        if rows is None:
                            facts = []
                            plan.execute(db, overrides, facts.append, stats)
                            rows = [
                                tuple(intern(t) for t in fact) for fact in facts
                            ]
                        if emitted:
                            emitted.extend(rows)
                        else:
                            # The common single-variant case adopts the
                            # kernel's fresh list instead of copying it.
                            emitted = rows
                        if plan.estimated_rows is not None:
                            stats.record_estimate(
                                plan.estimated_rows, len(emitted) - before
                            )
                if emitted:
                    stats.inferences += len(emitted)
                    prev = new[sig]
                    if prev:
                        prev |= set(emitted) - rels[sig].col_set()
                    else:
                        new[sig] = set(emitted) - rels[sig].col_set()

            changed = False
            for sig in scc_set:
                delta_start[sig] = stop[sig]
            for sig in scc_set:
                fresh = new[sig]
                if fresh:
                    changed = True
                    rows_list = list(fresh)
                    rels[sig].append_rows(rows_list, fresh)
                    stats.record_facts(sig, len(rows_list))
                    self._check_facts(stats)
            first_round = False
            if not changed:
                break

    # -- recursive: semi-naive via the legacy interpreter --------------------

    def _eval_seminaive_interpreted(self, db: Database, stats: EvalStats) -> None:
        """Semi-naive iteration via the legacy dict-based interpreter.

        Reference implementation for the differential fuzz tests: same
        decomposition as :meth:`_eval_seminaive_plans`, executed through
        :func:`repro.engine.joins.join_rule` with per-round materialized
        delta relations.
        """
        rules = self.task.rules
        scc_set = self.task.sigs
        recorder = self.recorder
        old: Dict[Signature, Relation] = {
            sig: relation_from_tuples(sig[0], sig[1], ()) for sig in scc_set
        }
        # Facts of the component present before the first round seed the delta,
        # so magic seeds and facts from earlier strata drive round one.
        delta: Dict[Signature, Set[FactTuple]] = {
            sig: set(db.relation(*sig).tuples) for sig in scc_set
        }

        recursive_positions: Dict[Rule, List[int]] = {
            rule: [i for i, lit in enumerate(rule.body) if lit.signature in scc_set]
            for rule in rules
        }

        first_round = True
        while True:
            self._begin_round(stats)
            if recorder is not None:
                recorder.start_round()
            delta_rels = {
                sig: relation_from_tuples(sig[0], sig[1], facts)
                for sig, facts in delta.items()
            }
            new: Dict[Signature, Set[FactTuple]] = {sig: set() for sig in scc_set}

            for rule_index, rule in enumerate(rules):
                sig = rule.head.signature
                positions = recursive_positions[rule]

                def on_match(bindings, rule=rule, sig=sig, idx=rule_index):
                    stats.inferences += 1
                    fact = instantiate_head(rule, bindings)
                    if fact not in db.relation(*sig).tuples:
                        new[sig].add(fact)
                        if recorder is not None:
                            recorder.observe(
                                sig, fact, idx, rule,
                                self._interpreted_body_keys(rule, bindings),
                            )

                if not positions:
                    # Rules with no recursive body literal fire only once, in
                    # the first round (their input never changes afterwards).
                    if first_round:
                        join_rule(db, rule, on_match)
                    continue
                for j, pos in enumerate(positions):
                    overrides: Dict[int, Optional[Relation]] = {}
                    for k, other in enumerate(positions):
                        if k < j:
                            overrides[other] = None  # full relation via db
                        elif k == j:
                            overrides[other] = delta_rels[rule.body[other].signature]
                        else:
                            overrides[other] = old[rule.body[other].signature]
                    join_rule(db, rule, on_match, overrides)

            changed = False
            # Advance: old absorbs the previous delta; full absorbs the new facts.
            for sig in scc_set:
                for fact in delta[sig]:
                    old[sig].add(fact)
            for sig in scc_set:
                fresh = new[sig]
                delta[sig] = fresh
                if fresh:
                    changed = True
                    rel = db.relation(*sig)
                    for fact in fresh:
                        if rel.add(fact):
                            stats.record_fact(sig)
                            if recorder is not None:
                                recorder.commit(sig, fact)
                    self._check_facts(stats)
            first_round = False
            if not changed:
                break

    # -- recursive: per-component naive rounds --------------------------------

    def _eval_naive(self, db: Database, stats: EvalStats) -> None:
        """Naive fixpoint for one recursive component.

        Every component rule is re-evaluated over the full database each
        round until a round adds nothing — quadratically redundant, but
        trivially correct, which is exactly why ``naive_eval`` is the
        oracle the rest of the suite is checked against.  (Provenance
        runs on the semi-naive schedule; ``recorder`` is unused here.)
        """
        rules = self.task.rules
        cache = self.cache
        while True:
            self._begin_round(stats)
            new_facts: List[Tuple[Signature, FactTuple]] = []
            for rule in rules:
                sig = rule.head.signature
                if cache is not None:
                    emitted: List[FactTuple] = []
                    plan = cache.plan(rule, (), stats, db=db)
                    plan.execute(db, None, emitted.append, stats)
                    if plan.estimated_rows is not None:
                        stats.record_estimate(plan.estimated_rows, len(emitted))
                    stats.inferences += len(emitted)
                    new_facts.extend((sig, fact) for fact in emitted)
                else:
                    def on_match(bindings, rule=rule, sig=sig):
                        stats.inferences += 1
                        new_facts.append((sig, instantiate_head(rule, bindings)))

                    join_rule(db, rule, on_match)
            changed = False
            for sig, fact in new_facts:
                if db.relation(*sig).add(fact):
                    stats.record_fact(sig)
                    changed = True
                    self._check_facts(stats)
            if not changed:
                break
