"""goal_queries: one closed-loop client asking bound point queries.

The mix, a cycle of 4 × ``GOALS_PER_PROGRAM`` goals at fixed, evenly
spaced positions, asked in a seeded order over seeded vertex labels:

* linear tc ``t(c, Y)`` on a long chain (factored);
* the three-rule tc of Example 1.1, ``t(c, Y)`` (factored);
* same_generation ``sg(c, Y)`` (Magic Sets);
* ``pmem(X, [..])`` list membership of Example 1.2 (factored).

Every ``COLD_EVERY``-th ask is *cold*: a fresh ``QueryCompiler``, as a
one-shot ``repro query`` pays, so the rewrite layer dominates it.  The
rest are *warm*: one long-lived compiler per program, hitting its
compiled-form cache with shifted constants, so the small-cone kernel
dominates.  ``COLD_EVERY`` is prime to the cycle length, so every goal
is asked both ways, many times in a run.  Maintenance, journal and
server stay idle.

Oracle: every answer set must equal materialize-then-filter (a full
``seminaive_eval`` of the program, then the goal filtered out of it),
computed untimed in set-up in a child process; pmem, whose full
materialization is infinite, is checked against list membership
filtered by ``p``.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time

from perfbench import inputs
from perfbench.outcome import Outcome

NAME = "goal_queries"
LIGHT_TAIL, HEAVY_TAIL = 99, 90
COLD_EVERY = 3
GOALS_PER_PROGRAM = 8

FULL = {"tc_chain": 400, "tc_three_rule": 100, "sg_depth": 6, "pmem_list": 40}
SMOKE = {"tc_chain": 40, "tc_three_rule": 20, "sg_depth": 3, "pmem_list": 6}

NAMES = {
    "throughput": "asks_per_s (answered asks per second, one closed-loop client)",
    "light": "ask_warm (cached compiled form, shifted constant)",
    "heavy": "ask_cold (fresh QueryCompiler, as a one-shot repro query)",
}


def _programs(seed: int, sizes: dict, goals: int):
    """(program key, text, facts, goal strings, pmem oracle or None)."""
    rng = random.Random(seed)
    n = sizes["tc_chain"]
    tc_label = inputs.Labels(rng, n)
    tc_goals = [f"t({tc_label(c)}, Y)" for c in inputs.spread(goals, n // 2)]

    n3 = sizes["tc_three_rule"]
    tc3_label = inputs.Labels(rng, n3)
    tc3_goals = [f"t({tc3_label(c)}, Y)" for c in inputs.spread(goals, n3 // 2)]

    depth = sizes["sg_depth"]
    sg_label = inputs.Labels(rng, 2 ** (depth + 1))
    first_deep = 2 ** (depth - 1) - 1
    sg_goals = [
        f"sg({sg_label(first_deep + v)}, Y)"
        for v in inputs.spread(goals, 2 ** (depth + 1) - 1 - first_deep)
    ]

    length = sizes["pmem_list"]
    elements = inputs.Labels(rng, 3 * length)
    satisfying = {elements(i) for i in range(2 * length)}
    pmem_goals, pmem_expected = [], {}
    for start in inputs.spread(goals, 2 * length):
        members = [elements(i) for i in range(start, start + length)]
        goal = f"pmem(X, [{', '.join(map(str, members))}])"
        pmem_goals.append(goal)
        pmem_expected[goal] = {(x,) for x in members if x in satisfying}

    return [
        ("tc_chain", inputs.TC_LINEAR, {"e": inputs.chain(n, tc_label)}, tc_goals, None),
        ("tc_three_rule", inputs.TC_THREE_RULE, {"e": inputs.chain(n3, tc3_label)}, tc3_goals, None),
        ("same_generation", inputs.SAME_GENERATION, inputs.same_generation_facts(depth, 2, sg_label), sg_goals, None),
        ("pmem", inputs.PMEM, {"p": [(x,) for x in sorted(satisfying)]}, pmem_goals, pmem_expected),
    ]


def _materialize_and_filter(jobs, send) -> None:
    """Send ``{(key, goal): answer rows}`` from a full ``seminaive_eval`` of each program."""
    from repro.datalog.parser import parse_query
    from repro.engine.seminaive import seminaive_eval

    expected = {}
    for key, program, edb, goals in jobs:
        db, _ = seminaive_eval(program, edb)
        for goal in goals:
            expected[(key, goal)] = {
                tuple(getattr(t, "value", t) for t in row)
                for row in db.query(parse_query(goal))
            }
    send.send(expected)
    send.close()


class Workload:
    name = NAME
    tails = (LIGHT_TAIL, HEAVY_TAIL)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.input_sizes = SMOKE if smoke else FULL
        self.goals = 4 if smoke else GOALS_PER_PROGRAM
        self.sizes = dict(self.input_sizes, goals_per_program=self.goals, cold_every=COLD_EVERY)

    def setup(self):
        """Build inputs and warm one compiler per program (one ask per form)."""
        from repro.datalog.parser import parse_program
        from repro.engine.database import Database
        from repro.engine.query import QueryCompiler

        programs = {}
        schedule = []
        for key, text, facts, goals, pmem_expected in _programs(self.seed, self.input_sizes, self.goals):
            edb = Database()
            for relation, rows in facts.items():
                edb.add_facts(relation, rows)
            program = parse_program(text)
            warm = QueryCompiler(program)
            warm.ask(goals[0], edb)
            programs[key] = (program, edb, warm, pmem_expected)
            schedule.extend((key, goal) for goal in goals)
        random.Random(self.seed).shuffle(schedule)
        return {"programs": programs, "schedule": schedule}

    def check_oracle(self, state, outcome: Outcome) -> None:
        """Materialize each program in full and filter every goal out of it.

        The materializations run in a child process, so their memory
        stays out of the peak RSS the asks are measured by.
        """
        expected, jobs = {}, []
        for key, (program, edb, _warm, pmem_expected) in state["programs"].items():
            if pmem_expected is not None:
                expected.update(((key, goal), want) for goal, want in pmem_expected.items())
            else:
                goals = [goal for k, goal in state["schedule"] if k == key]
                jobs.append((key, program, edb, goals))
        fork = multiprocessing.get_context("fork")
        receive, send = fork.Pipe(duplex=False)
        child = fork.Process(target=_materialize_and_filter, args=(jobs, send))
        child.start()
        send.close()
        try:
            expected.update(receive.recv())
        finally:
            receive.close()
            child.join()
        state["expected"] = expected

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        from repro.engine.query import QueryCompiler

        outcome = Outcome()
        programs, schedule, expected = state["programs"], state["schedule"], state["expected"]
        facts_by_goal = {}
        begin = time.perf_counter()
        deadline = begin + seconds
        i = 0
        while time.perf_counter() < deadline:
            key, goal = schedule[i % len(schedule)]
            program, edb, warm, _ = programs[key]
            cold = i % COLD_EVERY == COLD_EVERY - 1
            i += 1
            if tracer is not None:
                tracer.set_request(key)
            outcome.attempted += 1
            start = time.perf_counter()
            compiler = QueryCompiler(program) if cold else warm
            answer = compiler.ask(goal, edb)
            elapsed = time.perf_counter() - start
            outcome.work_seconds += elapsed
            if answer.values() != expected[(key, goal)]:
                outcome.fail(f"{goal}: answers differ from materialize-then-filter")
                elapsed = math.inf
            else:
                outcome.work += 1
            seen = facts_by_goal.setdefault(f"{key}:{goal}", answer.stats.facts)
            if seen != answer.stats.facts:
                outcome.fail(f"{goal}: facts {answer.stats.facts} != {seen} on an earlier ask")
            outcome.sample(cold, (key, goal), elapsed)
        outcome.window = time.perf_counter() - begin
        outcome.counters = {"facts_by_goal": facts_by_goal}
        return outcome

    def close(self, state) -> None:
        pass
