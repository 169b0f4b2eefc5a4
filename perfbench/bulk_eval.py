"""bulk_eval: from-scratch ``seminaive_eval`` of four programs, pass after pass.

A *pass* evaluates tc_chain, same_generation, wide_dag and
skewed_fanout once each, at default knobs.  Heavy operations are passes
at full size, where the kernel, planner and database do nearly all the
work; light operations are passes over small instances of the same
programs, where per-call fixed costs (plan compilation, scheduling,
database set-up) dominate.  Rewrite, query cache, maintenance, journal
and server stay idle.

Oracles: every evaluation's ``facts``/``inferences`` must equal the
values pinned by the set-up pass, and at the small size each program's
fixpoint must equal ``naive_fixpoint_reference``.
"""

from __future__ import annotations

import math
import random
import time

from perfbench import inputs
from perfbench.outcome import Outcome

NAME = "bulk_eval"
LIGHT_TAIL, HEAVY_TAIL = 95, 90
LIGHT_PER_HEAVY = 4

#: Input sizes: (tc chain vertices, same_generation depth, wide_dag
#: (width, length), skewed_fanout sources).
FULL = {"tc_chain": 200, "same_generation": 7, "wide_dag": (4, 60), "skewed_fanout": 10}
SMALL = {"tc_chain": 30, "same_generation": 4, "wide_dag": (4, 8), "skewed_fanout": 2}
SMOKE_FULL = {"tc_chain": 40, "same_generation": 4, "wide_dag": (2, 10), "skewed_fanout": 2}
SMOKE_SMALL = {"tc_chain": 8, "same_generation": 2, "wide_dag": (2, 3), "skewed_fanout": 1}

#: What the generic metric names mean on this workload.
NAMES = {
    "throughput": "eval_facts_per_s (derived facts per second of full-size passes)",
    "light": "small_pass (one pass over the small instances)",
    "heavy": "full_pass (one pass over the full-size instances)",
}


def _texts(seed: int, sizes: dict):
    """(program name, program text, facts) for every program, from ``seed``."""
    rng = random.Random(seed)
    n = sizes["tc_chain"]
    depth = sizes["same_generation"]
    width, length = sizes["wide_dag"]
    return [
        ("tc_chain", inputs.TC_LINEAR, {"e": inputs.chain(n, inputs.Labels(rng, n))}),
        (
            "same_generation",
            inputs.SAME_GENERATION,
            inputs.same_generation_facts(depth, 2, inputs.Labels(rng, 2 ** (depth + 1))),
        ),
        (
            "wide_dag",
            inputs.wide_dag_text(width),
            inputs.wide_dag_facts(width, length, inputs.Labels(rng, width * (length + 1))),
        ),
        (
            "skewed_fanout",
            inputs.SKEWED_FANOUT,
            inputs.skewed_fanout_facts(sizes["skewed_fanout"], rng),
        ),
    ]


class Workload:
    name = NAME
    tails = (LIGHT_TAIL, HEAVY_TAIL)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.full_sizes = SMOKE_FULL if smoke else FULL
        self.small_sizes = SMOKE_SMALL if smoke else SMALL
        self.sizes = {"full": self.full_sizes, "small": self.small_sizes}

    def _instances(self, sizes):
        from repro.datalog.parser import parse_program
        from repro.engine.database import Database

        out = []
        for name, text, facts in _texts(self.seed, sizes):
            edb = Database()
            for relation, rows in facts.items():
                edb.add_facts(relation, rows)
            out.append((name, parse_program(text), edb))
        return out

    def setup(self):
        """Generate inputs and run the first pass, pinning its counters."""
        from repro.engine import seminaive

        state = {"full": self._instances(self.full_sizes), "small": self._instances(self.small_sizes)}
        pinned, small_dbs = {}, {}
        for size in ("full", "small"):
            for name, program, edb in state[size]:
                db, stats = seminaive.seminaive_eval(program, edb)
                pinned[(size, name)] = (stats.facts, stats.inferences)
                if size == "small":
                    small_dbs[name] = db
        state["pinned"] = pinned
        state["small_dbs"] = small_dbs
        return state

    def check_oracle(self, state, outcome: Outcome) -> None:
        """The small-size fixpoints must equal the scheduler-free reference."""
        from repro.engine.naive import naive_fixpoint_reference

        for name, program, edb in state["small"]:
            outcome.attempted += 1
            reference, _ = naive_fixpoint_reference(program, edb)
            if reference != state["small_dbs"][name]:
                outcome.fail(f"{name}: seminaive fixpoint differs from naive_fixpoint_reference")

    def _pass(self, state, size, outcome, tracer) -> float:
        from repro.engine import seminaive

        suffix = "" if size == "full" else "@small"
        facts = 0
        begin = time.perf_counter()
        for name, program, edb in state[size]:
            if tracer is not None:
                tracer.set_request(name + suffix)
            _db, stats = seminaive.seminaive_eval(program, edb)
            outcome.attempted += 1
            got = (stats.facts, stats.inferences)
            if got != state["pinned"][(size, name)]:
                outcome.fail(f"{name}{suffix}: facts/inferences {got} != pinned {state['pinned'][(size, name)]}")
                return math.inf
            outcome.counters[f"{size}/{name}"] = got
            facts += stats.facts
        elapsed = time.perf_counter() - begin
        if size == "full":
            outcome.work += facts
            outcome.work_seconds += elapsed
        return elapsed

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        begin = time.perf_counter()
        deadline = begin + seconds
        while time.perf_counter() < deadline:
            outcome.sample(True, "full_pass", self._pass(state, "full", outcome, tracer))
            for _ in range(LIGHT_PER_HEAVY):
                outcome.sample(False, "small_pass", self._pass(state, "small", outcome, tracer))
        outcome.window = time.perf_counter() - begin
        return outcome

    def close(self, state) -> None:
        pass
