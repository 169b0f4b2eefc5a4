"""How each metric is computed; names and units come from BENCHMARK.json.

End-to-end metrics are reported by every workload from an untraced
run; each workload binds the generic names to its own operations (its
module's ``NAMES`` and README.md).  Per-layer metrics come from the spans
of a traced run plus a few client-side measurements; a layer a workload
does not touch reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from perfbench.spans import children_seconds, duration, layer_self_seconds
from perfbench.stats import percentile

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit) of every metric, as BENCHMARK.json lists them.
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

BULK_PROGRAMS = ("tc_chain", "same_generation", "wide_dag", "skewed_fanout")

LAYERS = (
    "datalog", "rewrite", "query", "seminaive",
    "incremental", "journal", "database", "server",
)

#: The client-side per-layer metrics a workload may supply itself.
CLIENT_SIDE = (
    "journal.bytes_per_update_byte",
    "server.read_wait_ms",
    "wire.read_overhead_ms",
    "loadgen.late_ms.p99",
    "trace.overhead",
)


def _median_ms(seconds: List[float]) -> float:
    return percentile(seconds, 50) * 1000 if seconds else 0.0


def _pct_ms(seconds: List[float], q: float) -> float:
    return percentile(seconds, q) * 1000 if seconds else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: List[dict], window: float, client: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``spans`` are the run's spans (in-process or read back from the
    server), already restricted to the measured window of ``window``
    seconds; ``client`` holds the :data:`CLIENT_SIDE` values the
    workload measured itself (missing ones are 0: idle there).
    """
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for s in spans:
        if not s["attrs"].get("error"):
            by_name[s["name"]].append(s)
    out: Dict[str, float] = {}

    evals = by_name["seminaive.eval"]
    for program in BULK_PROGRAMS:
        out[f"seminaive.eval_ms.{program}"] = _median_ms(
            [duration(s) for s in evals if s["request"] == program]
        )
    full = [s["attrs"] for s in evals if s["request"] in BULK_PROGRAMS]
    facts = sum(a["facts"] for a in full)
    out["seminaive.probes_per_fact"] = _ratio(sum(a["probes"] for a in full), facts)
    hits = sum(a["plan_cache_hits"] for a in full)
    out["seminaive.plan_cache_hit_ratio"] = _ratio(
        hits, hits + sum(a["plans_compiled"] for a in full)
    )
    out["seminaive.inferences_per_fact"] = _ratio(
        sum(a["inferences"] for a in full), facts
    )

    asks = by_name["query.ask"]
    compiling = children_seconds(spans, "query.ask", "query.compile")
    out["query.compile_ms"] = _median_ms([duration(s) for s in by_name["query.compile"]])
    out["query.eval_ms"] = _median_ms(
        [duration(s) - compiling.get(s["id"], 0.0) for s in asks]
    )
    out["query.probes_per_answer"] = _ratio(
        sum(s["attrs"]["probes"] for s in asks),
        sum(s["attrs"]["answers"] for s in asks),
    )
    first_facts: Dict[tuple, int] = {}
    for s in sorted(asks, key=lambda s: s["start"]):
        first_facts.setdefault((s["request"], s["attrs"]["goal"]), s["attrs"]["facts"])
    out["query.facts_per_ask"] = _ratio(sum(first_facts.values()), len(first_facts))
    out["query.cache_hit_ratio"] = _ratio(
        sum(1 for s in asks if s["attrs"]["from_cache"]), len(asks)
    )
    for strategy in ("factored", "magic", "counting"):
        out[f"query.strategy_share.{strategy}"] = _ratio(
            sum(1 for s in asks if s["attrs"]["strategy"].split("->")[-1] == strategy),
            len(asks),
        )
    out["datalog.parse_query_ms"] = _median_ms(
        [duration(s) for s in by_name["datalog.parse_query"]]
    )

    commits = by_name["server.apply_batch"]
    batch = [duration(s) for s in commits]
    out["server.apply_batch_ms.p50"] = _median_ms(batch)
    out["server.apply_batch_ms.p99"] = _pct_ms(batch, 99)
    maintenance = by_name["incremental.apply_batch"]
    passes = [duration(s) for s in maintenance]
    out["incremental.apply_batch_ms.p50"] = _median_ms(passes)
    out["incremental.apply_batch_ms.p99"] = _pct_ms(passes, 99)
    out["incremental.rederived_per_commit"] = _ratio(
        sum(s["attrs"]["rederived"] for s in maintenance), len(commits)
    )
    out["incremental.incr_rounds_per_commit"] = _ratio(
        sum(s["attrs"]["incr_rounds"] for s in maintenance), len(commits)
    )
    appends = [duration(s) for s in by_name["journal.append"]]
    out["journal.append_ms.p50"] = _median_ms(appends)
    out["journal.append_ms.p99"] = _pct_ms(appends, 99)
    out["journal.checkpoint_ms"] = _median_ms(
        [duration(s) for s in by_name["journal.checkpoint"]]
    )

    out["database.pin_ms"] = _median_ms([duration(s) for s in by_name["database.pin"]])
    writes = {
        s["request"] for s in by_name["server.handle_line"] if s["attrs"]["kind"] in "+-"
    }
    copies = [s for s in by_name["database.copy"] if s["request"] in writes]
    out["database.copy_rows_per_commit"] = _ratio(
        sum(s["attrs"]["rows"] for s in copies), len(commits)
    )
    out["database.copy_ms_per_commit"] = 1000 * _ratio(
        sum(duration(s) for s in copies), len(commits)
    )
    out["database.remove_facts_ms_per_commit"] = 1000 * _ratio(
        sum(duration(s) for s in by_name["database.remove_facts"] if s["request"] in writes),
        len(commits),
    )

    reads = [duration(s) for s in by_name["server.query_goal"]]
    out["server.query_goal_ms.p50"] = _median_ms(reads)
    out["server.query_goal_ms.p99"] = _pct_ms(reads, 99)
    out["server.view_age_ms"] = _median_ms(
        [s["attrs"]["view_age"] for s in by_name["server.query_goal"]]
    )
    out["server.handle_line_ms"] = _median_ms(
        [duration(s) for s in by_name["server.handle_line"] if s["attrs"]["kind"] == "?"]
    )

    for name in CLIENT_SIDE:
        out[name] = client.get(name, 0.0)

    busy = layer_self_seconds(spans)
    for layer in LAYERS:
        out[f"self_share.{layer}"] = 100 * _ratio(busy.get(layer, 0.0), window)
    return out
