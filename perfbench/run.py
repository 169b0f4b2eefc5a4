"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {bulk_eval,goal_queries,serve_churn} \
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the same workload untraced and then traced, and
reports the per-layer metrics of the traced run plus the tracing
overhead on the workload's headline latency.  Both check every answer
against the workload's oracle.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit); the lines before it print every
metric under the name the workload gives it, with sample counts, and
the environment.  The exit code is 0 only when every operation
succeeded and every answer was correct.  ``--smoke`` shrinks every
input for a quick end-to-end check.

The program is imported from ``src/`` next to this directory; nothing
is installed or built.  Inherited ``REPRO_*`` variables are removed so
every workload runs the defaults a user gets.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk_eval", "goal_queries", "serve_churn")
SETUP_REPEATS = 31


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _median(values):
    from perfbench.stats import percentile

    return percentile(values, 50)


def _counters_agree(a: dict, b: dict) -> bool:
    """Equal on every key both runs recorded (a shorter run may see fewer goals)."""
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if isinstance(x, dict) and isinstance(y, dict):
            if any(x[k] != y[k] for k in x.keys() & y.keys()):
                return False
        elif x != y:
            return False
    return True


def end_to_end(workload, module, outcome, setup_seconds) -> dict:
    """The gated end-to-end metrics; also prints the medians, tails and throughput."""
    from perfbench.stats import fastest, flatten, summarize

    if hasattr(workload, "peak_rss_mb"):
        rss = workload.peak_rss_mb()
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": _median(setup_seconds),
        "peak_rss_mb": rss,
        "light_ms": fastest(outcome.light) * 1000,
        "heavy_ms": fastest(outcome.heavy) * 1000,
    }
    names = module.NAMES
    print(f"setup_s            {values['setup_s']:.6f} s  (median of {len(setup_seconds)} set-ups)")
    print(f"peak_rss_mb        {rss:.3f} MB")
    for cls, samples, tail_q in (
        ("light", outcome.light, workload.tails[0]),
        ("heavy", outcome.heavy, workload.tails[1]),
    ):
        summary = summarize(flatten(samples), tail_q)
        print(
            f"{cls}_ms           {values[cls + '_ms']:.4f} ms  = {names[cls]}: mean over "
            f"{len(samples)} operation(s) of each one's fastest repeat"
        )
        print(f"  not gated: p50 {summary.p50 * 1000:.4f} ms, p{summary.tail_q:g} "
              f"{summary.tail * 1000:.4f} ms ({summary.describe()})")
    for note in outcome.notes:
        print(f"  not gated: {note}")
    rate = outcome.work / outcome.work_seconds if outcome.work_seconds else 0.0
    print(f"  not gated: {names['throughput']}: {rate:.3f} 1/s")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"error_rate         {error_rate:g}  ({outcome.failed}/{outcome.attempted} operations failed)")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import metrics
    from perfbench.outcome import Outcome
    from perfbench.spans import Tracer, install

    module = importlib.import_module(f"perfbench.{args.workload}")
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = module.Workload(args.seed, args.smoke, str(workdir))
    state = None
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            # Each set-up starts from a clean heap, as in a fresh process,
            # instead of paying for the previous repeat's garbage.
            gc.collect()
            begin = time.perf_counter()
            state = workload.setup()
            setup_seconds.append(time.perf_counter() - begin)

        oracle = Outcome()
        workload.check_oracle(state, oracle)
        untraced = workload.run(state, args.seconds)
        runs = [oracle, untraced]
        if args.trace:
            tracer = install(Tracer())
            try:
                traced = workload.run(state, args.seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            if not traced.spans:
                traced.spans = tracer.records()
            runs.append(traced)
            if not _counters_agree(untraced.counters, traced.counters):
                oracle.fail("paper counters differ between the traced and untraced runs")
    finally:
        if state is not None:
            workload.close(state)

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' smoke' if args.smoke else ''}"
    )
    env = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "commit": git_commit(ROOT),
        "journal": "fsync every batch" if args.workload == "serve_churn" else "unused",
        "sizes": workload.sizes,
    }
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for run in runs:
        for problem in run.problems:
            print(f"FAILED: {problem}")

    print("untraced run:")
    values = end_to_end(workload, module, untraced, setup_seconds)
    if args.trace:
        print("traced run:")
        headline = "heavy_ms" if args.workload != "goal_queries" else "light_ms"
        traced_values = end_to_end(workload, module, traced, setup_seconds)
        traced.client["trace.overhead"] = traced_values[headline] / values[headline] - 1
        layer_values = metrics.per_layer(traced.spans, traced.window, traced.client)
        for name, unit in metrics.PER_LAYER:
            print(f"{name:40s} {layer_values[name]:.6g} {unit}")
        report = {name: (layer_values[name], unit) for name, unit in metrics.PER_LAYER}
        trace_file = ROOT / "perfbench" / "_work" / f"spans-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(traced.spans))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        report = {name: (values[name], unit) for name, unit in metrics.END_TO_END}
    shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
