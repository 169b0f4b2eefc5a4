"""Timing spans around calls into the program's layers.

The program itself carries no tracing, so :func:`install` wraps the
public functions and methods at each layer boundary from here and
:func:`uninstall` puts the originals back.  A span records its name,
layer, start, end, parent span and request id, plus a few counters read
from the call's result (``EvalStats``, ``QueryAnswer``).  Spans stay in
memory; the caller writes them out when the run ends.

Layers (module names under ``src/repro``) and what is wrapped in each:

* ``datalog``: ``parse_query``;
* ``rewrite``: ``engine.query.CompiledQuery`` construction (adorn, Magic
  Sets, classify, factor, simplify from ``core``/``analysis``/``transforms``);
* ``query``: ``QueryCompiler.ask`` (the compiled-form cache);
* ``seminaive``: ``seminaive_eval`` and ``CompiledQuery.ask``, the fixpoint
  kernel with the scheduler, plans and columnar execution beneath it;
* ``incremental``: ``IncrementalSession.apply_batch``;
* ``journal``: ``Journal.append_batch`` and ``Journal.append_checkpoint``;
* ``database``: ``Database.pin``, ``Relation.copy``, ``Relation.remove_facts``;
* ``server``: ``DatalogServer.apply_batch``, ``DatalogServer.query_goal``
  and ``handle_line``.

The wire layer (``SocketFront`` framing and transport) is measured from
the client as round trip minus ``handle_line``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

class Tracer:
    """Records spans from any thread into one in-memory list."""

    def __init__(self):
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._patches = []

    # -- request context ----------------------------------------------

    def set_request(self, request) -> None:
        """Tag the spans this thread opens from now on with ``request``."""
        self._local.request = request

    def new_request(self) -> int:
        rid = next(self._requests)
        self._local.request = rid
        return rid

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        opens_request: bool = False,
    ) -> Callable:
        """``func`` recording one span per call.

        ``before(args)`` and ``after(result, args)`` return dicts of
        span attributes; ``opens_request`` starts a fresh request id
        (one per served command line).
        """
        tracer = self
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if opens_request:
                tracer.new_request()
            attrs = before(args) if before is not None else {}
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = time.monotonic()
                stack.pop()
                attrs["error"] = True
                tracer._record(sid, name, parent, start, end, layer, attrs)
                raise
            end = time.monotonic()
            stack.pop()
            if after is not None:
                attrs.update(after(result, args))
            tracer._record(sid, name, parent, start, end, layer, attrs)
            return result

        return traced

    def _record(self, sid, name, parent, start, end, layer, attrs) -> None:
        request = getattr(self._local, "request", None)
        with self._lock:
            self.spans.append([sid, name, parent, start, end, request, layer, attrs])

    def patch_function(self, module_name: str, attr: str, name: str, layer: str, **kw):
        """Wrap a module-level function here and wherever it was imported by name."""
        home = sys.modules[module_name]
        original = getattr(home, attr)
        traced = self.wrap(original, name, layer, **kw)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                self._patches.append((module, attr, original))

    def patch_method(self, cls, attr: str, name: str, layer: str, **kw):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, layer, **kw))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function and method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def records(self) -> List[dict]:
        """Spans as dicts, in completion order."""
        with self._lock:
            spans = list(self.spans)
        return [
            {
                "id": s[0], "name": s[1], "parent": s[2], "start": s[3],
                "end": s[4], "request": s[5], "layer": s[6], "attrs": s[7],
            }
            for s in spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def _eval_attrs(result, args):
    _db, stats = result
    return {
        "facts": stats.facts,
        "inferences": stats.inferences,
        "probes": stats.probes,
        "plan_cache_hits": stats.plan_cache_hits,
        "plans_compiled": stats.plans_compiled,
    }


def _answer_attrs(answer, args):
    return {
        "strategy": answer.strategy,
        "from_cache": answer.from_cache,
        "facts": answer.stats.facts,
        "probes": answer.stats.probes,
        "answers": len(answer.answers),
        "goal": str(answer.goal),
    }


def _maintenance_attrs(stats, args):
    return {"rederived": stats.rederived, "incr_rounds": stats.incr_rounds}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.engine.server  # noqa: F401  (import before patching by name)
    from repro.engine.database import Database, Relation
    from repro.engine.incremental import IncrementalSession
    from repro.engine.journal import Journal
    from repro.engine.query import CompiledQuery, QueryCompiler
    from repro.engine.server import DatalogServer

    tracer.patch_function("repro.datalog.parser", "parse_query", "datalog.parse_query", "datalog")
    tracer.patch_function(
        "repro.engine.seminaive", "seminaive_eval", "seminaive.eval", "seminaive",
        after=_eval_attrs,
    )
    tracer.patch_function(
        "repro.engine.server", "handle_line", "server.handle_line", "server",
        before=lambda args: {"kind": args[1].strip()[:1]}, opens_request=True,
    )
    tracer.patch_method(CompiledQuery, "__init__", "query.compile", "rewrite")
    tracer.patch_method(CompiledQuery, "ask", "query.cone_eval", "seminaive")
    tracer.patch_method(QueryCompiler, "ask", "query.ask", "query", after=_answer_attrs)
    tracer.patch_method(
        IncrementalSession, "apply_batch", "incremental.apply_batch", "incremental",
        after=_maintenance_attrs,
    )
    tracer.patch_method(Journal, "append_batch", "journal.append", "journal")
    tracer.patch_method(Journal, "append_checkpoint", "journal.checkpoint", "journal")
    tracer.patch_method(Database, "pin", "database.pin", "database")
    tracer.patch_method(
        Relation, "copy", "database.copy", "database",
        after=lambda rel, args: {"rows": len(rel)},
    )
    tracer.patch_method(Relation, "remove_facts", "database.remove_facts", "database")
    tracer.patch_method(DatalogServer, "apply_batch", "server.apply_batch", "server")
    tracer.patch_method(
        DatalogServer, "query_goal", "server.query_goal", "server",
        before=lambda args: {"view_age": args[0].snapshot_age()},
    )
    return tracer


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children run on their parent's thread, inside its interval and one
    after another, so their durations add without overlap.
    """
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def layer_self_seconds(spans: List[dict]) -> Dict[str, float]:
    """Total self time per layer."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["layer"]] += own[s["id"]]
    return dict(out)


def children_seconds(spans: List[dict], parent_name: str, child_name: str) -> Dict[int, float]:
    """For each ``parent_name`` span, the time its ``child_name`` descendants took."""
    by_id = {s["id"]: s for s in spans}
    out = {s["id"]: 0.0 for s in spans if s["name"] == parent_name}
    for s in spans:
        if s["name"] != child_name:
            continue
        up = by_id.get(s["parent"])
        while up is not None and up["name"] != parent_name:
            up = by_id.get(up["parent"])
        if up is not None:
            out[up["id"]] += duration(s)
    return out
