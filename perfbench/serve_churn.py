"""serve_churn: reads beside journaled writes against ``repro serve``.

The server is a ``repro serve --workers 2 --journal J --checkpoint-every K``
subprocess (through ``serve_launcher.py``) over the churn graph: ``N``
vertices in ``WIDTH`` blocks, each a chain with a skip edge every third
vertex, under linear transitive closure.  The journal fsyncs every
batch.

One generator thread holds two connections, one for reads and one for
writes.  Writes are small ``+``/``-`` batches cycling through ``groups``
net-zero groups (delete ``batch_size`` edges, then re-insert them one
per batch) in a seeded order, so the graph is back in its base state
after every group.  Reads are ``? t(c, Y)`` point queries.  A run has two
halves:

* alone: one request at a time, each batch followed by one read, so
  every operation has the server to itself.  These round trips are the
  gated latencies: each operation's fastest repeat is its cost.
* under load: reads sent open-loop at ``read_rate`` per second,
  pipelined, each timed from when it was due, beside a closed loop of
  batches.  A read waits for the writer to hand over the interpreter
  lock and a commit shares it with the reads, so these latencies depend
  on the host's load from minute to minute, by more than the bounds;
  they are printed, feed the per-layer metrics of a traced run, and
  exercise prefix consistency.

Reads cycle through ``read_sources`` evenly spaced vertices in a seeded
order, so every source, like every batch, repeats many times in a run.

Oracles: a read sent alone must equal the from-scratch closure of the
batches acknowledged before it.  A read under load must equal that of
some committed prefix of the batch history: one between the batches
acknowledged before the read was sent and the batches sent before its
answer arrived (prefix consistency).  After the last group the served
EDB and closure must equal the base state.  ``error:`` lines, timeouts and
closed connections count as failed operations.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from perfbench import inputs
from perfbench.outcome import Outcome
from perfbench.stats import OpenLoop, latency_from_due, lateness, percentile, summarize

NAME = "serve_churn"
LIGHT_TAIL, HEAVY_TAIL = 99, 95

FULL = {"n": 120, "width": 6, "read_rate": 150.0, "read_sources": 20, "groups": 8, "batch_size": 2,
        "checkpoint_every": 25}
SMOKE = {"n": 36, "width": 3, "read_rate": 40.0, "read_sources": 12, "groups": 4, "batch_size": 2,
         "checkpoint_every": 2}

START_TIMEOUT = 60.0
REPLY_TIMEOUT = 10.0
SERVER_WORKERS = 2

NAMES = {
    "throughput": "commits_per_s (acknowledged batches per second under the read load)",
    "light": "read alone (from sending a query to its status line)",
    "heavy": "commit alone (from sending a batch to its ok line)",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Server:
    """One running ``repro serve`` subprocess."""

    def __init__(self, workdir: Path, tag: str, sizes: dict, trace_out: Optional[Path]):
        self.journal = workdir / f"{tag}.journal"
        self.log = workdir / f"{tag}.log"
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += [
            "serve", str(workdir / "program.dl"),
            "--facts", str(workdir / "facts.dl"),
            "--workers", str(SERVER_WORKERS),
            "--journal", str(self.journal),
            "--checkpoint-every", str(sizes["checkpoint_every"]),
            "--port", "0",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=env)
        try:
            self.address = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("listening on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError(f"server did not start; see {self.log}")

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it hangs.

        Not SIGINT: the socket front's graceful shutdown waits up to 5 s
        for its accept thread, which would land in every run's wall time.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Lines:
    """Splits one connection's byte stream into protocol lines."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""

    def feed(self) -> Optional[List[str]]:
        """Lines completed by one ``recv``; ``None`` once the peer closed."""
        data = self.sock.recv(1 << 16)
        if not data:
            return None
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return [line.decode() for line in lines]

    def reply(self) -> Tuple[str, List[str]]:
        """The status line and payload of the one request in flight."""
        payload: List[str] = []
        while True:
            got = self.feed()
            if got is None:
                raise ConnectionError("server closed a connection")
            for line in got:
                if line.startswith("= "):
                    payload.append(line[2:])
                else:
                    return line, payload


def _batch_line(op: str, edges) -> str:
    return f"{op} " + " ".join(f"e({a}, {b})." for a, b in edges) + "\n"


def _closure_from(adjacency: Dict[int, Set[int]], source: int) -> Set[int]:
    seen: Set[int] = set()
    stack = list(adjacency.get(source, ()))
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacency.get(v, ()))
    return seen


class Workload:
    name = NAME
    tails = (LIGHT_TAIL, HEAVY_TAIL)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.sizes = dict(SMOKE if smoke else FULL)
        self.workdir = Path(workdir)
        self._starts = 0
        rng = random.Random(seed)
        n, width = self.sizes["n"], self.sizes["width"]
        label = inputs.Labels(rng, n)
        base = inputs.churn_base_edges(n, width)
        groups = inputs.churn_triples(base, self.sizes["groups"], self.sizes["batch_size"])
        rng.shuffle(groups)
        self.base = [(label(a), label(b)) for a, b in base]
        self.cycle = [
            (op, [(label(a), label(b)) for a, b in edges]) for group in groups for op, edges in group
        ]
        self.group_size = self.sizes["batch_size"] + 1
        vertices = inputs.spread(self.sizes["read_sources"], width * (n // width))
        rng.shuffle(vertices)
        self.read_sources = [label(v) for v in vertices]

    # -- set-up ---------------------------------------------------------

    def _start(self, trace_out: Optional[Path] = None) -> Server:
        self._starts += 1
        return Server(self.workdir, f"server{self._starts}", self.sizes, trace_out)

    def setup(self):
        """Write the program and facts, start the server, wait for ``listening on``."""
        (self.workdir / "program.dl").write_text(inputs.TC_LINEAR)
        (self.workdir / "facts.dl").write_text(inputs.fact_text("e", self.base))
        return {"server": self._start()}

    def check_oracle(self, state, outcome: Outcome) -> None:
        """Edge sets of every prefix state of the batch cycle (closures are lazy)."""
        states = []
        live = set(self.base)
        for op, edges in self.cycle:
            states.append(frozenset(live))
            (live.update if op == "+" else live.difference_update)(edges)
        if live != set(self.base):
            outcome.fail("the update cycle is not net-zero")
        state["states"] = states
        state["closures"] = {}

    def _expected(self, state, position: int, source: int) -> Set[int]:
        key = (position, source)
        closures = state["closures"]
        if key not in closures:
            adjacency: Dict[int, Set[int]] = {}
            for a, b in state["states"][position]:
                adjacency.setdefault(a, set()).add(b)
            closures[key] = _closure_from(adjacency, source)
        return closures[key]

    # -- the measured run -------------------------------------------------

    def run(self, state, seconds: float, tracer=None) -> Outcome:
        """Drive the server; ``tracer`` only asks for a traced server.

        The traced server is a fresh subprocess with the span wrappers
        installed; its spans are read back after it exits.
        """
        outcome = Outcome()
        trace_out = None
        server = state.pop("server", None)
        if tracer is not None or server is None:
            if server is not None:
                server.stop()
            trace_out = self.workdir / f"spans-{self._starts + 1}.json" if tracer is not None else None
            server = self._start(trace_out)
        try:
            begin, end, update_bytes, reads = self._drive(state, server, seconds, outcome)
        finally:
            server.stop()
        outcome.client["journal.bytes_per_update_byte"] = (
            server.journal.stat().st_size / max(1, update_bytes)
        )
        if trace_out is not None:
            spans = json.loads(trace_out.read_text())
            outcome.spans = [s for s in spans if begin <= s["start"] <= end]
            self._client_layers(outcome, *reads)
        return outcome

    def _alone(self, state, read_lines: Lines, write_lines: Lines, seconds: float,
               outcome: Outcome) -> Tuple[int, int]:
        """One request at a time: each batch, then one read.

        Stops on a group boundary; returns the batches sent and their bytes.
        """
        cycle, sources = self.cycle, self.read_sources
        end = time.monotonic() + seconds
        batches = update_bytes = 0
        while time.monotonic() < end or batches % self.group_size:
            position = batches % len(cycle)
            line = _batch_line(*cycle[position])
            update_bytes += len(line)
            start = time.monotonic()
            write_lines.sock.sendall(line.encode())
            status, _ = write_lines.reply()
            elapsed = time.monotonic() - start
            batches += 1
            outcome.attempted += 1
            if not status.startswith("ok"):
                outcome.fail(f"batch {batches}: {status}")
                elapsed = math.inf
            outcome.sample(True, position, elapsed)

            source = sources[batches % len(sources)]
            start = time.monotonic()
            read_lines.sock.sendall(f"? t({source}, Y)\n".encode())
            status, payload = read_lines.reply()
            elapsed = time.monotonic() - start
            outcome.attempted += 1
            if not status.startswith("ok"):
                outcome.fail(f"read t({source}, Y) after batch {batches}: {status}")
                elapsed = math.inf
            elif {int(v) for v in payload} != self._expected(state, batches % len(cycle), source):
                outcome.fail(f"read t({source}, Y) after batch {batches}: answer differs")
                elapsed = math.inf
            outcome.sample(False, source, elapsed)
        return batches, update_bytes

    def _drive(self, state, server: Server, seconds: float, outcome: Outcome):
        sizes = self.sizes
        cycle, sources = self.cycle, self.read_sources
        due: List[float] = []
        sent: List[float] = []
        done: List[Optional[float]] = []
        read_source: List[int] = []
        acked_at_send: List[int] = []
        pending = deque()
        payload: List[str] = []
        batches_sent = acked = 0
        write_started: Optional[float] = None
        commits: List[float] = []
        update_bytes = 0
        commits_in_window = 0

        half = seconds / 2
        begin = end = time.monotonic()
        give_up = None
        reader = writer = None
        sel = selectors.DefaultSelector()
        try:
            reader = socket.create_connection(server.address, timeout=REPLY_TIMEOUT)
            writer = socket.create_connection(server.address, timeout=REPLY_TIMEOUT)
            read_lines, write_lines = Lines(reader), Lines(writer)
            batches_sent, update_bytes = self._alone(state, read_lines, write_lines, half, outcome)
            acked = batches_sent

            begin = time.monotonic() + 0.05
            end = begin + half
            schedule = OpenLoop(begin, sizes["read_rate"])
            sel.register(reader, selectors.EVENT_READ, read_lines)
            sel.register(writer, selectors.EVENT_READ, write_lines)
            while True:
                now = time.monotonic()
                while now < end and schedule.due(len(due)) <= now:
                    i = len(due)
                    source = sources[i % len(sources)]
                    due.append(schedule.due(i))
                    read_source.append(source)
                    acked_at_send.append(acked)
                    reader.sendall(f"? t({source}, Y)\n".encode())
                    sent.append(time.monotonic())
                    done.append(None)
                    pending.append(i)
                    now = time.monotonic()
                mid_group = batches_sent % self.group_size != 0
                if write_started is None and (now < end or mid_group):
                    line = _batch_line(*cycle[batches_sent % len(cycle)])
                    update_bytes += len(line)
                    write_started = time.monotonic()
                    writer.sendall(line.encode())
                    batches_sent += 1
                if now >= end and write_started is None and not pending:
                    break
                if now >= end:
                    give_up = give_up or now + REPLY_TIMEOUT
                    if now >= give_up:
                        break
                    timeout = 0.05
                else:
                    timeout = max(0.0, min(schedule.due(len(due)), end) - now)
                for key, _ in sel.select(timeout):
                    lines = key.data.feed()
                    arrived = time.monotonic()
                    if lines is None:
                        raise ConnectionError("server closed a connection")
                    for line in lines:
                        if key.data is write_lines:
                            outcome.attempted += 1
                            if line.startswith("ok"):
                                acked += 1
                                if write_started < end:
                                    commits.append(arrived - write_started)
                                    commits_in_window += arrived <= end
                            else:
                                outcome.fail(f"batch {batches_sent}: {line}")
                                commits.append(math.inf)
                            write_started = None
                        elif line.startswith("= "):
                            payload.append(line[2:])
                        else:
                            i = pending.popleft()
                            done[i] = arrived
                            outcome.attempted += 1
                            if not line.startswith("ok"):
                                outcome.fail(f"read {i}: {line}")
                            else:
                                answers = {int(v) for v in payload}
                                low, high = acked_at_send[i], batches_sent
                                if not any(
                                    answers == self._expected(state, j % len(cycle), read_source[i])
                                    for j in range(low, high + 1)
                                ):
                                    outcome.fail(
                                        f"read {i} t({read_source[i]}, Y): answer matches no "
                                        f"committed prefix in [{low}, {high}]"
                                    )
                                    done[i] = None
                            payload = []
        except OSError as exc:
            # A refused or closed connection or a timeout fails as one
            # operation; every read still pending and the batch in
            # flight fail below.
            outcome.attempted += 1
            outcome.fail(f"connection: {exc!r}")
        finally:
            sel.close()
        for i in pending:
            outcome.attempted += 1
            outcome.fail(f"read {i}: no answer")
        if write_started is not None:
            outcome.attempted += 1
            outcome.fail(f"batch {batches_sent}: no ok")
            commits.append(math.inf)

        reads = [latency_from_due(due_i, d) for due_i, d in zip(due, done)]
        for what, latencies, tail_q in (("read", reads, LIGHT_TAIL), ("commit", commits, HEAVY_TAIL)):
            if latencies:
                summary = summarize(latencies, tail_q)
                outcome.notes.append(
                    f"under load: {what} p50 {summary.p50 * 1000:.4f} ms, p{tail_q:g} "
                    f"{summary.tail * 1000:.4f} ms ({summary.describe()})"
                )
        outcome.work = commits_in_window
        outcome.work_seconds = half
        outcome.window = half
        if writer is not None:
            self._final_state_check(writer, outcome)
        for sock in (reader, writer):
            if sock is None:
                continue
            try:
                sock.sendall(b"quit\n")
            except OSError:
                pass
            sock.close()
        return begin, end, update_bytes, (due, sent, done)

    def _final_state_check(self, sock: socket.socket, outcome: Outcome) -> None:
        """After whole net-zero groups the served state is the base state."""
        adjacency: Dict[int, Set[int]] = {}
        for a, b in self.base:
            adjacency.setdefault(a, set()).add(b)
        closure = {(a, b) for a in adjacency for b in _closure_from(adjacency, a)}
        lines = Lines(sock)
        for goal, expected in (("e(X, Y)", set(self.base)), ("t(X, Y)", closure)):
            outcome.attempted += 1
            try:
                sock.sendall(f"? {goal}\n".encode())
                status, payload = lines.reply()
            except OSError as exc:
                status, payload = repr(exc), []
            rows = {tuple(int(v) for v in row.split("\t")) for row in payload}
            if not status.startswith("ok") or rows != expected:
                outcome.fail(f"final {goal}: served state differs from the base state ({status})")

    def _client_layers(self, outcome: Outcome, due, sent, done) -> None:
        """Per-layer numbers that need both the client's and the server's clock.

        ``time.monotonic`` is one system-wide clock on Linux, so the
        server's span times and the client's due/send times compare.
        """
        handled = sorted(
            (s for s in outcome.spans if s["name"] == "server.handle_line" and s["attrs"]["kind"] == "?"),
            key=lambda s: s["start"],
        )[: len(due)]
        waits, overheads = [], []
        for i, span in enumerate(handled):
            waits.append(span["start"] - due[i])
            if done[i] is not None:
                overheads.append((done[i] - sent[i]) - (span["end"] - span["start"]))
        late = lateness(due, sent)
        outcome.client.update({
            "server.read_wait_ms": percentile(waits, 50) * 1000 if waits else 0.0,
            "wire.read_overhead_ms": percentile(overheads, 50) * 1000 if overheads else 0.0,
            "loadgen.late_ms.p99": percentile(late, 99) * 1000 if late else 0.0,
        })

    def close(self, state) -> None:
        server = state.pop("server", None)
        if server is not None:
            server.stop()

    @staticmethod
    def peak_rss_mb() -> float:
        """Peak RSS of the largest server subprocess (all have exited)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
