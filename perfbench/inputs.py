"""Seeded input generators for the benchmark workloads.

The benchmark owns its inputs: programs are Datalog text and base facts
are plain rows, generated here from the workload seed, so a change to
the program's own workload helpers cannot silently change what the
benchmark measures.  A seed relabels vertices and orders the operations;
it never changes the shape or size of an input or which operations a
run repeats, so the work per run is the same for every seed and
run-to-run spread measures the system, not the draw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

Row = Tuple
Facts = Dict[str, List[Row]]

TC_LINEAR = """
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
"""

#: Example 1.1: transitive closure written with all three rule forms.
TC_THREE_RULE = """
t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
"""

SAME_GENERATION = """
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
sg(X, Y) :- flat(X, Y).
"""

#: Example 1.2: list membership filtered by ``p``.
PMEM = """
pmem(X, [X | T]) :- p(X).
pmem(X, [H | T]) :- pmem(X, T).
"""

SKEWED_FANOUT = "out(X, Z) :- fan(X, Y), burst(Y, Z), sel(Z).\n"


def wide_dag_text(width: int) -> str:
    lines = []
    for i in range(width):
        lines.append(f"t{i}(X, Y) :- e{i}(X, Y).")
        lines.append(f"t{i}(X, Y) :- e{i}(X, W), t{i}(W, Y).")
        lines.append(f"reach(X, Y) :- t{i}(X, Y).")
    return "\n".join(lines) + "\n"


class Labels:
    """A seeded injective relabelling of vertex numbers.

    Vertex ``i`` becomes a distinct integer drawn from a range ten
    times the vertex count, so each seed interns and hashes different
    constants while every graph keeps its shape.
    """

    def __init__(self, rng: random.Random, count: int):
        self._map = rng.sample(range(10 * count + 10), count)

    def __call__(self, vertex: int) -> int:
        return self._map[vertex]


# ----------------------------------------------------------------------
# Graph shapes
# ----------------------------------------------------------------------

def chain(n: int, label: Labels) -> List[Row]:
    """A path over ``n`` vertices."""
    return [(label(i), label(i + 1)) for i in range(n - 1)]


def tree(depth: int, branching: int) -> Tuple[List[Row], int]:
    """``(child, parent)`` edges of a balanced tree, numbered breadth-first."""
    edges = []
    frontier, next_id = [0], 1
    for _ in range(depth):
        grown = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((next_id, parent))
                grown.append(next_id)
                next_id += 1
        frontier = grown
    return edges, next_id


def same_generation_facts(depth: int, branching: int, label: Labels) -> Facts:
    """A tree with ``flat`` links between consecutive siblings."""
    edges, _ = tree(depth, branching)
    children: Dict[int, List[int]] = {}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)
    flat = [
        (label(a), label(b))
        for kids in children.values()
        for a, b in zip(kids, kids[1:])
    ]
    return {
        "up": [(label(c), label(p)) for c, p in edges],
        "down": [(label(p), label(c)) for c, p in edges],
        "flat": flat,
    }


def wide_dag_facts(width: int, length: int, label: Labels) -> Facts:
    """One private ``length``-edge chain per component."""
    facts: Facts = {}
    for i in range(width):
        base = i * (length + 1)
        facts[f"e{i}"] = [
            (label(base + j), label(base + j + 1)) for j in range(length)
        ]
    return facts


def skewed_fanout_facts(
    sources: int,
    rng: random.Random,
    fanout: int = 20,
    burst: int = 50,
    hot: int = 997,
    selected: int = 50,
    sharing: int = 5,
) -> Facts:
    """The skewed three-way join: hot sinks plus a few selected cold ones.

    Greedy join order drives from ``fan`` and enumerates every
    ``fan ⋈ burst`` row before ``sel`` prunes nearly all of them.
    """
    hubs = max(1, (sources * fanout) // sharing)
    cold = min(selected, hubs)
    hub = Labels(rng, hubs)
    fan = [
        (f"x{i}", hub((i * fanout + j) % hubs))
        for i in range(sources)
        for j in range(fanout)
    ]
    bursts = []
    for y in range(hubs):
        for k in range(burst):
            sink = f"c{y}" if k == 0 and y < cold else f"h{(y * burst + k) % hot}"
            bursts.append((hub(y), sink))
    return {"fan": fan, "burst": bursts, "sel": [(f"c{y}",) for y in range(cold)]}


def churn_base_edges(n: int, width: int) -> List[Tuple[int, int]]:
    """``width`` blocks of ``n // width`` vertices: a chain plus a skip
    edge every third vertex, so deletes usually leave an alternate path
    and DRed's rederivation phase does real work."""
    length = n // width
    edges = []
    for b in range(width):
        base = b * length
        edges.extend((base + i, base + i + 1) for i in range(length - 1))
        edges.extend((base + i, base + i + 2) for i in range(0, length - 2, 3))
    return edges


def churn_triples(
    base: Sequence[Tuple[int, int]], triples: int, batch_size: int
) -> List[List[Tuple[str, List[Tuple[int, int]]]]]:
    """``triples`` net-zero update groups against the base graph.

    Each group deletes ``batch_size`` present edges in one batch and
    re-inserts them one batch per edge, so deletes (DRed over-delete and
    rederive) are one batch in ``batch_size + 1`` and inserts the rest.
    The edges come from a fixed generator, so every seed replays the
    same operations (the seed orders and relabels them) and the
    maintenance work per run does not depend on the draw.
    """
    rng = random.Random(0)
    live = sorted(set(base))
    out = []
    for _ in range(triples):
        edges = rng.sample(live, batch_size)
        out.append([("-", edges)] + [("+", [edge]) for edge in edges])
    return out


def spread(count: int, span: int) -> List[int]:
    """``count`` evenly spaced positions in ``range(span)``."""
    return [k * span // count for k in range(count)]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def fact_text(relation: str, rows: Sequence[Row]) -> str:
    """Rows as Datalog facts, one per line."""
    return "".join(f"{relation}({', '.join(map(str, row))}).\n" for row in rows)
