"""Exact toughness, minimal toughness, Menger path counts, and the
characterization of non-minimally tough graphs.

Every cut search walks one cut size at a time through ``graphs.subsets``,
the k-subset kernel (Gosper's hack), so a tie goes to the least mask of the
least size. Toughness is minimized in increasing cut size; at size k no
ratio below k/(n-k) is possible, which bounds the scan. The edge searches
look at G-e only: if u, v are apart in (G-e)-S, e bridges G-S and
omega(G-S) = omega((G-e)-S) - 1. Every threshold comparison (>= 2t+1,
>= t*(omega+1), ...) is cross-multiplied in integers; no division and no
float is ever involved in a decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .graphs import Graph, GraphError, bits, components, separates, subsets
from .rational import INFINITY, ToughnessValue


@dataclass(frozen=True)
class ToughnessWitness:
    """A cut realizing the toughness: value = |cut| / parts."""

    cut: int
    parts: int
    value: Fraction


@dataclass(frozen=True)
class EdgeWitnessSet:
    """Cut S(e): e is a bridge in G-S, removing it pushes G-S past 1/t."""

    edge: tuple[int, int]
    cut: int


class Minimality(Enum):
    MINIMALLY_TOUGH = "minimally_tough"
    NOT_MINIMAL = "not_minimal"
    COMPLETE = "complete"
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class MinimalityResult:
    verdict: Minimality
    toughness: ToughnessValue
    witness_edge: Optional[tuple[int, int]] = None


def toughness_witness(g: Graph) -> tuple[ToughnessValue, Optional[ToughnessWitness]]:
    """Exact toughness with a minimizing cut (None for complete graphs)."""
    if g.is_complete():
        return INFINITY, None
    comps = components(g)
    if len(comps) > 1:
        return Fraction(0), ToughnessWitness(0, len(comps), Fraction(0))
    n = g.n
    best: Optional[Fraction] = None
    witness: Optional[ToughnessWitness] = None
    for size in range(1, n - 1):
        # even omega = n - size cannot beat the current best at this size
        if best is not None and Fraction(size, n - size) >= best:
            break
        for cut in subsets(g.full_mask, size):
            parts = len(components(g, cut))
            if parts < 2:
                continue
            ratio = Fraction(size, parts)
            if best is None or ratio < best:
                best = ratio
                witness = ToughnessWitness(cut, parts, ratio)
    assert best is not None  # connected noncomplete graphs always disconnect
    return best, witness


@lru_cache(maxsize=1 << 17)
def toughness(g: Graph) -> ToughnessValue:
    return toughness_witness(g)[0]


def is_t_tough(g: Graph, t: Fraction) -> bool:
    """Definitional check: |S| >= t * omega(G-S) for every disconnecting S."""
    if t < 0:
        raise GraphError("toughness threshold must be nonnegative")
    num, den = t.numerator, t.denominator
    for s in range(1 << g.n):
        parts = len(components(g, s))
        if parts > 1 and s.bit_count() * den < num * parts:
            return False
    return True


@lru_cache(maxsize=1 << 15)
def is_minimally_tough(g: Graph) -> MinimalityResult:
    """Does deleting any single edge strictly lower the toughness?"""
    if g.is_complete():
        return MinimalityResult(Minimality.COMPLETE, INFINITY)
    if not g.is_connected():
        return MinimalityResult(Minimality.DISCONNECTED, Fraction(0))
    t = toughness(g)
    for u, v in g.edges():
        if toughness(g.without_edge(u, v)) == t:
            return MinimalityResult(Minimality.NOT_MINIMAL, t, (u, v))
    return MinimalityResult(Minimality.MINIMALLY_TOUGH, t)


# ---------------------------------------------------------------------------
# Menger path counts via unit-capacity vertex-split max-flow
# ---------------------------------------------------------------------------

def _max_internally_disjoint(g: Graph, source: int, sink: int) -> int:
    """Max internally vertex-disjoint source-sink paths; uv must not be an edge.

    Each vertex w other than the terminals splits into w_in (2w) and w_out
    (2w+1) joined by a capacity-1 arc; each graph edge xy becomes arcs
    x_out -> y_in and y_out -> x_in. Augment with BFS until no path remains.
    """
    n = g.n
    capacity: dict[tuple[int, int], int] = {}

    def add(a: int, b: int):
        capacity[(a, b)] = capacity.get((a, b), 0) + 1

    for w in range(n):
        if w != source and w != sink:
            add(2 * w, 2 * w + 1)
    for x, y in g.edges():
        add(2 * x + 1, 2 * y)
        add(2 * y + 1, 2 * x)
    start, goal = 2 * source + 1, 2 * sink
    outgoing: dict[int, list[int]] = {}
    for a, b in capacity:
        outgoing.setdefault(a, []).append(b)
        outgoing.setdefault(b, []).append(a)  # residual direction
    flow = 0
    while True:
        prev = {start: start}
        queue = deque([start])
        while queue and goal not in prev:
            a = queue.popleft()
            for b in outgoing.get(a, ()):
                if b not in prev and capacity.get((a, b), 0) > 0:
                    prev[b] = a
                    queue.append(b)
        if goal not in prev:
            return flow
        b = goal
        while b != start:
            a = prev[b]
            capacity[(a, b)] = capacity.get((a, b), 0) - 1
            capacity[(b, a)] = capacity.get((b, a), 0) + 1
            b = a
        flow += 1


def disjoint_path_count(g: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise internally vertex-disjoint u-v paths.

    When uv is an edge it counts as one path and the rest are computed in
    G - uv, so the result matches Menger on the edge-deleted graph plus one.
    """
    if u == v:
        raise GraphError("path count needs two distinct vertices")
    if g.has_edge(u, v):
        return 1 + _max_internally_disjoint(g.without_edge(u, v), u, v)
    return _max_internally_disjoint(g, u, v)


def vertex_connectivity(g: Graph) -> int:
    """Min over nonadjacent pairs of the Menger count; n-1 for complete graphs."""
    best = g.n - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                best = min(best, disjoint_path_count(g, u, v))
    return best


# ---------------------------------------------------------------------------
# Characterization of non-minimally tough graphs
# ---------------------------------------------------------------------------

def _condition2(g: Graph, u: int, v: int, num: int, den: int,
                restricted: bool) -> bool:
    """Every separator of G that u-v-separates G-e has |S| >= t*(omega+1).

    The restricted variant only quantifies over separators whose every vertex
    has neighbors in at least two components of (G-e)-S.
    """
    ge = g.without_edge(u, v)
    others = g.full_mask & ~(1 << u) & ~(1 << v)
    for size in range(others.bit_count() + 1):
        for s in subsets(others, size):
            comps_ge = components(ge, s)
            # u, v apart in (G-e)-S: e bridges G-S, omega(G-S) = len(comps_ge) - 1,
            # and S separates G exactly when comps_ge has three parts or more
            if len(comps_ge) < 3 or not separates(comps_ge, u, v):
                continue
            if restricted and not all(
                    sum(1 for comp in comps_ge if g.adj[w] & comp) >= 2 for w in bits(s)):
                continue
            if size * den < num * len(comps_ge):
                return False
    return True


def check_non_minimality_characterization(g: Graph) -> Optional[tuple[int, int]]:
    """First edge uv witnessing that g is not minimally tough, or None.

    The edge must admit at least 2t+1 internally disjoint u-v paths and every
    separator of G that u-v-separates G-e must have size at least t*(omega+1),
    with t the exact toughness.
    """
    if g.is_complete() or not g.is_connected():
        raise GraphError("characterization applies to connected noncomplete graphs")
    t = toughness(g)
    num, den = t.numerator, t.denominator
    for u, v in g.edges():
        if disjoint_path_count(g, u, v) * den < 2 * num + den:
            continue
        if _condition2(g, u, v, num, den, restricted=False):
            return u, v
    return None


def check_condition2_restricted(g: Graph, edge: tuple[int, int]) -> tuple[bool, bool]:
    """(restricted, unrestricted) evaluations of the separator condition."""
    u, v = edge
    if g.is_complete() or not g.is_connected():
        raise GraphError("condition applies to connected noncomplete graphs")
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    t = toughness(g)
    num, den = t.numerator, t.denominator
    return (
        _condition2(g, u, v, num, den, restricted=True),
        _condition2(g, u, v, num, den, restricted=False),
    )


def check_sufficient_condition(g: Graph, t: Fraction) -> Optional[tuple[int, int]]:
    """Adjacent pair with >= 2t common neighbors, >= t of which have all
    their neighbors inside N(u) | N(v); None when no edge qualifies."""
    num, den = t.numerator, t.denominator
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        if common.bit_count() * den < 2 * num:
            continue
        hood = g.adj[u] | g.adj[v]
        confined = sum(1 for w in bits(common) if not g.adj[w] & ~hood)
        if confined * den >= num:
            return u, v
    return None


def find_edge_witness_set(g: Graph, edge: tuple[int, int]) -> Optional[EdgeWitnessSet]:
    """Witness cut S(e): omega(G-S) <= |S|/t < omega((G-e)-S) and e bridges G-S.

    Bridges get the empty cut. The search runs over cuts avoiding the edge
    ends in increasing size, so the reported witness is size-minimal, and the
    least mask of its size.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if g.is_complete() or not g.is_connected():
        raise GraphError("witness sets apply to connected noncomplete graphs")
    ge = g.without_edge(u, v)
    if not ge.is_connected():
        return EdgeWitnessSet(edge, 0)
    t = toughness(g)
    num, den = t.numerator, t.denominator
    others = g.full_mask & ~(1 << u) & ~(1 << v)
    for size in range(1, others.bit_count() + 1):
        for cut in subsets(others, size):
            comps_ge = components(ge, cut)
            parts = len(comps_ge)  # omega(G-S) + 1 when u, v are apart: e bridges G-S
            if separates(comps_ge, u, v) and (parts - 1) * num <= size * den < parts * num:
                return EdgeWitnessSet(edge, cut)
    return None
