"""Exact toughness, minimal toughness, Menger path counts, and the
characterization of non-minimally tough graphs.

Every cut search walks one cut size at a time through ``graphs.subsets``,
the k-subset kernel (Gosper's hack), so a tie goes to the least mask of the
least size. Toughness is minimized in increasing cut size from the empty
cut, which settles disconnected graphs; at size k no ratio below k/(n-k) is
possible, which bounds the scan. Every edge and vertex-pair search walks
``graphs.separating_cuts``: the cuts S avoiding u and v that leave them
apart. A Menger path count is the size of the first such cut (in G-uv,
plus one, when uv is an edge), so it costs time exponential in the count;
every caller runs it next to an exponential toughness search. The edge
searches look at G-e only: if u, v are apart in (G-e)-S, e bridges G-S and
omega(G-S) = omega((G-e)-S) - 1. Minimality never recomputes tau(G-e):
deleting e = uv lowers tau(G) = t exactly when some S avoiding u and v
leaves them apart in (G-e)-S with |S| < t*omega((G-e)-S), and the search
for such an S stops at the first one, or at size k once k >= t*(n-k).
The toughness, edge and connectivity walks skip simplicial vertices (those
whose neighbourhood is a clique; a chordal graph has them): N(w) - S lies in
one component of G - S at most, so S - w keeps every component apart with
one vertex less, and no smallest or minimizing cut holds w.
Every comparison of ratios or thresholds (a better cut, the size bound,
>= 2t+1, >= t*(omega+1), ...) is cross-multiplied in integers; no division
and no float is ever involved in a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .graphs import (Graph, GraphError, bits, components, separating_cuts, simplicial_mask,
                     subsets)
from .rational import INFINITY, ToughnessValue, is_finite


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
    """Exact toughness with a minimizing cut (None for complete graphs).

    The empty cut comes first and settles disconnected graphs. The best ratio
    is the pair best_size/best_parts, 1/0 before any cut, and every decision
    is an integer product; one Fraction is built at the end."""
    if g.is_complete():
        return INFINITY, None
    n = g.n
    pool = g.full_mask & ~simplicial_mask(g)
    best, best_size, best_parts = 0, 1, 0
    for size in range(n - 1):
        # even omega = n - size cannot beat the current best at this size
        if size * best_parts >= best_size * (n - size):
            break
        for cut in subsets(pool, size):
            parts = len(components(g, cut))
            if parts > 1 and size * best_parts < best_size * parts:
                best, best_size, best_parts = cut, size, parts
    value = Fraction(best_size, best_parts)
    return value, ToughnessWitness(best, best_parts, value)


@lru_cache(maxsize=1 << 17)
def toughness(g: Graph) -> ToughnessValue:
    return toughness_witness(g)[0]


def _threshold(t: Fraction) -> tuple[int, int]:
    """Numerator and denominator of a threshold t, refused unless a finite
    nonnegative Fraction."""
    if not is_finite(t) or t < 0:
        raise GraphError(f"toughness threshold must be a nonnegative Fraction, got {t!r}")
    return t.numerator, t.denominator


def is_t_tough(g: Graph, t: Fraction) -> bool:
    """Definitional check: |S| >= t * omega(G-S) for every disconnecting S."""
    num, den = _threshold(t)
    for s in range(1 << g.n):
        parts = len(components(g, s))
        if parts > 1 and s.bit_count() * den < num * parts:
            return False
    return True


@lru_cache(maxsize=1 << 15)
def is_minimally_tough(g: Graph, *, tau: Optional[ToughnessValue] = None) -> MinimalityResult:
    """Does deleting any single edge strictly lower the toughness?

    tau is tau(g) when the caller already has it from toughness_witness,
    and is taken as given; otherwise it comes from toughness(g).

    With t = num/den = tau(G), deleting uv lowers tau exactly when some cut
    S avoiding u and v leaves them apart in (G-uv)-S with
    |S|*den < num*omega((G-uv)-S): a cut of ratio below t cannot already
    disconnect G that far, so deleting uv must have split one more component
    off. Cuts are tried in increasing size and the first one settles the
    edge; S = 0 covers bridges. At size k no cut qualifies once
    k*den >= num*(n-k), since omega <= n-k, so the walk stops at the largest
    k with k*den < num*(n-k). The walk skips the simplicial vertices of
    G-uv: those of G that are not common neighbours of u and v. witness_edge
    is the first edge in ``g.edges()`` order that no cut lowers.
    """
    if g.is_complete():
        return MinimalityResult(Minimality.COMPLETE, INFINITY)
    if not g.is_connected():
        return MinimalityResult(Minimality.DISCONNECTED, Fraction(0))
    t = toughness(g) if tau is None else tau
    num, den = t.numerator, t.denominator
    largest = (num * g.n - 1) // (num + den)
    simplicial = simplicial_mask(g)
    for u, v in g.edges():
        pool = ~(simplicial & ~(g.adj[u] & g.adj[v]))
        for s, comps in separating_cuts(g.without_edge(u, v), u, v, largest, pool):
            if s.bit_count() * den < num * len(comps):
                break
        else:
            return MinimalityResult(Minimality.NOT_MINIMAL, t, (u, v))
    return MinimalityResult(Minimality.MINIMALLY_TOUGH, t)


# ---------------------------------------------------------------------------
# Menger path counts as minimum separating cuts
# ---------------------------------------------------------------------------

def disjoint_path_count(g: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise internally vertex-disjoint u-v paths.

    By Menger's theorem this is the size of a smallest cut separating u from
    v when uv is not an edge. When uv is an edge it counts as one path and
    the rest are counted in G - uv. The cut walk makes at most the sum over
    k <= the result of C(n-2, k) component computations.
    """
    if u == v:
        raise GraphError("path count needs two distinct vertices")
    edge = g.has_edge(u, v)
    if edge:
        g = g.without_edge(u, v)
    # V - {u, v} separates u from v once they are not adjacent, and a
    # smallest separator holds no simplicial vertex
    cut, _ = next(separating_cuts(g, u, v, g.n - 2, ~simplicial_mask(g)))
    return edge + cut.bit_count()


def vertex_connectivity(g: Graph) -> int:
    """Size of a smallest disconnecting vertex set; n-1 for complete graphs.

    One walk over cuts by increasing size, so the cost is exponential in the
    result: at most the sum over k <= kappa of C(n, k) component computations.
    """
    if g.is_complete():
        return g.n - 1
    # a noncomplete graph has a nonadjacent pair, which V minus the pair
    # disconnects, and a smallest disconnecting set holds no simplicial vertex
    pool = g.full_mask & ~simplicial_mask(g)
    return next(size for size in range(g.n - 1)
                for s in subsets(pool, size) if len(components(g, s)) > 1)


# ---------------------------------------------------------------------------
# Characterization of non-minimally tough graphs
# ---------------------------------------------------------------------------
# These walks keep every vertex and skip no simplicial one. A witness set
# must also meet omega(G-S) <= |S|/t, which dropping a vertex from S can
# break, so the least witness may hold a simplicial vertex. And the
# unrestricted condition 2 is what its restricted variant is checked
# against, so it must not assume the restriction.

def _condition2(g: Graph, u: int, v: int, num: int, den: int,
                restricted: bool) -> bool:
    """Every separator of G that u-v-separates G-e has |S| >= t*(omega+1).

    The restricted variant only quantifies over separators whose every vertex
    has neighbors in at least two components of (G-e)-S.
    """
    for s, comps_ge in separating_cuts(g.without_edge(u, v), u, v, g.n - 2):
        # u, v apart in (G-e)-S: e bridges G-S, omega(G-S) = len(comps_ge) - 1,
        # and S separates G exactly when comps_ge has three parts or more
        if len(comps_ge) < 3:
            continue
        if restricted and not all(
                sum(1 for comp in comps_ge if g.adj[w] & comp) >= 2 for w in bits(s)):
            continue
        if s.bit_count() * den < num * len(comps_ge):
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
    num, den = _threshold(t)
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

    Bridges get the empty cut. The search walks the cuts of G-e that
    separate the edge ends in increasing size, so the reported witness is
    size-minimal, and the least mask of its size.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if g.is_complete() or not g.is_connected():
        raise GraphError("witness sets apply to connected noncomplete graphs")
    t = toughness(g)
    num, den = t.numerator, t.denominator
    for cut, comps_ge in separating_cuts(g.without_edge(u, v), u, v, g.n - 2):
        parts = len(comps_ge)  # omega(G-S) + 1: e bridges G-S
        # the empty cut comes first and only when e is a bridge of G
        if not cut or (parts - 1) * num <= cut.bit_count() * den < parts * num:
            return EdgeWitnessSet(edge, cut)
    return None
