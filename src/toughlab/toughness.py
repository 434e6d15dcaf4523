"""Exact toughness, minimal toughness, Menger path counts, and the
characterization of non-minimally tough graphs.

Every cut search walks one cut size at a time through ``graphs.subsets``,
the k-subset kernel (Gosper's hack), so a tie goes to the least mask of the
least size. Toughness is minimized in increasing cut size from the empty
cut, which settles disconnected graphs; ``toughness_witness`` states the
caps on omega(G-S) that end its walk and the tests that skip a cut.
Every edge and vertex-pair search walks ``graphs.separating_cuts``, which
asks its question in G-uv without building it. It yields each cut S
avoiding u and v that leaves them apart in (G-uv)-S, with far, the
vertices of (G-uv)-S outside u's component. The callers read G and far:
u's component is one part, far has the same parts in G as in G-uv, and
when uv is an edge it bridges G-S, so omega(G-S) = omega((G-uv)-S) - 1.
A Menger path count is the size of the first such cut, plus one when uv
is an edge, so it costs time exponential in the count; every caller runs
it next to an exponential toughness search. Minimality never recomputes
tau(G-e); ``is_minimally_tough`` states the cut that decides an edge.
The toughness, edge and connectivity walks skip simplicial vertices (those
whose neighbourhood is a clique; a chordal graph has them): N(w) - S lies in
one component of G - S at most, so S - w keeps every component apart with
one vertex less, and no smallest or minimizing cut holds w. The edge walks
pass G's simplicial mask to ``separating_cuts``, which skips the vertices
still simplicial in G-uv. The toughness and connectivity walks put every
universal vertex (``graphs.universal_mask``) into every cut: one left
outside S keeps G - S connected.
Every comparison of ratios or thresholds (a better cut, the size bound,
>= 2t+1, >= t*(omega+1), ...) is made in integers, cross-multiplied or as
a floor quotient of integers; no float is ever involved in a decision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Optional

from .graphs import (Graph, GraphError, bits, components, has_parts, separating_cuts,
                     simplicial_mask, subsets, universal_mask)
from .rational import INFINITY, ToughnessValue, is_finite


def toughness_witness(g: Graph) -> tuple[ToughnessValue, Optional[int]]:
    """Exact toughness and the mask of a minimizing cut S, so that
    |S|/omega(G-S) is the toughness; None for complete graphs.

    The empty cut comes first and settles disconnected graphs. The best ratio
    is the pair best_size/best_parts, 1/0 before any cut, and every decision
    is made in integers; one Fraction is built at the end.

    Three rules skip the cuts that cannot change the answer:
    - The universal vertices U are in every disconnecting cut, since one
      outside S keeps G-S connected; U holds no simplicial vertex of a
      noncomplete graph. So the walk joins U to the subsets of the rest of
      the pool, from size |U| on, in the same mask order.
    - A k-cut wins only with more than k*best_parts/best_size parts, at
      least two, so it is tested with ``has_parts``, which stops at that
      count. Only a winner's components are built, for its omega.
    - A size ends at the first winner that meets a cap on omega at that
      size: no later cut of the size has more parts, and only a strict
      gain wins.

    Once a cut is found, the walk ends at the first size k where some cap
    on omega(G-S), |S| = k, gives no ratio strictly below the best, so the
    value and the least-size, least-mask witness are those of the full walk.
    The caps, all set at the first cut:
    - n - k: every component keeps a vertex.
    - alpha(G): one vertex from each component is an independent set.
    - D_k/kappa. The first cut has size kappa, the vertex connectivity,
      since a smallest disconnecting set holds no simplicial vertex. D_k is
      the sum of the k largest degrees in the pool, which holds S. When G-S
      has two or more components, each one, C, is cut off by N(C), a subset
      of S, so |N(C)| >= kappa, and each w in S borders at most deg(w)
      components: kappa*omega <= D_k.
    No cap grows faster than k: n - k falls, alpha is fixed, and the
    (k+1)-st largest degree is at most the mean of the k before it. So
    k/cap never falls, and a size whose cap cannot win ends the walk."""
    n, adj, full = g.n, g.adj, g.full_mask
    universal = universal_mask(g)
    if universal == full:  # complete
        return INFINITY, None
    simplicial = simplicial_mask(g)
    pool = full & ~simplicial
    forced, free, left = universal.bit_count(), pool ^ universal, full ^ universal
    best, best_size, best_parts = 0, 1, 0
    for size in range(forced, n - 1):
        if best_parts and (size * best_parts >= best_size * min(n - size, alpha)
                           or size * kappa * best_parts >= best_size * degree_sums[size]):
            break
        need = max(2, size * best_parts // best_size + 1)
        for cut in subsets(free, size - forced):
            if not has_parts(adj, left ^ cut, need):
                continue
            cut |= universal
            parts = len(components(g, cut))
            if not best_parts:  # the first cut
                kappa, alpha = size, _independence_number(g, simplicial)
                # degree_sums[k] = D_k, vertices outside the pool counting 0
                degree_sums = list(accumulate(sorted(
                    (g.degree(v) if pool >> v & 1 else 0 for v in range(n)),
                    reverse=True), initial=0))
            best, best_size, best_parts = cut, size, parts
            # parts >= min(n - k, alpha, floor(D_k/kappa)); kappa = 0 on a
            # disconnected graph, whose only cut of size 0 is the empty one
            if parts >= min(n - size, alpha) or (parts + 1) * kappa > degree_sums[size]:
                break
            need = parts + 1
    return Fraction(best_size, best_parts), best


def _independence_number(g: Graph, simplicial: int) -> int:
    """alpha(g), by branch and reduce on vertex masks; simplicial is a mask
    of simplicial vertices of g.

    A simplicial vertex lies in some maximum independent set, which holds at
    most one of its neighbours, a clique, to swap for it. So the given ones
    are taken first, each with its neighbours removed; each stays simplicial
    in what is left. Then a vertex of degree at most 1 among those left is
    taken outright, and otherwise a vertex of maximum degree is either
    dropped or taken with its neighbours."""
    adj = g.adj

    def alpha(alive: int) -> int:
        taken = 0
        while alive:
            top, top_degree = -1, -1
            for v in bits(alive):
                degree = (adj[v] & alive).bit_count()
                if degree <= 1:
                    taken += 1
                    alive &= ~(adj[v] | 1 << v)
                    break
                if degree > top_degree:
                    top, top_degree = v, degree
            else:
                rest = alive & ~(1 << top)
                return taken + max(alpha(rest), 1 + alpha(rest & ~adj[top]))
        return taken

    alive, taken = g.full_mask, 0
    for v in bits(simplicial):
        if alive >> v & 1:
            taken += 1
            alive &= ~(adj[v] | 1 << v)
    return taken + alpha(alive)


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
def is_minimally_tough(g: Graph, *, tau: Optional[ToughnessValue] = None
                       ) -> tuple[bool, Optional[tuple[int, int]]]:
    """(minimal, witness_edge): does deleting every single edge strictly
    lower the toughness, and if not, the first edge in ``g.edges()`` order
    that no cut lowers. (True, None) when every edge lowers tau, (False, e)
    otherwise, and (False, None) for a complete or a disconnected graph,
    which the caller tells apart by tau: INFINITY or 0.

    tau is tau(g) when the caller already has it from toughness_witness
    (``analyze`` does, with the witness cut), and is taken as given;
    otherwise it comes from toughness(g).

    With t = num/den = tau(G), deleting uv lowers tau exactly when some cut
    S avoiding u and v leaves them apart in (G-uv)-S with
    |S|*den < num*omega((G-uv)-S): a cut of ratio below t cannot already
    disconnect G that far, so deleting uv must have split one more component
    off. Cuts are tried in increasing size and the first one settles the
    edge; S = 0 covers bridges. At size k no cut qualifies once
    k*den >= num*(n-k), since omega <= n-k, so the walk stops at the largest
    k with k*den < num*(n-k). The walk gets G's simplicial mask, skips the
    simplicial vertices of G-uv and puts the common neighbours into every
    cut (``separating_cuts``).
    u's component is one part, so ``has_parts`` tests far for
    floor(|S|*den/num) more, the fewest that qualify, and stops there.
    """
    t = toughness(g) if tau is None else tau
    if t is INFINITY or not t:
        return False, None
    num, den = t.numerator, t.denominator
    largest = (num * g.n - 1) // (num + den)
    simplicial = simplicial_mask(g)
    for u, v in g.edges():
        for s, far in separating_cuts(g, u, v, largest, simplicial):
            if has_parts(g.adj, far, s.bit_count() * den // num):
                break
        else:
            return False, (u, v)
    return True, None


# ---------------------------------------------------------------------------
# Menger path counts as minimum separating cuts
# ---------------------------------------------------------------------------

def disjoint_path_count(g: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise internally vertex-disjoint u-v paths.

    By Menger's theorem this is the size of a smallest cut separating u from
    v in G - uv, plus one for the edge uv when there is one. The walk makes
    at most the sum over k <= the result of C(n-2, k) partial searches from
    u, and builds no component.
    """
    if u == v:
        raise GraphError("path count needs two distinct vertices")
    edge = g.has_edge(u, v)  # refuses a vertex outside the graph
    # V - {u, v} is such a cut, and a smallest one holds no simplicial vertex
    cut, _ = next(separating_cuts(g, u, v, g.n - 2, simplicial_mask(g)))
    return edge + cut.bit_count()


def vertex_connectivity(g: Graph) -> int:
    """Size of a smallest disconnecting vertex set; n-1 for complete graphs.

    One walk over cuts by increasing size, so the cost is exponential in the
    result: at most the sum over k <= kappa of C(n, k) tests of whether G - S
    has two parts, each growing one component. Every universal vertex is in
    every cut, since one outside S keeps G - S connected, so the walk joins
    them to the subsets of the rest.
    """
    universal = universal_mask(g)
    if universal == g.full_mask:  # complete
        return g.n - 1
    # a noncomplete graph has a nonadjacent pair, which V minus the pair
    # disconnects; a smallest disconnecting set holds no simplicial vertex,
    # and it holds every universal vertex
    forced = universal.bit_count()
    rest = g.full_mask & ~simplicial_mask(g) & ~universal
    return next(size for size in range(forced, g.n - 1)
                for s in subsets(rest, size - forced)
                if has_parts(g.adj, g.full_mask ^ s ^ universal, 2))


# ---------------------------------------------------------------------------
# Characterization of non-minimally tough graphs
# ---------------------------------------------------------------------------
# These walks keep every vertex and skip no simplicial one. A witness set
# must also meet omega(G-S) <= |S|/t, which dropping a vertex from S can
# break, so the least witness may hold a simplicial vertex. And the
# unrestricted condition 2 is what its restricted variant is checked
# against, so it must not assume the restriction.

def _characterization_tau(g: Graph) -> tuple[int, int]:
    """tau(g) as (num, den); refuses a complete (INFINITY) or disconnected (0) graph."""
    t = toughness(g)
    if t is INFINITY or not t:
        raise GraphError("the characterization applies to connected noncomplete graphs")
    return t.numerator, t.denominator


def _condition2(g: Graph, u: int, v: int, num: int, den: int) -> Iterator[bool]:
    """For each separator of G that u-v-separates G-e and breaks
    |S| >= t*(omega+1), whether it breaks the restricted form too, which
    only quantifies over separators whose every vertex has neighbors in at
    least two components of (G-e)-S."""
    for s, far in separating_cuts(g, u, v, g.n - 2):
        # u's component of (G-e)-S, then far's: e bridges G-S, omega(G-S) =
        # len(comps) - 1, and S separates G exactly when comps has three or more
        comps = [g.full_mask ^ s ^ far] + components(g, g.full_mask ^ far)
        if len(comps) >= 3 and s.bit_count() * den < num * len(comps):
            yield all(sum(1 for comp in comps if g.adj[w] & comp) >= 2 for w in bits(s))


def check_non_minimality_characterization(g: Graph) -> Optional[tuple[int, int]]:
    """First edge uv witnessing that g is not minimally tough, or None.

    The edge must admit at least 2t+1 internally disjoint u-v paths and every
    separator of G that u-v-separates G-e must have size at least t*(omega+1),
    with t the exact toughness.
    """
    num, den = _characterization_tau(g)
    for u, v in g.edges():
        if disjoint_path_count(g, u, v) * den < 2 * num + den:
            continue
        if next(_condition2(g, u, v, num, den), None) is None:
            return u, v
    return None


def check_condition2_restricted(g: Graph, edge: tuple[int, int]) -> tuple[bool, bool]:
    """(restricted, unrestricted) evaluations of the separator condition, in one walk."""
    u, v = edge
    num, den = _characterization_tau(g)
    g.check_edge(u, v)
    unrestricted = True
    for restricted_too in _condition2(g, u, v, num, den):
        if restricted_too:
            return False, False
        unrestricted = False
    return True, unrestricted


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


def find_edge_witness_set(g: Graph, edge: tuple[int, int]) -> Optional[int]:
    """Mask of a witness set S(e): omega(G-S) <= |S|/t < omega((G-e)-S) and
    e bridges G-S; None when e has none.

    Bridges get the empty cut, 0. The search walks the cuts of G-e that
    separate the edge ends in increasing size, so the reported witness is
    size-minimal, and the least mask of its size.
    """
    u, v = edge
    num, den = _characterization_tau(g)
    g.check_edge(u, v)
    for cut, far in separating_cuts(g, u, v, g.n - 2):
        parts = 1 + len(components(g, g.full_mask ^ far))  # omega(G-S) + 1
        # the empty cut comes first and only when e is a bridge of G
        if not cut or (parts - 1) * num <= cut.bit_count() * den < parts * num:
            return cut
    return None
