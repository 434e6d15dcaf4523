"""Chordal-graph machinery: elimination orderings, clique trees, minimal
separators, moplexes, and the neighborhood-order vertex predicates.

A single set S is decided by the S-full-component test: S is a minimal
separator exactly when G-S has at least two components in which every vertex
of S has a neighbor. The full list comes from Berry-Bordat-Cogis generation
at polynomial cost per separator. The walk over every vertex subset with the
S-full test lives in ``verify`` as the oracle for both the generator and the
clique-tree route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import Graph, GraphError, bits, components, from_edges, mask_of


@dataclass(frozen=True)
class CliqueTree:
    """Maximal cliques of a connected chordal graph arranged as a tree.

    For every vertex v the cliques containing v induce a subtree, so the
    intersection of two adjacent cliques is contained in every clique on the
    path between them.
    """

    cliques: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]


def is_clique(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if mask & ~g.closed(v):
            return False
    return True


def peo(g: Graph) -> Optional[tuple[int, ...]]:
    """Perfect elimination ordering via maximum cardinality search, or None.

    MCS visits the vertex with the most already-visited neighbors; the
    reversed visit order is a PEO whenever the graph is chordal. The
    candidate is verified, so the return value is trusted either way.
    """
    adj, full = g.adj, g.full_mask
    visited = 0
    order = []
    while visited != full:
        best = max(bits(full & ~visited), key=lambda v: (adj[v] & visited).bit_count())
        order.append(best)
        visited |= 1 << best
    order.reverse()
    remaining = full
    for v in order:
        remaining ^= 1 << v
        later = g.adj[v] & remaining
        if not is_clique(g, later):
            return None
    return tuple(order)


def is_chordal(g: Graph) -> bool:
    return peo(g) is not None


def maximal_cliques(g: Graph) -> list[int]:
    """All inclusion-maximal cliques (Bron-Kerbosch with pivoting), sorted."""
    out = []
    adj = g.adj

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pivot = -1
        best = -1
        for v in bits(p | x):
            score = (adj[v] & p).bit_count()
            if score > best:
                best, pivot = score, v
        for v in bits(p & ~adj[pivot]):
            expand(r | 1 << v, p & adj[v], x & adj[v])
            p ^= 1 << v
            x |= 1 << v

    expand(0, g.full_mask, 0)
    return sorted(out)


def clique_tree(g: Graph) -> CliqueTree:
    """Maximum-weight spanning tree of the clique intersection graph.

    Kruskal over pairs sorted by (-|Qi & Qj|, i, j); the lexicographic
    tie-break makes the tree deterministic. The groups of cliques already
    tied together are bitmasks: joined[i] holds the cliques in i's group.
    """
    if not g.is_connected():
        raise GraphError("clique tree requires a connected graph")
    if not is_chordal(g):
        raise GraphError("clique tree requires a chordal graph")
    cliques = maximal_cliques(g)
    k = len(cliques)
    pairs = sorted(
        ((i, j) for i in range(k) for j in range(i + 1, k)),
        key=lambda ij: (-(cliques[ij[0]] & cliques[ij[1]]).bit_count(), ij),
    )
    joined = [1 << i for i in range(k)]
    edges = []
    for i, j in pairs:
        if not joined[i] >> j & 1:
            merged = joined[i] | joined[j]
            for x in bits(merged):
                joined[x] = merged
            edges.append((i, j))
            if len(edges) == k - 1:
                break
    return CliqueTree(tuple(cliques), tuple(edges))


def validate_clique_tree(g: Graph, tree: CliqueTree) -> None:
    """Raise GraphError unless tree is a valid clique tree of g."""
    if sorted(tree.cliques) != maximal_cliques(g):
        raise GraphError("clique tree nodes are not exactly the maximal cliques")
    k = len(tree.cliques)
    if len(tree.tree_edges) != k - 1:
        raise GraphError("clique tree edge count is not node count minus one")
    for i, j in tree.tree_edges:
        if not (0 <= i < k and 0 <= j < k) or i == j:
            raise GraphError("clique tree edge endpoints out of range")
    forest = from_edges(k, tree.tree_edges)
    if len(components(forest)) != 1:
        raise GraphError("clique tree edges do not form a tree")
    for v in range(g.n):
        holding = mask_of(i for i, q in enumerate(tree.cliques) if q >> v & 1)
        if len(components(forest, forest.full_mask & ~holding)) != 1:
            raise GraphError(f"cliques containing vertex {v} are not a subtree")


def is_minimal_separator(g: Graph, s: int) -> bool:
    """S-full test: at least two components of G-S see every vertex of S."""
    full_components = 0
    for comp in components(g, s):
        if all(g.adj[v] & comp for v in bits(s)):
            full_components += 1
            if full_components == 2:
                return True
    return False


def minimal_separators(g: Graph) -> list[int]:
    """All minimal separators, sorted by mask (Berry, Bordat and Cogis 2000).

    The set is seeded with N(C) for every component C of G - N[v], for every
    v: both C and the component holding v see all of N(C). It is closed
    under S -> N(C) for the components C of G - (S | N[x]), x in S, which
    again yields minimal separators and reaches all of them. Each separator
    costs O(n) component searches, so the cost is polynomial per separator
    rather than 2^n. N(C) is empty exactly when C is a whole component of G,
    so the empty set is listed exactly when G is disconnected.
    """
    adj = g.adj

    def neighborhoods(removed: int) -> set[int]:
        out = set()
        for comp in components(g, removed):
            hood = 0
            for v in bits(comp):
                hood |= adj[v]
            out.add(hood & removed)
        return out

    found: set[int] = set()
    for v in range(g.n):
        found |= neighborhoods(g.closed(v))
    pending = list(found)
    while pending:
        s = pending.pop()
        for x in bits(s):
            fresh = neighborhoods(s | g.closed(x)) - found
            found |= fresh
            pending.extend(fresh)
    return sorted(found)


def minimal_separators_via_clique_tree(g: Graph, tree: CliqueTree) -> list[int]:
    """Intersections of adjacent clique-tree nodes, deduplicated and sorted."""
    validate_clique_tree(g, tree)
    return sorted({tree.cliques[i] & tree.cliques[j] for i, j in tree.tree_edges})


def moplexes(g: Graph) -> list[int]:
    """All moplexes, sorted by mask.

    The inclusion-maximal clique modules are exactly the classes of vertices
    sharing one closed neighborhood, so the search groups by N[v] and keeps
    the classes whose open neighborhood is empty or a minimal separator.
    """
    classes: dict[int, int] = {}
    for v in range(g.n):
        key = g.closed(v)
        classes[key] = classes.get(key, 0) | 1 << v
    out = []
    for closed_nbhd, members in classes.items():
        open_nbhd = closed_nbhd & ~members
        if open_nbhd == 0 or is_minimal_separator(g, open_nbhd):
            out.append(members)
    return sorted(out)


def is_moplicial(g: Graph, v: int) -> bool:
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    return any(m >> v & 1 for m in moplexes(g))


def is_simplicial(g: Graph, v: int) -> bool:
    """N[v] is a clique."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    return is_clique(g, g.closed(v))


def is_simple(g: Graph, v: int, alive: Optional[int] = None) -> bool:
    """The closed neighborhoods of N[v] form a chain under inclusion.

    With alive given, the test runs in the subgraph induced by alive.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    alive = g.full_mask if alive is None else alive
    hoods = [g.closed(x) & alive for x in bits(g.closed(v) & alive)]
    for a, b in combinations(hoods, 2):
        if a & ~b and b & ~a:
            return False
    return True


def maximum_neighbor(g: Graph, v: int) -> Optional[int]:
    """Some u in N[v] with N[w] subseteq N[u] for every w in N[v].

    Prefers v itself when it qualifies, then the least qualifying neighbor.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    union = 0
    for w in bits(g.closed(v)):
        union |= g.closed(w)
    for u in [v, *bits(g.adj[v])]:
        if not union & ~g.closed(u):
            return u
    return None


def maximum_neighboring_edge(g: Graph, v: int) -> Optional[tuple[int, int]]:
    """Some edge uu' inside N(v) with N[w] subseteq N[u] | N[u'] for all w in N[v]."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    union = 0
    for w in bits(g.closed(v)):
        union |= g.closed(w)
    hood = list(bits(g.adj[v]))
    for u, u2 in combinations(hood, 2):
        if g.has_edge(u, u2) and not union & ~(g.closed(u) | g.closed(u2)):
            return u, u2
    return None
