"""Graph-class recognizers: holes, suns, strongly chordal, split, asteroidal
triples, and universal vertices.

Recognition is desk-scale and certificate-bearing: a negative verdict for a
characterization-based class carries a concrete forbidden structure that
re-validates against the adjacency. The sun, split-obstruction and claw
searches walk vertex masks with ``subsets`` in increasing order, so each
returns the witness on the least mask it tests: the least clique hub of the
smallest sun, the least four-set and then the least five-set for a split
obstruction, and the least leaf triple of the least center for a claw.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

from .chordal import is_chordal, is_clique, is_simple, maximal_cliques
from .graphs import Graph, GraphError, bits, components, mask_of, separates, subsets


@dataclass(frozen=True)
class ClassVerdict:
    member: bool
    witness: Optional[tuple] = None
    partition: Optional[tuple[int, int]] = None  # (clique mask, independent mask)


def find_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """Some induced cycle of length >= 4, or None exactly when g is chordal.

    Depth-first search over induced paths anchored at their least vertex: a
    candidate extends the path if it only touches the last vertex, and closes
    a hole if it additionally touches the anchor after three or more steps.
    """
    n = g.n

    def extend(path: tuple[int, ...], used: int, middle: int) -> Optional[tuple[int, ...]]:
        anchor, last = path[0], path[-1]
        for v in range(anchor + 1, n):
            if used >> v & 1 or not g.has_edge(last, v):
                continue
            if g.adj[v] & middle:
                continue
            if g.has_edge(v, anchor):
                if len(path) >= 3:
                    return path + (v,)
                continue
            found = extend(path + (v,), used | 1 << v, middle | 1 << last)
            if found:
                return found
        return None

    for a in range(n):
        for b in bits(g.adj[a] >> (a + 1) << (a + 1)):
            found = extend((a, b), 1 << a | 1 << b, 0)
            if found:
                return found
    return None


def find_induced_sun(g: Graph, k_max: int) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Induced k-sun for some 3 <= k <= k_max: (k, hub cycle A, outer set B).

    A is a clique ordered so b_j is adjacent to exactly a_j and a_{j+1}
    (indices mod k) among A, and B is independent. Each k-clique hub is
    tried in increasing mask order. Its spokes are the outside vertices with
    exactly two neighbors in the hub; the walk starts at the hub's least
    vertex and each step takes a spoke, nonadjacent to the spokes already
    taken, from the current vertex to an unvisited one, or back to the start
    once the hub is used up.
    """
    if not 3 <= k_max <= g.n // 2:
        raise GraphError(f"sun bound {k_max} outside 3..n/2")
    adj, full = g.adj, g.full_mask

    def walk(hub: int, spokes: list[int], a: tuple[int, ...], b: tuple[int, ...]):
        rest = hub & ~mask_of(a)
        ends = rest or 1 << a[0]  # an unvisited hub vertex, else back to the start
        taken = mask_of(b)
        for v in spokes:
            seen = adj[v] & hub
            other = seen ^ 1 << a[-1]
            if not seen >> a[-1] & 1 or not other & ends or adj[v] & taken:
                continue
            if not rest:
                return len(a), a, b + (v,)
            found = walk(hub, spokes, a + (other.bit_length() - 1,), b + (v,))
            if found:
                return found
        return None

    for k in range(3, k_max + 1):
        for hub in subsets(full, k):
            if not is_clique(g, hub):
                continue
            spokes = [v for v in bits(full & ~hub) if (adj[v] & hub).bit_count() == 2]
            found = walk(hub, spokes, ((hub & -hub).bit_length() - 1,), ())
            if found:
                return found
    return None


def _greedy_simple_elimination(g: Graph) -> bool:
    """Delete simple vertices while any exists; True if the graph empties."""
    alive = g.full_mask
    while alive:
        victim = -1
        for v in bits(alive):
            if is_simple(g, v, alive):
                victim = v
                break
        if victim < 0:
            return False
        alive ^= 1 << victim
    return True


def is_strongly_chordal(g: Graph) -> ClassVerdict:
    """Greedy simple elimination; a failure carries a hole or sun witness."""
    if _greedy_simple_elimination(g):
        return ClassVerdict(True)
    hole = find_hole(g)
    if hole is not None:
        return ClassVerdict(False, witness=("hole", hole))
    sun = find_induced_sun(g, g.n // 2) if g.n >= 6 else None
    if sun is None:
        raise RuntimeError("simple elimination stuck on a chordal sun-free graph")
    return ClassVerdict(False, witness=("sun", sun))


def find_split_obstruction(g: Graph) -> Optional[tuple[str, tuple[int, ...]]]:
    """Induced C4, C5, or pair of independent edges, if any.

    Walks the four-vertex masks and then the five-vertex masks in increasing
    order and reads each set's induced degrees: all 1 is a 2K2 (a, b, c, d)
    with a the least vertex and ab, cd the edges; all 2 is a C4 or C5 walked
    from the least vertex through its lesser neighbor. The witness is the
    least such mask, four-sets first.
    """
    adj, full = g.adj, g.full_mask
    for s in chain(subsets(full, 4), subsets(full, 5)):
        degrees = {(adj[v] & s).bit_count() for v in bits(s)}
        if degrees != {1} and degrees != {2}:
            continue
        order = []
        left = step = s
        while step:
            v = (step & -step).bit_length() - 1
            order.append(v)
            left ^= 1 << v
            step = adj[v] & left or left
        kind = "2K2" if degrees == {1} else f"C{len(order)}"
        return kind, tuple(order)
    return None


def is_independent(g: Graph, mask: int) -> bool:
    return all(not g.adj[v] & mask for v in bits(mask))


def is_split(g: Graph) -> ClassVerdict:
    """Partition into a clique and an independent set when one exists.

    Any split partition extends its clique side to a maximal clique whose
    complement stays independent, so scanning maximal cliques is exhaustive.
    """
    for q in maximal_cliques(g):
        rest = g.full_mask & ~q
        if is_independent(g, rest):
            return ClassVerdict(True, partition=(q, rest))
    obstruction = find_split_obstruction(g)
    if obstruction is None:
        raise RuntimeError("non-split graph without a C4/C5/2K2 obstruction")
    return ClassVerdict(False, witness=obstruction)


def find_asteroidal_triple(g: Graph) -> Optional[tuple[int, int, int]]:
    """Three pairwise nonadjacent vertices, each pair connected away from
    the closed neighborhood of the third."""
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        # the three are pairwise nonadjacent, so x lies outside N[z] and is
        # never removed: "not separated" means x and y are joined avoiding N[z]
        if not any(separates(components(g, g.closed(z)), x, y)
                   for x, y, z in ((a, b, c), (a, c, b), (b, c, a))):
            return a, b, c
    return None


def is_interval_like(g: Graph) -> bool:
    """Chordal and asteroidal-triple-free."""
    return is_chordal(g) and find_asteroidal_triple(g) is None


def universal_vertices(g: Graph) -> int:
    """Mask of vertices adjacent to all others."""
    out = 0
    for v in range(g.n):
        if g.adj[v] == g.full_mask ^ 1 << v:
            out |= 1 << v
    return out


def find_induced_claw(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """Induced K_{1,3} as (center, leaf, leaf, leaf), if any."""
    for center in range(g.n):
        for trio in subsets(g.adj[center], 3):
            if is_independent(g, trio):
                return (center, *bits(trio))
    return None
