"""Graph-class recognizers: holes, suns, strongly chordal, split, asteroidal
triples, and universal vertices.

Recognition is desk-scale and certificate-bearing: a negative verdict for a
characterization-based class carries a concrete forbidden structure that
re-validates against the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .chordal import is_chordal, is_clique, is_simple, maximal_cliques
from .graphs import Graph, GraphError, bits, components, separates, subsets


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
    (indices mod k) among A, and B is independent.
    """
    if not 3 <= k_max <= g.n // 2:
        raise GraphError(f"sun bound {k_max} outside 3..n/2")
    full = g.full_mask
    for k in range(3, k_max + 1):
        for a_mask in subsets(full, k):
            if not is_clique(g, a_mask):
                continue
            first, *others = bits(a_mask)
            for rest in permutations(others):
                if k > 2 and rest[0] > rest[-1]:
                    continue  # fix reflection
                a_order = (first, *rest)
                slots = []
                ok = True
                for j in range(k):
                    want = 1 << a_order[j] | 1 << a_order[(j + 1) % k]
                    cands = [v for v in bits(full & ~a_mask)
                             if g.adj[v] & a_mask == want]
                    if not cands:
                        ok = False
                        break
                    slots.append(cands)
                if not ok:
                    continue
                b_order = _independent_transversal(g, slots)
                if b_order is not None:
                    return k, a_order, tuple(b_order)
    return None


def _independent_transversal(g: Graph, slots: list[list[int]]) -> Optional[list[int]]:
    """Distinct, pairwise nonadjacent choice of one vertex per slot."""
    chosen: list[int] = []
    used = 0

    def place(j: int) -> bool:
        nonlocal used
        if j == len(slots):
            return True
        for v in slots[j]:
            if used >> v & 1 or g.adj[v] & used:
                continue
            chosen.append(v)
            used |= 1 << v
            if place(j + 1):
                return True
            chosen.pop()
            used ^= 1 << v
        return False

    return chosen if place(0) else None


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
    """Induced C4, C5, or pair of independent edges, if any."""
    for quad in combinations(range(g.n), 4):
        sub = [(x, y) for x, y in combinations(quad, 2) if g.has_edge(x, y)]
        if len(sub) == 2 and not set(sub[0]) & set(sub[1]):
            return "2K2", (*sub[0], *sub[1])
        if len(sub) == 4 and all(
                sum(1 for e in sub if v in e) == 2 for v in quad):
            a = quad[0]
            others = [v for v in quad if v != a and g.has_edge(a, v)]
            far = next(v for v in quad if v != a and v not in others)
            return "C4", (a, others[0], far, others[1])
    for quint in combinations(range(g.n), 5):
        sub = [(x, y) for x, y in combinations(quint, 2) if g.has_edge(x, y)]
        if len(sub) == 5 and all(
                sum(1 for e in sub if v in e) == 2 for v in quint):
            cycle = [quint[0]]
            used = {quint[0]}
            while len(cycle) < 5:
                cycle.append(next(v for v in quint
                                  if v not in used and g.has_edge(cycle[-1], v)))
                used.add(cycle[-1])
            return "C5", tuple(cycle)
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
        hood = list(bits(g.adj[center]))
        for trio in combinations(hood, 3):
            if not any(g.has_edge(x, y) for x, y in combinations(trio, 2)):
                return (center, *trio)
    return None
