"""Named graph families with deterministic labelings.

Each family hands ``from_edges`` a lazy edge iterable, so an oversized member
is refused by its vertex-count check before any pair is built.
"""

from __future__ import annotations

from itertools import chain, combinations

from .graphs import Graph, GraphError, from_edges


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return from_edges(n, combinations(range(n), 2))


def star(leaves: int) -> Graph:
    """K_{1,leaves}: center 0, leaves 1..leaves."""
    if leaves < 1:
        raise GraphError("star needs at least 1 leaf")
    return from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def wheel(n: int) -> Graph:
    """W_n on n vertices: hub 0 joined to the cycle 1..n-1."""
    if n < 4:
        raise GraphError("wheel needs at least 4 vertices")
    rim = ((i, i % (n - 1) + 1) for i in range(1, n))
    return from_edges(n, chain(rim, ((0, i) for i in range(1, n))))


def k_sun(k: int) -> Graph:
    """S_k: clique A = 0..k-1, independent B = k..2k-1, b_j ~ a_j and a_{j+1 mod k}."""
    if k < 3:
        raise GraphError("sun needs k >= 3")
    spokes = ((k + j, a) for j in range(k) for a in (j, (j + 1) % k))
    return from_edges(2 * k, chain(combinations(range(k), 2), spokes))


def matched_cliques(k: int) -> Graph:
    """Two disjoint K_k (0..k-1 and k..2k-1) joined by the matching i <-> i+k."""
    if k < 2:
        raise GraphError("matched cliques need k >= 2")
    pairs = chain(combinations(range(k), 2), combinations(range(k, 2 * k), 2),
                  ((i, k + i) for i in range(k)))
    return from_edges(2 * k, pairs)


FAMILIES = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "wheel": wheel,
    "k_sun": k_sun,
    "matched_cliques": matched_cliques,
}


def build_family(spec: str) -> Graph:
    """Construct a family member from a "name:parameter" string."""
    name, sep, arg = spec.partition(":")
    if not sep or name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphError(f"family spec must be name:parameter with name in {{{known}}}")
    try:
        parameter = int(arg)
    except ValueError:
        raise GraphError(f"family parameter {arg!r} is not an integer") from None
    return FAMILIES[name](parameter)
