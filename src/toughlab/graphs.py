"""Bitmask graphs on up to 64 vertices.

A vertex set is a plain int used as a bitmask, so all set algebra is
single-word arithmetic. Adjacency is stored as one bitmask row per vertex:
bit j of ``adj[i]`` means i and j are adjacent. The module also carries the
graph6 reader/writer, connected components, a canonical labeling for
isomorphism rejection, and exhaustive enumeration of small graphs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

MAX_VERTICES = 64
GRAPH6_MAX_VERTICES = 62  # short form: length byte 63+n must stay below '~' (126)
CANONICAL_MAX_VERTICES = 10
ENUMERATION_MAX_VERTICES = 9


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class Graph6Error(GraphError):
    """Malformed graph6 text."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def subsets(pool: int, size: int) -> Iterator[int]:
    """Yield every size-element subset of the mask pool in increasing order.

    Gosper's hack with the carry run through the holes of pool: adding the
    lowest bit of x to x | ~pool clears the lowest run of x and sets the next
    free bit of pool; all but one bit of the run return to the bottom of pool.
    """
    lowest = [0]  # lowest[i]: the i lowest bits of pool
    for v in bits(pool):
        lowest.append(lowest[-1] | 1 << v)
    if size >= len(lowest):
        return
    x = lowest[size]
    while True:
        yield x
        ripple = ((x | ~pool) + (x & -x)) & pool
        if not ripple:
            return
        x = ripple | lowest[size - ripple.bit_count()]


class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        rows = tuple(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise GraphError(f"row {i} has bits at or above vertex count {n}")
            if row >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        for i, row in enumerate(rows):
            for j in bits(row):
                if not rows[j] >> i & 1:
                    raise GraphError(f"asymmetric adjacency between {i} and {j}")
        self.n = n
        self.adj = rows

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a mask."""
        return self.adj[v] | 1 << v

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def is_complete(self) -> bool:
        full = self.full_mask
        return all(self.adj[v] == full ^ 1 << v for v in range(self.n))

    def is_connected(self) -> bool:
        return len(components(self)) == 1

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u}, {v}) to remove")
        rows = list(self.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(self.n, rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, edges={list(self.edges())})"


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def components(g: Graph, removed: int = 0) -> list[int]:
    """Connected components of g minus the removed vertex set.

    Returns component masks ordered by least contained vertex.
    """
    remaining = g.full_mask & ~removed
    adj = g.adj
    out = []
    while remaining:
        comp = remaining & -remaining
        while True:
            grown = comp
            m = comp
            while m:
                low = m & -m
                grown |= adj[low.bit_length() - 1]
                m ^= low
            grown &= remaining
            if grown == comp:
                break
            comp = grown
        out.append(comp)
        remaining &= ~comp
    return out


def separates(comps: list[int], u: int, v: int) -> bool:
    """Whether u and v lie in different ones of the given components.

    False when no component holds u, that is, when u was removed.
    """
    for comp in comps:
        if comp >> u & 1:
            return not comp >> v & 1
    return False


# ---------------------------------------------------------------------------
# graph6 short form
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line (trailing newline tolerated)."""
    data = text.rstrip("\r\n")
    if not data:
        raise Graph6Error("empty graph6 string")
    try:
        raw = data.encode("ascii")
    except UnicodeEncodeError:
        raise Graph6Error("graph6 bytes must be ASCII 63..126") from None
    for c in raw:
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range 63..126")
    if raw[0] == 126:
        raise Graph6Error("long-form length byte '~' not supported (short form only)")
    n = raw[0] - 63
    if n == 0:
        raise Graph6Error("vertex count 0 out of range")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = raw[1:]
    if len(payload) != need:
        raise Graph6Error(f"expected {need} payload bytes for n={n}, got {len(payload)}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            group = payload[pos // 6] - 63
            if group >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    if nbits % 6:
        pad = 6 - nbits % 6
        if (payload[-1] - 63) & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits")
    return Graph(n, rows)


def to_graph6(g: Graph) -> str:
    """Encode under the current labeling; short form only (n <= 62)."""
    if g.n > GRAPH6_MAX_VERTICES:
        raise GraphError(f"graph6 short form limited to {GRAPH6_MAX_VERTICES} vertices")
    out = bytearray([g.n + 63])
    group = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            group = group << 1 | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = 0
                filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


def write_graph6_lines(graphs, destination) -> None:
    """One graph per line, LF-terminated."""
    for g in graphs:
        destination.write(to_graph6(g) + "\n")


def read_graph6_lines(source) -> Iterator[Graph]:
    for line in source:
        line = line.strip()
        if line:
            yield parse_graph6(line)


# ---------------------------------------------------------------------------
# Canonical labeling
#
# Iterated equitable refinement (color = rank of (old color, sorted neighbor
# colors)) drives an individualization search over the first non-singleton
# color class. Branch candidates collapse twin vertices (pairs whose swap is
# an automorphism), which keeps complete and complete-multipartite graphs
# from exploding. The refinement is pruning only; correctness rests on
# exploring every non-equivalent completion and taking the least key.
# ---------------------------------------------------------------------------

def _twin_partition(g: Graph) -> tuple[int, ...]:
    """Least member of each vertex's twin class (u, v twins: N(u)-{v} == N(v)-{u}).

    True twins (N[u] == N[v]) and false twins (N(u) == N(v)) each form
    classes, and no vertex has both kinds: a true twin u of v lies in
    N(v) = N(w) for a false twin w of v, putting w in N[u] = N[v], yet w is
    not adjacent to v. So one of v's two classes is {v} and min picks the other.
    """
    first_closed: dict[int, int] = {}
    first_open: dict[int, int] = {}
    for v in range(g.n):
        first_closed.setdefault(g.closed(v), v)
        first_open.setdefault(g.adj[v], v)
    return tuple(min(first_closed[g.closed(v)], first_open[g.adj[v]]) for v in range(g.n))


def _refine(neighbors, colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sigs = [(colors[v], *sorted(colors[u] for u in neighbors[v]))
                for v in range(len(colors))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def _canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex order whose induced adjacency key is minimal over the search."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise GraphError(f"canonical labeling limited to {CANONICAL_MAX_VERTICES} vertices")
    n = g.n
    adj = g.adj
    neighbors = [tuple(bits(row)) for row in adj]
    twin = _twin_partition(g)
    best_key: Optional[tuple[int, ...]] = None
    best_order: tuple[int, ...] = tuple(range(n))

    def leaf_key(order):
        cols = []
        for j in range(1, n):
            vj = order[j]
            col = 0
            for i in range(j):
                col = col << 1 | (adj[order[i]] >> vj & 1)
            cols.append(col)
        return tuple(cols)

    def descend(colors):
        nonlocal best_key, best_order
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            order = tuple(sorted(range(n), key=colors.__getitem__))
            key = leaf_key(order)
            if best_key is None or key < best_key:
                best_key, best_order = key, order
            return
        seen_twins = set()
        for v in range(n):
            if colors[v] != target or twin[v] in seen_twins:
                continue
            seen_twins.add(twin[v])
            split = tuple(colors[u] * 2 + (1 if u == v else 0) for u in range(n))
            descend(_refine(neighbors, split))

    descend(_refine(neighbors, (0,) * n))
    return best_order


def relabel(g: Graph, order) -> Graph:
    """Graph with original vertex order[p] placed at position p."""
    n = g.n
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    rows = [0] * n
    for v in range(n):
        r = 0
        for u in bits(g.adj[v]):
            r |= 1 << pos[u]
        rows[pos[v]] = r
    return Graph(n, rows)


def canonical_graph(g: Graph) -> Graph:
    """Canonically labeled copy: equal results exactly for isomorphic inputs."""
    return relabel(g, _canonical_order(g))


def canonical_form(g: Graph) -> bytes:
    """Label-invariant key; the graph6 bytes of the canonical labeling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _augment(parent: Graph, neighborhood: int) -> Graph:
    """Attach one new highest-index vertex with the given neighborhood mask."""
    n = parent.n + 1
    top = 1 << (n - 1)
    rows = [parent.adj[i] | (top if neighborhood >> i & 1 else 0)
            for i in range(n - 1)]
    rows.append(neighborhood)
    return Graph(n, rows)


def _augmented_reps(n: int, smaller: Callable[[int], tuple[Graph, ...]],
                    neighborhoods: Callable[[Graph], Iterable[int]]) -> tuple[Graph, ...]:
    """Grow each representative on n-1 vertices by one vertex over each of
    its candidate neighborhoods; keep one canonical copy per class, sorted by
    canonical graph6 key so enumeration order is reproducible."""
    if not 1 <= n <= ENUMERATION_MAX_VERTICES:
        raise GraphError(f"enumeration limited to 1..{ENUMERATION_MAX_VERTICES} vertices")
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[str, Graph] = {}
    for parent in smaller(n - 1):
        for neighborhood in neighborhoods(parent):
            can = canonical_graph(_augment(parent, neighborhood))
            seen.setdefault(to_graph6(can), can)
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def graph_reps(n: int) -> tuple[Graph, ...]:
    """One canonically labeled representative per isomorphism class.

    Deleting any vertex of a graph on n >= 2 vertices leaves a graph on n-1
    vertices, so augmenting every (n-1)-vertex representative over all
    neighborhood masks reaches every class. Output is sorted by canonical
    graph6 key.
    """
    return _augmented_reps(n, graph_reps, lambda parent: range(1 << parent.n))


def clique_masks(g: Graph) -> list[int]:
    """All complete vertex subsets, the empty set included."""
    out = [0]

    def grow(current: int, allowed: int):
        for v in bits(allowed):
            m = current | 1 << v
            out.append(m)
            grow(m, allowed & g.adj[v] & ~((1 << (v + 1)) - 1))

    grow(0, g.full_mask)
    return out


@lru_cache(maxsize=None)
def connected_chordal_reps(n: int) -> tuple[Graph, ...]:
    """Connected chordal representatives via simplicial-vertex augmentation.

    Every connected chordal graph on n >= 2 vertices arises from a connected
    chordal graph on n-1 vertices by attaching a vertex whose neighborhood is
    a nonempty clique (reverse perfect elimination), so growing over all
    nonempty clique masks and deduplicating is exhaustive.
    """
    return _augmented_reps(n, connected_chordal_reps,
                           lambda parent: clique_masks(parent)[1:])  # [0] is empty


def enumerate_graphs(n: int,
                     predicate: Optional[Callable[[Graph], bool]] = None,
                     consumer: Optional[Callable[[Graph], None]] = None) -> int:
    """Feed one representative per isomorphism class to consumer; return count."""
    count = 0
    for g in graph_reps(n):
        if predicate is not None and not predicate(g):
            continue
        if consumer is not None:
            consumer(g)
        count += 1
    return count
