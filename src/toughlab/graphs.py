"""Bitmask graphs on up to 64 vertices.

A vertex set is a plain int used as a bitmask, so all set algebra is
single-word arithmetic. Adjacency is stored as one bitmask row per vertex:
bit j of ``adj[i]`` means i and j are adjacent. The module also carries the
graph6 reader/writer, connected components, a canonical labeling for
isomorphism rejection, and exhaustive enumeration of small graphs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Iterable, Iterator

MAX_VERTICES = 64
GRAPH6_MAX_VERTICES = 62  # short form: length byte 63+n must stay below '~' (126)
# Largest vertex count of each enumerator. Canonical labeling serves them
# all, so it goes as far as the largest.
VERTEX_BOUNDS = {"graph_reps": 9, "connected_chordal_reps": 11}
_CANONICAL_MAX = max(VERTEX_BOUNDS.values())


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


def _lowest_runs(pool: int) -> list[int]:
    """[i]: the i lowest bits of the mask pool, for i = 0..|pool|."""
    runs = [0]
    for v in bits(pool):
        runs.append(runs[-1] | 1 << v)
    return runs


def subsets(pool: int, size: int) -> Iterator[int]:
    """Yield every size-element subset of the mask pool in increasing order.

    Gosper's hack with the carry run through the holes of pool: adding the
    lowest bit of x to x | ~pool clears the lowest run of x and sets the next
    free bit of pool; all but one bit of the run return to the bottom of pool.
    """
    lowest = _lowest_runs(pool)
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

    @classmethod
    def _unchecked(cls, n: int, rows) -> "Graph":
        """Graph from rows that keep every invariant __init__ checks (rows
        derived from a validated graph, or decoded from graph6), so none is
        checked again."""
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a mask."""
        return self.adj[v] | 1 << v

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u}, {v}) outside 0..{self.n - 1}")
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
        return Graph._unchecked(self.n, rows)

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

    Returns component masks ordered by least contained vertex. Each
    component grows from a frontier of newly reached vertices, and a vertex
    is reached only once, so every row is read at most once.
    """
    remaining = g.full_mask & ~removed
    adj = g.adj
    out = []
    while remaining:
        before = remaining
        frontier = remaining & -remaining
        remaining ^= frontier
        while frontier and remaining:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & remaining
            if new:
                remaining ^= new
                frontier |= new
        out.append(before ^ remaining)
    return out


def separates(comps: list[int], u: int, v: int) -> bool:
    """Whether u and v lie in different ones of the given components.

    False when no component holds u, that is, when u was removed.
    """
    for comp in comps:
        if comp >> u & 1:
            return not comp >> v & 1
    return False


def simplicial_mask(g: Graph) -> int:
    """Mask of the vertices whose neighbourhood is a clique: N(v) lies in
    N[w] for every neighbour w, tested until the first w that fails."""
    adj = g.adj
    mask = 0
    for v, hood in enumerate(adj):
        rest = hood
        while rest:
            low = rest & -rest
            if hood & ~adj[low.bit_length() - 1] != low:
                break
            rest ^= low
        else:
            mask |= 1 << v
    return mask


def separating_cuts(g: Graph, u: int, v: int, max_size: int,
                    pool: int = -1) -> Iterator[int]:
    """Yield every S inside pool, avoiding u and v, with |S| <= max_size
    that leaves u and v in different components of g - S.

    pool is a vertex mask, every vertex by default. Cuts come by increasing
    size, then increasing mask. This is the walk of every edge and
    vertex-pair search. Each S costs one partial search from u, which drops
    S as soon as it reaches N[v]; no component of g - S is built, so a
    caller that needs omega(g - S) computes it for the cuts it reads.
    """
    adj = g.adj
    near_v = g.closed(v)
    if near_v >> u & 1:  # u is v or next to it: never apart
        return
    pool &= g.full_mask & ~(1 << u) & ~(1 << v)
    start = g.full_mask ^ 1 << u
    for size in range(max_size + 1):
        for s in subsets(pool, size):
            remaining = start ^ s
            frontier = 1 << u
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = adj[low.bit_length() - 1] & remaining
                if new & near_v:
                    break
                remaining ^= new
                frontier |= new
            else:
                yield s


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
    if nbits % 6:
        pad = 6 - nbits % 6
        if (payload[-1] - 63) & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits")
    # the decoder sets both directions of pairs i < j < n only, so the rows
    # keep every invariant __init__ checks, and n is 1..62 by the bytes
    return Graph._unchecked(n, _graph6_rows(n, payload))


def _graph6_rows(n: int, payload: bytes) -> list[int]:
    """Adjacency rows of a graph6 payload: the upper triangle column by column."""
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if payload[pos // 6] - 63 >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return rows


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

def _member_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The set bits of every mask below 2**width, as tuples in increasing
    order: the members of m + 2**v, for m below 2**v, are those of m then v."""
    table: tuple[tuple[int, ...], ...] = ((),)
    for v in range(width):
        table += tuple(m + (v,) for m in table)
    return table


# _MEMBERS[m]: the vertices of mask m, for every mask canonical labeling meets
_MEMBERS = _member_table(_CANONICAL_MAX)


def _twin_masks(adj) -> list[int]:
    """Mask of each vertex's twin class: the vertices with the same open
    neighbourhood N(v) or the same closed one N[v].

    One dict keyed by the row serves both kinds, because no N[v] equals any
    N(w): it would put w in N[v], so w in N(w). Nor has a vertex twins of
    both kinds: with N[u] = N[v] and N(w) = N(v), u lies in N(w), so w in
    N[u] = N[v] and w in N(w). So the classes partition the vertices, and
    any permutation inside one class is an automorphism.
    """
    sharing: dict[int, int] = {}
    for v, row in enumerate(adj):
        sharing[row] = sharing.get(row, 0) | 1 << v
        sharing[row | 1 << v] = sharing.get(row | 1 << v, 0) | 1 << v
    return [sharing[row] | sharing[row | 1 << v] for v, row in enumerate(adj)]


def _refine(neighbors, colors: tuple[int, ...]) -> tuple[int, ...]:
    """Recolor each vertex by the rank of (its color, its neighbors' sorted
    colors) until no class splits; the result numbers the classes densely.

    A vertex alone in its class is ranked by its color alone, which orders
    it among the other classes just as the full signature would. Each round
    refines the last, so a round that adds no class has reached the
    fixpoint, and its ranks are the classes renumbered in color order:
    exactly what one more round would return.
    """
    while True:
        sizes = [0] * (max(colors) + 1)  # the colors passed in need not be dense
        for c in colors:
            sizes[c] += 1
        color_of = colors.__getitem__
        sigs = [(c, *sorted(map(color_of, nbrs))) if sizes[c] > 1 else (c,)
                for c, nbrs in zip(colors, neighbors)]
        ranked = sorted(set(sigs))
        colors = tuple(map({s: i for i, s in enumerate(ranked)}.__getitem__, sigs))
        if len(ranked) == len(sizes) - sizes.count(0):  # no class split
            return colors


def _canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex order whose induced adjacency key is minimal over the search."""
    if g.n > _CANONICAL_MAX:
        raise GraphError(f"canonical labeling limited to {_CANONICAL_MAX} vertices")
    n = g.n
    adj = g.adj
    neighbors = [_MEMBERS[row] for row in adj]
    twins = _twin_masks(adj)
    best_key = 1 << n * (n - 1) // 2  # above every key
    best_order: tuple[int, ...] = tuple(range(n))

    def leaf_key(order):
        # column j (the j vertices before order[j]) takes j bits, so the int
        # orders leaves as the tuple of columns would
        key = 0
        for j in range(1, n):
            vj = order[j]
            for i in range(j):
                key = key << 1 | (adj[order[i]] >> vj & 1)
        return key

    def descend(colors):
        nonlocal best_key, best_order
        # refined colors are dense: classes 0..max(colors), all singletons
        # at a leaf, and otherwise the least repeated color is the target
        if max(colors) == n - 1:
            order = tuple(sorted(range(n), key=colors.__getitem__))
            key = leaf_key(order)
            if key < best_key:
                best_key, best_order = key, order
            return
        ranks = sorted(colors)
        target = next(c for c, d in zip(ranks, ranks[1:]) if c == d)
        tried = 0  # one vertex per twin class: swapping twins is an automorphism
        doubled = [c * 2 for c in colors]
        for v in range(n):
            if colors[v] != target or twins[v] & tried:
                continue
            tried |= 1 << v
            doubled[v] += 1
            descend(_refine(neighbors, tuple(doubled)))
            doubled[v] -= 1

    # _refine only ranks signatures, so raw degrees start it as their ranks would
    descend(_refine(neighbors, tuple(row.bit_count() for row in adj)))
    return best_order


def relabel(g: Graph, order) -> Graph:
    """Graph with original vertex order[p] placed at position p."""
    n = g.n
    order = tuple(order)
    place = [0] * n
    for p, v in enumerate(order):
        place[v] = 1 << p
    members = _MEMBERS.__getitem__ if n <= _CANONICAL_MAX else bits
    return Graph._unchecked(n, [sum(map(place.__getitem__, members(g.adj[v]))) for v in order])


def canonical_graph(g: Graph) -> Graph:
    """Canonically labeled copy: equal results exactly for isomorphic inputs."""
    return relabel(g, _canonical_order(g))


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _augment(parent: Graph, neighborhood: int) -> Graph:
    """Attach one new highest-index vertex with the given neighborhood mask."""
    n = parent.n + 1
    top = 1 << (n - 1)
    rows = [row | top if neighborhood >> i & 1 else row for i, row in enumerate(parent.adj)]
    rows.append(neighborhood)
    return Graph._unchecked(n, rows)


def _children(parent: Graph, neighborhoods: Iterable[int],
              simplicial: int | None = None) -> set[str]:
    """Canonical graph6 keys of parent grown by a new vertex x over each
    neighborhood K, labeling a child only when no other deletable vertex
    has a larger invariant than x: its degree, then its sorted neighbour
    degrees. Every vertex is deletable, or only the simplicial ones when
    simplicial, the parent's simplicial mask, is given. No class C is lost:
    for a deletable w of C with the largest invariant, the representative
    of C - w grown over the image of N(w) is C with x in w's place. The
    degree test reads the parent: u has child degree deg(u) + [u in K] and
    is simplicial in the child iff it is in the parent and, if u is in K,
    N(u) lies in K.

    Of the neighborhoods that one permutation inside the parent's twin
    classes (``_twin_masks``) maps onto each other, only the one that meets
    every class T in its |K & T| lowest vertices is grown. Such a
    permutation s is an automorphism of the parent: it maps cliques to
    cliques and keeps the simplicial mask, and the child over s(K) is the
    child over K relabeled by s with x fixed. So the two children are
    isomorphic, and x passes the invariant test in one exactly when it does
    in the other. The lowest-run neighborhood lies in the same orbit, is
    itself in the family (all masks, or the nonempty cliques), and keeps
    the key.
    """
    adj = parent.adj
    # at_least[k]: the parent's vertices of degree >= k; [-1] is empty
    at_least = [sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= k)
                for k in range(parent.n + 2)]
    # lowest_runs: the unions, over the twin classes of two or more, of one
    # lowest run of each class; K is grown iff K & paired is one of them
    paired = 0
    lowest_runs = {0}
    for twins in set(_twin_masks(adj)):
        if twins & twins - 1:
            paired |= twins
            lowest_runs = {low | run for low in lowest_runs for run in _lowest_runs(twins)}
    keys = set()
    for nb in neighborhoods:
        if nb & paired not in lowest_runs:
            continue
        d = nb.bit_count()
        deletable = -1 if simplicial is None else simplicial & ~sum(
            1 << u for u in bits(simplicial & nb) if adj[u] & ~nb)
        if (at_least[d + 1] & ~nb | at_least[d] & nb) & deletable:  # a larger degree
            continue
        tied = (at_least[d] & ~nb | at_least[d - 1] & nb) & deletable
        child = _augment(parent, nb)
        if tied:
            degree = [row.bit_count() for row in child.adj]
            mine = sorted(degree[v] for v in bits(nb))
            if any(sorted(degree[v] for v in bits(child.adj[u])) > mine for u in bits(tied)):
                continue
        keys.add(to_graph6(canonical_graph(child)))
    return keys


def _any_children(parent: Graph) -> set[str]:
    """Canonical graph6 keys of parent grown by a vertex over every neighborhood."""
    return _children(parent, range(1 << parent.n))


def _chordal_children(parent: Graph) -> set[str]:
    """Canonical graph6 keys of parent grown by a simplicial vertex."""
    return _children(parent, clique_masks(parent)[1:], simplicial_mask(parent))  # [0] is empty


# How an enumeration level maps its children worker over the parents: the
# builtin map, or a worker pool's map inside ``level_map``.
_level_map: ContextVar[Callable] = ContextVar("level_map", default=map)


@contextmanager
def level_map(mapper: Callable) -> Iterator[None]:
    """Grow the enumeration levels computed inside the block with mapper, a
    worker pool's ``map`` say, in place of the builtin map.

    Levels come out the same either way and keep their lru_cache entries,
    which are keyed by n alone. The worker and the parents are pickled for
    a pool, so the workers are module-level functions.
    """
    token = _level_map.set(mapper)
    try:
        yield
    finally:
        _level_map.reset(token)


def _augmented_reps(n: int, smaller: Callable[[int], tuple[Graph, ...]],
                    children: Callable[[Graph], set[str]]) -> tuple[Graph, ...]:
    """One enumeration level: map children over the representatives on n-1
    vertices, merge the canonical keys they return and build one graph per
    class, sorted by canonical graph6 key so enumeration order is
    reproducible. smaller is the enumerator itself, whose name keys its
    bound in VERTEX_BOUNDS."""
    bound = VERTEX_BOUNDS[smaller.__name__]
    if not 1 <= n <= bound:
        raise GraphError(f"{smaller.__name__} limited to 1..{bound} vertices")
    if n == 1:
        return (Graph(1, (0,)),)
    keys = set().union(*_level_map.get()(children, smaller(n - 1)))
    # the keys are this module's own output: decoded without re-validation
    return tuple(Graph._unchecked(n, _graph6_rows(n, k[1:].encode("ascii")))
                 for k in sorted(keys))


@lru_cache(maxsize=None)
def graph_reps(n: int) -> tuple[Graph, ...]:
    """One canonically labeled representative per isomorphism class.

    Deleting any vertex of a graph on n >= 2 vertices leaves a graph on n-1
    vertices, so augmenting every (n-1)-vertex representative over all
    neighborhood masks reaches every class. Output is sorted by canonical
    graph6 key.
    """
    return _augmented_reps(n, graph_reps, _any_children)


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
    nonempty clique masks and deduplicating is exhaustive. Labeling only the
    children whose new vertex has the largest invariant among their
    simplicial vertices loses no class: deleting a simplicial w of the
    largest leaves a connected chordal graph, whose representative grown over
    N(w) gives the class back (``_children``).
    """
    return _augmented_reps(n, connected_chordal_reps, _chordal_children)
