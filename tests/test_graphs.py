"""Graph core: construction, graph6 round-trips, components, the subset and
separating-cut walks checked against their definitions, canonical labeling
checked against a permutation oracle, enumeration checked against an
independent edge-mask sweep."""

import hashlib
import multiprocessing
import random
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toughlab import graphs
from toughlab.families import FAMILIES, complete, cycle, star, wheel
from toughlab.graphs import (
    Graph,
    Graph6Error,
    GraphError,
    bits,
    canonical_graph,
    components,
    connected_chordal_reps,
    from_edges,
    graph_reps,
    has_parts,
    level_map,
    mask_of,
    parse_graph6,
    relabel,
    separating_cuts,
    simplicial_mask,
    subsets,
    to_graph6,
    universal_mask,
)
from toughlab.graphs import _augment


def brute_isomorphic(g, h):
    """Oracle: try every vertex permutation."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    g_edges = set(g.edges())
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in set(h.edges())
               for u, v in g_edges):
            return True
    return False


def labeled_graphs(n):
    """Every labeled graph on n vertices, one per edge mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in bits(mask)])


def sweep_classes(n):
    """Oracle: all edge masks grouped into isomorphism classes by brute force."""
    reps = []
    for g in labeled_graphs(n):
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return from_edges(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                                  if part[u] != part[v]])


def family_members():
    """(family name, parameter, graph) for each family at every size it
    takes from 4 to 62 vertices."""
    members = []
    for build in FAMILIES.values():
        for parameter in range(1, 63):
            try:
                g = build(parameter)
            except GraphError:
                continue
            if g.n >= 4:
                members.append((build.__name__, parameter, g))
    return members


FAMILY_MEMBERS = family_members()


@st.composite
def edge_lists(draw):
    """A vertex count from 1 to 62 and a list of loop-free pairs over it."""
    n = draw(st.integers(1, 62))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])))


P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestConstruction:
    def test_from_edges_triangle(self):
        assert sorted(K3.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert K3.is_complete()

    def test_from_edges_path(self):
        assert sorted(P4.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert P4.degree(1) == 2 and P4.degree(0) == 1

    def test_edgeless(self):
        g = from_edges(2, [])
        assert g.edge_count() == 0 and not g.is_connected()

    def test_duplicate_edges_collapse(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            from_edges(3, [(0, 3)])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(GraphError):
            from_edges(0, [])
        with pytest.raises(GraphError):
            from_edges(65, [])

    def test_refuses_past_graph6_short_form(self):
        # the one size limit, so every graph has a graph6 string
        for build in (lambda: Graph(63, (0,) * 63), lambda: from_edges(63, [])):
            with pytest.raises(GraphError, match=r"outside 1\.\.62"):
                build()

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_from_edges_rows_pass_the_checked_constructor(self):
        # from_edges builds its graph unchecked; the checked constructor
        # must still accept every family member's rows
        for name, parameter, g in FAMILY_MEMBERS:
            assert Graph(g.n, g.adj) == g, (name, parameter)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(edge_lists())
    def test_from_edges_rows_pass_the_checked_constructor_on_edge_lists(self, case):
        # every other pair is sent reversed too, and every third one twice;
        # the rest appear once, so a row that from_edges forgets shows
        n, pairs = case
        g = from_edges(n, pairs + [(v, u) for u, v in pairs[::2]] + pairs[::3])
        assert Graph(g.n, g.adj) == g
        assert set(g.edges()) == {(min(u, v), max(u, v)) for u, v in pairs}

    def test_rejects_high_bits(self):
        with pytest.raises(GraphError):
            Graph(2, (0b100, 0b000))

    def test_without_edge(self):
        g = C4.without_edge(0, 1)
        assert not g.has_edge(0, 1) and g.edge_count() == 3
        with pytest.raises(GraphError):
            C4.without_edge(0, 2)

    def test_symmetry_validator_over_enumeration(self):
        for g in graph_reps(5):
            for i in range(g.n):
                assert not g.adj[i] >> i & 1
                for j in bits(g.adj[i]):
                    assert g.adj[j] >> i & 1


bounded = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def reference_graph6(g):
    """The writer bit by bit: x(i, j) for i < j, column j by column, six
    bits a byte, the last byte padded with zero bits."""
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


@st.composite
def any_short_form_graphs(draw):
    """A graph on 1 to 62 vertices, its upper triangle drawn as one int."""
    n = draw(st.integers(1, 62))
    triangle = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    return from_edges(n, [p for k, p in enumerate(combinations(range(n), 2))
                          if triangle >> k & 1])


class TestGraph6:
    def test_decode_k3(self):
        # 'B' = 63+3, 'w' = 63 + 0b111000: bits x(0,1), x(0,2), x(1,2) all set
        g = parse_graph6("Bw")
        assert g == K3

    def test_decode_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count() == 0

    def test_encode_k3(self):
        assert to_graph6(K3) == "Bw"

    def test_encode_single_vertex(self):
        assert to_graph6(Graph(1, (0,))) == "@"

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("Bw\n") == K3

    def test_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_rejects_long_form(self):
        with pytest.raises(Graph6Error, match="long-form"):
            parse_graph6("~??")

    def test_rejects_byte_out_of_range(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B ")
        with pytest.raises(Graph6Error):
            parse_graph6("Bé")

    def test_rejects_payload_length_mismatch(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B")
        with pytest.raises(Graph6Error):
            parse_graph6("Bww")

    def test_rejects_nonzero_padding(self):
        # n=3 uses 3 payload bits; 'x' = 0b111001 sets a padding bit
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("Bx")

    def test_rejects_n_zero(self):
        with pytest.raises(Graph6Error):
            parse_graph6("?")

    def test_encode_rejects_beyond_short_form(self):
        with pytest.raises(GraphError):
            to_graph6(Graph(63, (0,) * 63))

    def test_round_trip_all_graphs_up_to_5(self):
        for n in range(1, 6):
            for g in graph_reps(n):
                assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_empty_and_complete_up_to_62(self):
        for n in range(1, 63):
            for g in (from_edges(n, []), complete(n)):
                assert parse_graph6(to_graph6(g)) == g

    def test_string_round_trip(self):
        for g in graph_reps(4):
            s = to_graph6(g)
            assert to_graph6(parse_graph6(s)) == s

    def test_every_short_form_up_to_5_is_valid_and_round_trips(self):
        # every payload with zero padding: the unvalidated decoded rows pass
        # the checks of Graph.__init__ and encode back to the same text
        for n in range(1, 6):
            nbits = n * (n - 1) // 2
            width = (nbits + 5) // 6
            for payload in range(1 << nbits):
                padded = payload << (6 * width - nbits)
                text = chr(63 + n) + "".join(chr(63 + (padded >> 6 * (width - 1 - i) & 63))
                                             for i in range(width))
                g = parse_graph6(text)
                assert type(g.adj) is tuple and Graph(g.n, g.adj) == g
                assert to_graph6(g) == text

    def test_decoder_matches_a_per_position_reference_up_to_62(self):
        # the decoder against the upper triangle read bit by bit, on every
        # n, so on every padding width; random, edgeless and complete
        def reference_rows(n, payload):
            rows = [0] * n
            pos = 0
            for j in range(1, n):
                for i in range(j):
                    if payload[pos // 6] - 63 >> (5 - pos % 6) & 1:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    pos += 1
            return rows

        rng = random.Random(35)
        for n in range(1, 63):
            pairs = list(combinations(range(n), 2))
            cases = [from_edges(n, []), complete(n)]
            cases += [from_edges(n, [p for p in pairs if rng.random() < odds])
                      for odds in (0.1, 0.5, 0.9)]
            for g in cases:
                payload = to_graph6(g)[1:].encode("ascii")
                assert graphs._graph6_rows(n, payload) == reference_rows(n, payload) == list(g.adj)

    def test_column_table_matches_its_definition(self):
        # rev_j(x): the j low bits of x read from bit 0 up, one bit at a time
        def rev(j, x):
            return sum((x >> i & 1) << (j - 1 - i) for i in range(j))

        table = graphs._REVERSED
        assert table == tuple(rev(10, x) for x in range(1 << 10))
        for j in range(11):
            assert [table[x] >> (10 - j) for x in range(1 << j)] == [
                rev(j, x) for x in range(1 << j)]

    def test_writer_matches_the_bit_loop_on_every_class_to_7(self):
        for n in range(1, 8):
            for g in graph_reps(n):
                assert to_graph6(g) == reference_graph6(g)

    def test_writer_matches_the_bit_loop_on_families_to_62(self):
        # on both sides of the table's column width
        for name, parameter, g in FAMILY_MEMBERS:
            assert to_graph6(g) == reference_graph6(g), (name, parameter)
        assert {g.n for _, _, g in FAMILY_MEMBERS} == set(range(4, 63))

    @bounded
    @given(any_short_form_graphs())
    def test_writer_matches_the_bit_loop(self, g):
        assert to_graph6(g) == reference_graph6(g)

    def test_line_file_round_trip(self, tmp_path):
        from toughlab.graphs import read_graph6_lines
        target = tmp_path / "all4.g6"
        target.write_text("".join(to_graph6(g) + "\n" for g in graph_reps(4)))
        text = target.read_text()
        assert text.endswith("\n") and len(text.splitlines()) == 11
        with open(target) as fh:
            assert list(read_graph6_lines(fh)) == list(graph_reps(4))


def reached(g, removed, u):
    """Oracle: the vertices a plain search from u reaches in g - removed."""
    seen, todo = {u}, [u]
    while todo:
        for w in bits(g.adj[todo.pop()] & ~removed):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def reaches(g, removed, u, v):
    return v in reached(g, removed, u)


def components_oracle(g, removed):
    """Oracle: one plain search from each least vertex not reached yet."""
    out, left = [], [v for v in range(g.n) if not removed >> v & 1]
    while left:
        comp = reached(g, removed, left[0])
        out.append(mask_of(comp))
        left = [v for v in left if v not in comp]
    return out


@st.composite
def graphs_with_removed_sets(draw):
    """A graph on 10 to 20 vertices and a removed set of up to a third of
    them. A randomly ordered path keeps each edge with odds 4 in 5, so the
    components run long; other pairs join with a drawn odds of 0 to 3 in 20."""
    n = draw(st.integers(10, 20))
    order = draw(st.permutations(range(n)))
    edges = [(a, b) for a, b in zip(order, order[1:]) if draw(st.integers(0, 4))]
    odds = draw(st.integers(0, 3))
    edges += [p for p in combinations(range(n), 2) if draw(st.integers(0, 19)) < odds]
    removed = mask_of(draw(st.lists(st.integers(0, n - 1), max_size=n // 3)))
    return from_edges(n, edges), removed


class TestComponents:
    def test_path_cut_vertex(self):
        assert components(P4, mask_of([1])) == [mask_of([0]), mask_of([2, 3])]

    def test_complete_connected(self):
        assert components(K4) == [K4.full_mask]

    def test_c4_opposite_pair(self):
        # oracle: removing {0, 2} strands 1 and 3 with no edge between them
        assert components(C4, mask_of([0, 2])) == [mask_of([1]), mask_of([3])]

    def test_sizes_partition_remainder(self):
        for g in graph_reps(5):
            for removed in range(1 << g.n):
                comps = components(g, removed)
                assert sum(c.bit_count() for c in comps) == g.n - (removed & g.full_mask).bit_count()

    def test_connected_iff_one_component(self):
        for g in graph_reps(5):
            assert g.is_connected() == (len(components(g)) == 1)

    def test_masks_and_order_match_search_oracle_up_to_6(self):
        for n in range(1, 7):
            for g in graph_reps(n):
                for removed in range(1 << n):
                    assert components(g, removed) == components_oracle(g, removed), (g, removed)

    @bounded
    @given(graphs_with_removed_sets())
    def test_long_components_match_search_oracle(self, case):
        g, removed = case
        assert components(g, removed) == components_oracle(g, removed)


@st.composite
def sparse_graphs_with_removed_sets(draw):
    """A graph on 1 to 62 vertices, each pair an edge with a drawn odds of 0
    to 6 in n, so the part counts range from one to many, and a removed set
    with a drawn odds of 0 to 2 in 4 per vertex."""
    n = draw(st.integers(1, 62))
    rng = draw(st.randoms(use_true_random=False))
    odds, cut = draw(st.integers(0, 6)), draw(st.integers(0, 2))
    edges = [p for p in combinations(range(n), 2) if rng.randrange(n) < odds]
    return from_edges(n, edges), mask_of(v for v in range(n) if rng.randrange(4) < cut)


class TestHasParts:
    """has_parts, which stops counting components early, against the length
    of the full component list, for every need from 0 to n + 1."""

    def test_matches_component_count_up_to_6(self):
        for n in range(1, 7):
            for g in graph_reps(n):
                for removed in range(1 << n):
                    parts = len(components(g, removed))
                    for need in range(n + 2):
                        assert has_parts(g.adj, g.full_mask & ~removed, need) == (parts >= need), \
                            (g, removed, need)

    @bounded
    @given(sparse_graphs_with_removed_sets())
    def test_matches_component_count_up_to_62(self, case):
        g, removed = case
        parts = len(components(g, removed))
        for need in range(g.n + 2):
            assert has_parts(g.adj, g.full_mask & ~removed, need) == (parts >= need), need


class TestSubsets:
    @pytest.mark.parametrize("pool", [0, 0b1, 0b1011, 0b110100, 0b1111111, 0b1010010110])
    def test_matches_combinations_in_mask_order(self, pool):
        # size 0 yields the empty set once, sizes above popcount(pool) nothing
        for size in range(pool.bit_count() + 2):
            expected = sorted(mask_of(c) for c in combinations(bits(pool), size))
            assert list(subsets(pool, size)) == expected


def separating_cuts_oracle(g, u, v, max_size):
    """Oracle: every (S, far) by brute force on g - uv, by size then mask,
    far the vertices of (g - uv) - S that a plain search from u misses."""
    h = g.without_edge(u, v) if g.has_edge(u, v) else g
    others = g.full_mask & ~(1 << u) & ~(1 << v)
    return [(s, h.full_mask ^ s ^ mask_of(reached(h, s, u)))
            for s in sorted(range(1 << g.n), key=lambda s: (s.bit_count(), s))
            if not s & ~others and s.bit_count() <= max_size and not reaches(h, s, u, v)]


@st.composite
def graphs_with_pairs(draw):
    """A graph on 7 to 12 vertices, each pair an edge with a drawn odds of
    1 to 7 in 10, and two distinct vertices of it."""
    n = draw(st.integers(7, 12))
    odds = draw(st.integers(1, 7))
    g = from_edges(n, [p for p in combinations(range(n), 2) if draw(st.integers(0, 9)) < odds])
    u, v = draw(st.permutations(range(n)))[:2]
    return g, u, v


class TestSeparatingCuts:
    def test_matches_definition_up_to_6(self):
        # adjacent pairs are asked in g - uv, so every pair has cuts
        for n in range(2, 7):
            for g in graph_reps(n):
                for u, v in permutations(range(n), 2):
                    cuts = separating_cuts_oracle(g, u, v, n)
                    for max_size in range(n + 1):
                        expected = [cut for cut in cuts if cut[0].bit_count() <= max_size]
                        assert list(separating_cuts(g, u, v, max_size)) == expected, (g, u, v)

    @bounded
    @given(graphs_with_pairs())
    def test_matches_definition_up_to_12(self, case):
        g, u, v = case
        assert list(separating_cuts(g, u, v, g.n)) == separating_cuts_oracle(g, u, v, g.n)

    def test_a_vertex_is_never_apart_from_itself(self):
        for g in graph_reps(5):
            for u in range(g.n):
                assert list(separating_cuts(g, u, u, g.n)) == [], (g, u)

    def test_the_walk_builds_no_components_up_to_6(self, monkeypatch):
        # each cut costs one partial search from u, which leaves far; the
        # components of g - S are left to the callers that read them
        built = []
        monkeypatch.setattr(graphs, "components", lambda g, removed=0: built.append(removed))
        for n in range(2, 7):
            for g in graph_reps(n):
                for u, v in permutations(range(n), 2):
                    assert all(type(cut) is tuple and list(map(type, cut)) == [int, int]
                               for cut in separating_cuts(g, u, v, n)), (g, u, v)
        assert built == []

    def test_skips_the_simplicial_vertices_of_g_minus_uv_up_to_6(self):
        for n in range(2, 7):
            for g in graph_reps(n):
                for u, v in combinations(range(n), 2):
                    assert skipping_walk(g, u, v) == skipping_oracle(g, u, v), (g, u, v)

    @bounded
    @given(graphs_with_pairs())
    def test_skips_the_simplicial_vertices_of_g_minus_uv_up_to_12(self, case):
        g, u, v = case
        assert skipping_walk(g, u, v) == skipping_oracle(g, u, v)


def skipping_walk(g, u, v):
    return list(separating_cuts(g, u, v, g.n, simplicial_mask(g)))


def skipping_oracle(g, u, v):
    """The unskipped walk without the cuts that hold a simplicial vertex of
    g - uv other than u and v, found on g - uv itself."""
    h = g.without_edge(u, v) if g.has_edge(u, v) else g
    skipped = simplicial_mask(h)
    return [(s, far) for s, far in separating_cuts(g, u, v, g.n) if not s & skipped]


class TestUniversalMask:
    def test_matches_definition_up_to_7(self):
        for n in range(1, 8):
            for g in graph_reps(n):
                assert universal_mask(g) == universal_oracle(g), g

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_definition_on_the_families(self, name):
        for size in range(4, 12):
            g = FAMILIES[name](size)
            assert universal_mask(g) == universal_oracle(g), (name, size)


def universal_oracle(g):
    """The vertices of degree n - 1, one degree at a time."""
    return mask_of(v for v in range(g.n) if g.degree(v) == g.n - 1)


def canonical_key(g):
    return to_graph6(canonical_graph(g))


class TestCanonical:
    def test_relabeled_path_equal_keys(self):
        other = from_edges(4, [(1, 3), (3, 0), (0, 2)])  # path 1-3-0-2
        assert canonical_key(P4) == canonical_key(other)

    def test_c4_p4_distinct(self):
        assert canonical_key(C4) != canonical_key(P4)

    def test_p4_vs_triangle_plus_isolated(self):
        k3_plus = from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert canonical_key(P4) != canonical_key(k3_plus)

    def test_rejects_large_graph(self):
        with pytest.raises(GraphError):
            canonical_key(from_edges(12, []))

    def test_key_matches_isomorphism_oracle_n4(self):
        reps = sweep_classes(4)
        for g, h in combinations(reps, 2):
            assert (canonical_key(g) == canonical_key(h)) == brute_isomorphic(g, h)

    def test_key_invariant_under_random_relabeling(self):
        rng = random.Random(7)
        for g in graph_reps(6)[::13]:
            order = list(range(g.n))
            rng.shuffle(order)
            assert canonical_key(relabel(g, order)) == canonical_key(g)

    @pytest.mark.parametrize("g, calls", [
        (complete(11), 11), (star(10), 10), (complete_multipartite(5, 6), 10),
        (complete_multipartite(3, 4, 4), 17), (cycle(11), 34), (wheel(11), 31),
    ])
    def test_twin_pruning_bounds_the_search(self, monkeypatch, g, calls):
        # without pruning twins, K_11 alone would branch 11! times; the
        # counter fails at its cap instead of letting a lost prune hang
        refine = graphs._refine
        made = []

        def counted(*args):
            made.append(args)
            if len(made) > 200:
                raise RuntimeError("over 200 refinements: twin pruning lost")
            return refine(*args)

        monkeypatch.setattr(graphs, "_refine", counted)
        canonical_graph(g)
        assert len(made) == calls

    def test_canonical_graph_is_isomorphic_to_input(self):
        for g in graph_reps(5)[::5]:
            assert brute_isomorphic(g, canonical_graph(g))


def reference_refine(neighbors, colors):
    """The refinement by rank of (colour, sorted neighbour colours), rounds
    until no class splits: the definition the cell refinement keeps."""
    while True:
        sizes = [0] * (max(colors) + 1)
        for c in colors:
            sizes[c] += 1
        sigs = [(c, *sorted(colors[w] for w in nbrs)) if sizes[c] > 1 else (c,)
                for c, nbrs in zip(colors, neighbors)]
        ranked = sorted(set(sigs))
        colors = tuple({s: i for i, s in enumerate(ranked)}[s] for s in sigs)
        if len(ranked) == len(sizes) - sizes.count(0):
            return colors


def reference_order(g):
    """Canonical order by sorted-tuple refinement on colour tuples, the
    least repeated colour as target, doubled colours to individualize, and
    the least leaf key, first found on ties."""
    n = g.n
    adj = g.adj
    neighbors = [list(bits(row)) for row in adj]
    twins = graphs._twin_masks(adj)
    best = [1 << n * (n - 1) // 2, tuple(range(n))]

    def descend(colors):
        if max(colors) == n - 1:
            order = tuple(sorted(range(n), key=colors.__getitem__))
            key = 0
            for j in range(1, n):
                for i in range(j):
                    key = key << 1 | (adj[order[i]] >> order[j] & 1)
            if key < best[0]:
                best[:] = key, order
            return
        ranks = sorted(colors)
        target = next(c for c, d in zip(ranks, ranks[1:]) if c == d)
        tried = 0
        doubled = [c * 2 for c in colors]
        for v in range(n):
            if colors[v] != target or twins[v] & tried:
                continue
            tried |= 1 << v
            doubled[v] += 1
            descend(reference_refine(neighbors, tuple(doubled)))
            doubled[v] -= 1

    descend(reference_refine(neighbors, tuple(row.bit_count() for row in adj)))
    return best[1]


@st.composite
def labeling_inputs(draw):
    """A graph on 1 to 11 vertices, randomly relabeled: random edges, or a
    twin-heavy blow-up of a graph on k <= 5 vertices, each replaced by a
    clique or an independent set. The blow-up of K_k by independent sets
    is complete multipartite."""
    kind = draw(st.sampled_from(["random", "multipartite", "blow-up"]))
    if kind == "random":
        n = draw(st.integers(1, graphs._CANONICAL_MAX))
        odds = draw(st.integers(1, 9))
        g = from_edges(n, [p for p in combinations(range(n), 2)
                           if draw(st.integers(0, 9)) < odds])
    else:
        k = draw(st.integers(1, 5))
        sizes = draw(st.lists(st.integers(1, graphs._CANONICAL_MAX // k),
                              min_size=k, max_size=k))
        module = [a for a, size in enumerate(sizes) for _ in range(size)]
        if kind == "multipartite":
            joined, cliques = set(combinations(range(k), 2)), [False] * k
        else:
            joined = {p for p in combinations(range(k), 2) if draw(st.booleans())}
            cliques = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        g = from_edges(len(module), [
            (u, v) for u, v in combinations(range(len(module)), 2)
            if (module[u], module[v]) in joined
            or module[u] == module[v] and cliques[module[u]]])
    return relabel(g, draw(st.permutations(range(g.n))))


class TestLabelingOracle:
    """The cell refinement with neighbour-count weights against the
    sorted-tuple refinement it replaced, kept here as reference_order."""

    @pytest.mark.parametrize("reps, n_max, children, labelings", [
        (connected_chordal_reps, 8, graphs._chordal_children, 15828),
        (graph_reps, 6, graphs._any_children, 1672),
    ], ids=["connected_chordal_reps", "graph_reps"])
    def test_every_enumerated_child_labels_as_the_reference(
            self, monkeypatch, reps, n_max, children, labelings):
        # every child the enumerators label over the parents up to n_max
        parents = [g for n in range(1, n_max + 1) for g in reps(n)]
        label = graphs.canonical_graph
        made = []

        def checked(g):
            made.append(g)
            got = label(g)
            assert got == relabel(g, reference_order(g)), to_graph6(g)
            return got

        monkeypatch.setattr(graphs, "canonical_graph", checked)
        for parent in parents:
            children(parent)
        assert len(made) == labelings

    @bounded
    @given(labeling_inputs())
    def test_graphs_up_to_the_bound_label_as_the_reference(self, g):
        assert canonical_graph(g) == relabel(g, reference_order(g))

    @bounded
    @given(st.integers(1, graphs._CANONICAL_MAX).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1).flatmap(lambda k: st.tuples(
            *[st.lists(st.integers(0, n - 1), min_size=k, max_size=k)] * 2)))))
    def test_descending_weight_is_ascending_sorted_colours(self, case):
        # fewer than n neighbours carry colours below n: W reads the count
        # of each colour as a base-n digit, colour 0 the most significant
        n, (a, b) = case
        weight = graphs._POWERS[n]
        wa, wb = sum(weight[c] for c in a), sum(weight[c] for c in b)
        assert (wa > wb, wa == wb) == (sorted(a) < sorted(b), sorted(a) == sorted(b))


class TestEnumeration:
    def test_counts_n3(self):
        assert sum(1 for g in graph_reps(3)) == 4

    def test_counts_n4_connected(self):
        assert sum(1 for g in graph_reps(4) if g.is_connected()) == 6

    def test_counts_n4_connected_chordal(self):
        # C4 is the single connected non-chordal graph on 4 vertices
        from toughlab.chordal import is_chordal
        assert sum(1 for g in graph_reps(4) if g.is_connected() and is_chordal(g)) == 5
        assert len(connected_chordal_reps(4)) == 5

    def test_counts_match_sweep_oracle_up_to_5(self):
        for n in range(1, 6):
            assert len(graph_reps(n)) == len(sweep_classes(n))

    def test_reps_are_pairwise_nonisomorphic_n5(self):
        reps = graph_reps(5)
        for g, h in combinations(reps, 2):
            assert not brute_isomorphic(g, h)

    @pytest.mark.parametrize("reps, n_max", [(graph_reps, 7), (connected_chordal_reps, 8)])
    def test_classes_pairwise_nonisomorphic_by_networkx(self, reps, n_max):
        # networkx as an outside oracle; only classes with equal sorted
        # (degree, triangle count) pairs can be isomorphic, so only those meet
        nx = pytest.importorskip("networkx")
        groups = {}
        for n in range(1, n_max + 1):
            for g in reps(n):
                h = nx.Graph(g.edges())
                h.add_nodes_from(range(n))
                triangles = nx.triangles(h)
                invariant = tuple(sorted((h.degree(v), triangles[v]) for v in h))
                groups.setdefault(invariant, []).append(h)
        for group in groups.values():
            for a, b in combinations(group, 2):
                assert not nx.is_isomorphic(a, b), (sorted(a.edges()), sorted(b.edges()))

    def test_emission_sorted_by_canonical_key(self):
        keys = [to_graph6(g) for g in graph_reps(5)]
        assert keys == sorted(keys)
        assert all(to_graph6(canonical_graph(g)) == to_graph6(g) for g in graph_reps(5))

    def test_known_class_counts(self):
        assert [len(graph_reps(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]

    def test_known_connected_chordal_counts(self):
        got = [len(connected_chordal_reps(n)) for n in range(1, 9)]
        assert got == [1, 1, 2, 5, 15, 58, 272, 1614]

    def test_chordal_reps_are_connected_chordal(self):
        from toughlab.chordal import is_chordal
        for g in connected_chordal_reps(6):
            assert g.is_connected() and is_chordal(g)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(GraphError):
            graph_reps(10)
        with pytest.raises(GraphError):
            connected_chordal_reps(12)

    def test_sweep_and_augmentation_agree_at_6(self):
        # oracle: canonicalize every labeled graph (each edge mask), dedupe by
        # canonical key and sort; augmentation must give the same tuple
        for n in range(1, 7):
            swept = {}
            for g in labeled_graphs(n):
                can = canonical_graph(g)
                swept.setdefault(to_graph6(can), can)
            assert graph_reps(n) == tuple(swept[k] for k in sorted(swept))

    @pytest.mark.parametrize("reps, n, count, digest", [
        (graph_reps, 7, 1044,
         "262f21123d9371a0d675a892263ad4855a70894945a50ce1b87cc2c7176a4219"),
        (connected_chordal_reps, 8, 1614,
         "3ec33fcd6a86cd8c12ce38bc738de034b8e8a6818914877c87745722d0490588"),
        (connected_chordal_reps, 9, 11911,
         "1360c01a31fa62718225c8e1c37303de1040878e37e80494fce0bd7e56283679"),
    ])
    def test_enumeration_pinned_by_digest(self, reps, n, count, digest):
        # SHA-256 of the newline-terminated graph6 keys, measured on the
        # serial enumeration that kept one dict of graphs per level (n = 9
        # before the children were cut to one per twin orbit)
        keys = [to_graph6(g) for g in reps(n)]
        assert len(keys) == count
        assert hashlib.sha256("".join(k + "\n" for k in keys).encode()).hexdigest() == digest

    @pytest.mark.parametrize("reps, n_max, children, neighborhoods", [
        (graph_reps, 6, graphs._any_children, lambda g: range(1 << g.n)),
        (connected_chordal_reps, 8, graphs._chordal_children,
         graphs.clique_masks),
    ])
    def test_invariant_rejection_keeps_every_class(self, reps, n_max, children, neighborhoods):
        # oracle: canonically label every child of every parent, rejecting none
        for n in range(1, n_max):
            parents = reps(n)
            every = {to_graph6(canonical_graph(_augment(g, nb)))
                     for g in parents for nb in neighborhoods(g)}
            assert set().union(*map(children, parents)) == every

    @pytest.mark.parametrize("reps, n_max, children, neighborhoods, deletable", [
        (graph_reps, 5, graphs._any_children, lambda g: range(1 << g.n),
         lambda g: g.full_mask),
        (connected_chordal_reps, 7, graphs._chordal_children,
         graphs.clique_masks, graphs.simplicial_mask),
    ], ids=["graph_reps", "connected_chordal_reps"])
    def test_each_parent_keeps_the_children_of_largest_invariant(
            self, reps, n_max, children, neighborhoods, deletable):
        # oracle, per parent: the children whose new vertex x has no
        # deletable vertex of larger (degree, sorted neighbour degrees),
        # read off the child itself; a class that moved from one parent to
        # another would keep the union of the levels unchanged
        def invariant(g, v):
            return g.degree(v), sorted(g.degree(u) for u in bits(g.adj[v]))

        for n in range(1, n_max + 1):
            for parent in reps(n):
                kept = set()
                for nb in neighborhoods(parent):
                    child = _augment(parent, nb)
                    mine = invariant(child, n)
                    if all(invariant(child, w) <= mine for w in bits(deletable(child))):
                        kept.add(to_graph6(canonical_graph(child)))
                assert children(parent) == kept, to_graph6(parent)

    @pytest.mark.parametrize("children, parent, labelings", [
        (graphs._chordal_children, complete(8), 2),
        (graphs._chordal_children, star(7), 2),
        (graphs._any_children, complete_multipartite(2, 3, 3), 5),
        (graphs._any_children, complete_multipartite(3, 4), 7),
    ], ids=["K8", "star7", "K2,3,3", "K3,4"])
    def test_twin_orbits_bound_the_labelings_of_a_parent(
            self, monkeypatch, children, parent, labelings):
        # one neighbourhood per twin orbit: K_8 grows over 8 of its 255
        # cliques, K_{3,4} over 20 of its 128 masks, before the invariant
        # test; without the orbit skip these take 9, 8, 10 and 30 labelings
        label = graphs.canonical_graph
        made = []

        def counted(g):
            made.append(g)
            return label(g)

        monkeypatch.setattr(graphs, "canonical_graph", counted)
        children(parent)
        assert len(made) == labelings

    @pytest.mark.parametrize("reps, n, labelings", [
        (graph_reps, 7, 1425), (connected_chordal_reps, 8, 1883),
    ])
    def test_invariant_rejection_bounds_the_labelings(self, monkeypatch, reps, n, labelings):
        # labeling every child takes 9984 and 7268 calls at these levels, the
        # invariant test alone 2091 and 2429; a rejection or a twin-orbit
        # skip that stops rejecting shows here, not in the classes
        level = reps(n)
        label = graphs.canonical_graph
        made = []

        def counted(g):
            made.append(g)
            return label(g)

        monkeypatch.setattr(graphs, "canonical_graph", counted)
        assert reps.__wrapped__(n) == level
        assert len(made) == labelings

    def test_pooled_levels_equal_serial(self):
        # each level grown on a 2-worker pool of the scan's kind, past the
        # lru_cache, from the cached serial level below it equals the
        # serial level
        levels = [(graph_reps, n) for n in range(1, 7)]
        levels += [(connected_chordal_reps, n) for n in range(1, 9)]
        serial = [reps(n) for reps, n in levels]
        with multiprocessing.Pool(2) as pool, level_map(partial(pool.map, chunksize=16)):
            assert [reps.__wrapped__(n) for reps, n in levels] == serial


def test_unchecked_graphs_equal_validated():
    # every graph built without validation equals, and hashes like, the
    # validated Graph on the same rows
    for n in range(1, 7):
        for g in graph_reps(n):
            derived = [g, canonical_graph(g), relabel(g, range(n)[::-1])]
            derived += [g.without_edge(u, v) for u, v in g.edges()]
            derived += [_augment(g, nb) for nb in range(1 << n)]
            for h in derived:
                checked = Graph(h.n, h.adj)
                assert type(h.adj) is tuple
                assert h == checked and hash(h) == hash(checked)
