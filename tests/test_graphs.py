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

from toughlab import graphs
from toughlab.families import complete, cycle, star, wheel
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
    level_map,
    mask_of,
    parse_graph6,
    relabel,
    separating_cuts,
    subsets,
    to_graph6,
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

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

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

    def test_string_round_trip(self):
        for g in graph_reps(4):
            s = to_graph6(g)
            assert to_graph6(parse_graph6(s)) == s

    def test_line_file_round_trip(self, tmp_path):
        from toughlab.graphs import read_graph6_lines
        target = tmp_path / "all4.g6"
        target.write_text("".join(to_graph6(g) + "\n" for g in graph_reps(4)))
        text = target.read_text()
        assert text.endswith("\n") and len(text.splitlines()) == 11
        with open(target) as fh:
            assert list(read_graph6_lines(fh)) == list(graph_reps(4))


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


class TestSubsets:
    @pytest.mark.parametrize("pool", [0, 0b1, 0b1011, 0b110100, 0b1111111, 0b1010010110])
    def test_matches_combinations_in_mask_order(self, pool):
        # size 0 yields the empty set once, sizes above popcount(pool) nothing
        for size in range(pool.bit_count() + 2):
            expected = sorted(mask_of(c) for c in combinations(bits(pool), size))
            assert list(subsets(pool, size)) == expected


def reaches(g, removed, u, v):
    """Oracle: plain search from u in g - removed."""
    seen, todo = {u}, [u]
    while todo:
        for w in bits(g.adj[todo.pop()] & ~removed):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return v in seen


class TestSeparatingCuts:
    def test_matches_definition_up_to_6(self):
        for n in range(2, 7):
            for g in graph_reps(n):
                for u, v in combinations(range(n), 2):
                    others = g.full_mask & ~(1 << u) & ~(1 << v)
                    cuts = sorted((s.bit_count(), s) for s in range(1 << n)
                                  if not s & ~others and not reaches(g, s, u, v))
                    for max_size in range(n + 1):
                        expected = [(s, components(g, s)) for size, s in cuts if size <= max_size]
                        assert list(separating_cuts(g, u, v, max_size)) == expected, (g, u, v)

    def test_pool_keeps_only_the_cuts_inside_it_up_to_5(self):
        for n in range(2, 6):
            for g in graph_reps(n):
                for u, v in combinations(range(n), 2):
                    walk = list(separating_cuts(g, u, v, n))
                    for pool in range(-1, 1 << n):
                        inside = [(s, comps) for s, comps in walk if not s & ~pool]
                        assert list(separating_cuts(g, u, v, n, pool)) == inside, (g, u, v, pool)


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
    ])
    def test_enumeration_pinned_by_digest(self, reps, n, count, digest):
        # SHA-256 of the newline-terminated graph6 keys, measured on the
        # serial enumeration that kept one dict of graphs per level
        keys = [to_graph6(g) for g in reps(n)]
        assert len(keys) == count
        assert hashlib.sha256("".join(k + "\n" for k in keys).encode()).hexdigest() == digest

    @pytest.mark.parametrize("reps, n_max, children, neighborhoods", [
        (graph_reps, 6, graphs._any_children, lambda g: range(1 << g.n)),
        (connected_chordal_reps, 8, graphs._chordal_children,
         lambda g: graphs.clique_masks(g)[1:]),
    ])
    def test_invariant_rejection_keeps_every_class(self, reps, n_max, children, neighborhoods):
        # oracle: canonically label every child of every parent, rejecting none
        for n in range(1, n_max):
            parents = reps(n)
            every = {to_graph6(canonical_graph(_augment(g, nb)))
                     for g in parents for nb in neighborhoods(g)}
            assert set().union(*map(children, parents)) == every

    @pytest.mark.parametrize("reps, n, labelings", [
        (graph_reps, 7, 2091), (connected_chordal_reps, 8, 2429),
    ])
    def test_invariant_rejection_bounds_the_labelings(self, monkeypatch, reps, n, labelings):
        # labeling every child takes 9984 and 7268 calls at these levels; a
        # rejection that stops rejecting shows here, not in the classes
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
