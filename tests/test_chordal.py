"""Chordal toolkit: elimination orderings, clique trees, separators, and
moplexes, cross-checked against brute-force oracles on all small graphs
and against networkx."""

from itertools import combinations, combinations_with_replacement, product

import pytest

from toughlab import chordal
from toughlab.chordal import (
    clique_tree,
    is_chordal,
    is_clique,
    is_minimal_separator,
    is_moplicial,
    is_simple,
    maximal_cliques,
    maximum_neighbor,
    maximum_neighboring_edge,
    minimal_separators,
    minimal_separators_via_clique_tree,
    moplexes,
    peo,
    validate_clique_tree,
)
from toughlab.families import complete, cycle, k_sun, matched_cliques, path, star, wheel
from toughlab.graphs import (
    GraphError,
    bits,
    components,
    connected_chordal_reps,
    from_edges,
    graph_reps,
    mask_of,
    to_graph6,
)
from toughlab.verify import _minimal_separators_brute as separators_by_walk

P4 = path(4)
C4 = cycle(4)
C5 = cycle(5)
K4 = complete(4)
SUN3 = k_sun(3)
STAR3 = star(3)


def _chordal_through(n_max):
    for n in range(1, n_max + 1):
        yield from connected_chordal_reps(n)


def has_hole_oracle(g):
    """Induced cycle of length >= 4: some subset inducing a connected
    2-regular subgraph."""
    for size in range(4, g.n + 1):
        for verts in combinations(range(g.n), size):
            m = mask_of(verts)
            degs = [(g.adj[v] & m).bit_count() for v in verts]
            if all(d == 2 for d in degs):
                induced = [row & m if m >> i & 1 else 0 for i, row in enumerate(g.adj)]
                sub = from_edges(g.n, [(u, v) for u in verts for v in bits(induced[u]) if u < v])
                if len([c for c in components(sub) if c & m]) == 1:
                    return True
    return False


class TestPeo:
    def test_c4_has_none(self):
        assert peo(C4) is None

    def test_tree_has_one(self):
        tree = from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        assert peo(tree) is not None

    def test_sun3_is_chordal(self):
        assert peo(SUN3) is not None

    def test_order_is_perfect_elimination(self):
        for g in connected_chordal_reps(6):
            order = peo(g)
            remaining = g.full_mask
            for v in order:
                remaining ^= 1 << v
                assert is_clique(g, g.adj[v] & remaining)

    def test_is_chordal_matches_hole_oracle(self):
        for g in graph_reps(6):
            assert is_chordal(g) == (not has_hole_oracle(g))


class TestNetworkxOracles:
    @staticmethod
    def reps_up_to_7(nx):
        for n in range(1, 8):
            for g in graph_reps(n):
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                yield g, h

    def test_is_chordal_up_to_7(self):
        nx = pytest.importorskip("networkx")
        for g, h in self.reps_up_to_7(nx):
            assert is_chordal(g) == nx.is_chordal(h), g

    def test_maximal_cliques_up_to_7(self):
        nx = pytest.importorskip("networkx")
        for g, h in self.reps_up_to_7(nx):
            assert maximal_cliques(g) == sorted(mask_of(c) for c in nx.find_cliques(h)), g


class TestMaximalCliques:
    def test_path_cliques_are_edges(self):
        assert maximal_cliques(P4) == [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])]

    def test_complete(self):
        assert maximal_cliques(K4) == [K4.full_mask]

    def test_sun_cliques(self):
        got = {tuple(sorted(bits(m))) for m in maximal_cliques(SUN3)}
        assert got == {(0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 5)}

    def test_oracle_on_small_graphs(self):
        for g in graph_reps(5):
            expected = set()
            for size in range(1, g.n + 1):
                for verts in combinations(range(g.n), size):
                    m = mask_of(verts)
                    if not is_clique(g, m):
                        continue
                    if all(not is_clique(g, m | 1 << w)
                           for w in bits(g.full_mask & ~m)):
                        expected.add(m)
            assert set(maximal_cliques(g)) == expected


class TestCliqueTree:
    def test_p4_tree(self):
        cliques, tree_edges = clique_tree(P4)
        assert cliques == (mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3]))
        assert set(tree_edges) == {(0, 1), (1, 2)}

    def test_k4_single_node(self):
        assert clique_tree(K4) == ((K4.full_mask,), ())

    def test_rejects_non_chordal(self):
        with pytest.raises(GraphError):
            clique_tree(C4)

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            clique_tree(from_edges(4, [(0, 1), (2, 3)]))

    def test_invariants_on_all_connected_chordal_up_to_7(self):
        for g in connected_chordal_reps(7):
            validate_clique_tree(g, clique_tree(g))

    def test_validator_rejects_bad_tree(self):
        cliques, tree_edges = clique_tree(P4)
        with pytest.raises(GraphError):  # vertex 1's cliques 0, 1 meet only through 2
            validate_clique_tree(P4, (cliques, ((0, 2), (1, 2))))
        with pytest.raises(GraphError):
            validate_clique_tree(P4, (cliques[:2], tree_edges[:1]))

    @pytest.mark.parametrize("g, cliques, edges, message", [
        (P4, None, ((0, 1),), "clique tree edge count is not node count minus one"),
        (P4, None, ((0, 1), (1, 0)), "clique tree edges do not form a tree"),
        (P4, None, ((0, 1), (1, 3)), "clique tree edge endpoints out of range"),
        (P4, None, ((-1, 1), (1, 2)), "clique tree edge endpoints out of range"),
        (P4, None, ((0, 1), (1, 1)), "clique tree edge endpoints out of range"),
        (P4, None, ((0, 2), (2, 1)), "cliques containing vertex 1 are not a subtree"),
        # the path 1-0-2-3: cliques {0,1}, {0,2}, {2,3}
        (from_edges(4, [(1, 0), (0, 2), (2, 3)]), None, ((0, 2), (2, 1)),
         "cliques containing vertex 0 are not a subtree"),
        (P4, 2, ((0, 1),), "clique tree nodes are not exactly the maximal cliques"),
    ], ids=["edge-count", "duplicate-edge", "endpoint-above", "endpoint-below",
            "self-loop", "broken-subtree", "broken-subtree-at-0", "wrong-clique-set"])
    def test_validator_messages(self, g, cliques, edges, message):
        # P4's cliques are {0,1}, {1,2}, {2,3}, in that order
        with pytest.raises(GraphError) as caught:
            validate_clique_tree(g, (clique_tree(g)[0][:cliques], edges))
        assert str(caught.value) == message

    def test_validator_against_networkx(self):
        """Every list of k-1 pairs over -1..k on the cliques of each connected
        chordal graph with n <= 5 and k <= 4: rejected exactly when a pair
        leaves 0..k-1 or is a loop, the pairs do not form a tree, or the
        cliques holding some vertex do not induce a connected subtree."""
        nx = pytest.importorskip("networkx")
        cases = 0
        for n in range(1, 6):
            for g in connected_chordal_reps(n):
                cliques = clique_tree(g)[0]
                k = len(cliques)
                if k > 4:
                    continue
                pairs = list(product(range(-1, k + 1), repeat=2))
                for edges in combinations_with_replacement(pairs, k - 1):
                    cases += 1
                    forest = nx.Graph(edges)
                    forest.add_nodes_from(range(k))
                    invalid = (
                        any(not (0 <= i < k and 0 <= j < k) or i == j for i, j in edges)
                        or not nx.is_tree(forest)
                        or not all(nx.is_connected(forest.subgraph(
                            [i for i, q in enumerate(cliques) if q >> v & 1]))
                            for v in range(g.n)))
                    try:
                        validate_clique_tree(g, (cliques, edges))
                    except GraphError:
                        assert invalid, (g, edges)
                    else:
                        assert not invalid, (g, edges)
        assert cases == 28350


class TestMinimalSeparators:
    def test_p4(self):
        assert minimal_separators(P4) == [mask_of([1]), mask_of([2])]

    def test_c4_opposite_pairs(self):
        assert minimal_separators(C4) == [mask_of([0, 2]), mask_of([1, 3])]

    def test_complete_has_none(self):
        assert minimal_separators(K4) == []

    def test_empty_set_listed_exactly_when_disconnected(self):
        assert minimal_separators(from_edges(3, [(0, 1)])) == [0]
        assert minimal_separators(from_edges(4, [(0, 1), (1, 2)])) == [0, mask_of([1])]
        assert 0 not in minimal_separators(C5)

    def test_generator_matches_walk_up_to_7(self):
        # graph_reps holds the disconnected classes too, so this pins the
        # empty-set rule as well
        for n in range(1, 8):
            for g in graph_reps(n):
                assert minimal_separators(g) == separators_by_walk(g), to_graph6(g)

    def test_generator_matches_walk_on_chordal_8(self):
        for g in connected_chordal_reps(8):
            assert minimal_separators(g) == separators_by_walk(g), to_graph6(g)

    @pytest.mark.parametrize("family, size", [
        *((wheel, k) for k in range(5, 13)),
        *((cycle, k) for k in range(4, 13)),
        *((path, k) for k in range(2, 15)),
        *((star, k) for k in range(2, 9)),
        *((matched_cliques, k) for k in range(2, 6)),
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_generator_matches_walk_on_families(self, family, size):
        g = family(size)
        assert minimal_separators(g) == separators_by_walk(g)

    @pytest.mark.parametrize("s", [1 << 5, 1 << 1 | 1 << 5, -1])
    def test_s_full_test_refuses_a_mask_outside_the_graph(self, s):
        with pytest.raises(GraphError):
            is_minimal_separator(P4, s)

    def test_s_full_test_builds_no_components_up_to_5(self, monkeypatch):
        # one walk grows each component with its neighbourhood
        built = []
        real = chordal.components
        monkeypatch.setattr(chordal, "components",
                            lambda g, removed=0: built.append(removed) or real(g, removed))
        for n in range(1, 6):
            for g in graph_reps(n):
                for s in range(1 << n):
                    is_minimal_separator(g, s)
        assert built == []

    def test_via_clique_tree_p4(self):
        tree = clique_tree(P4)
        assert minimal_separators_via_clique_tree(P4, tree) == [mask_of([1]), mask_of([2])]

    def test_via_clique_tree_star(self):
        tree = clique_tree(STAR3)
        assert minimal_separators_via_clique_tree(STAR3, tree) == [mask_of([0])]

    def test_routes_agree_up_to_7(self):
        for g in connected_chordal_reps(7):
            tree = clique_tree(g)
            assert minimal_separators_via_clique_tree(g, tree) == minimal_separators(g)

    def test_via_tree_rejects_invalid_tree(self):
        tree = clique_tree(P4)
        with pytest.raises(GraphError):
            minimal_separators_via_clique_tree(C4, tree)

    def test_dirac_on_small_graphs(self):
        for g in graph_reps(6):
            all_cliques = all(is_clique(g, s) for s in minimal_separators(g))
            assert is_chordal(g) == all_cliques


class TestMoplexes:
    def test_p4_endpoints(self):
        assert moplexes(P4) == [mask_of([0]), mask_of([3])]

    def test_k3_single_moplex(self):
        k3 = complete(3)
        assert moplexes(k3) == [k3.full_mask]

    def test_noncomplete_graphs_have_two(self):
        for g in graph_reps(6):
            if not g.is_complete():
                assert len(moplexes(g)) >= 2

    def test_moplexes_are_disjoint_clique_modules(self):
        for g in graph_reps(6):
            found = moplexes(g)
            union = 0
            for m in found:
                assert union & m == 0
                union |= m
                assert is_clique(g, m)
                outside = g.full_mask & ~m
                for v in bits(outside):
                    overlap = g.adj[v] & m
                    assert overlap == 0 or overlap == m  # module property

    def test_moplex_neighborhood_empty_or_minimal_separator(self):
        for g in graph_reps(6):
            for m in moplexes(g):
                nb = 0
                for v in bits(m):
                    nb |= g.adj[v]
                nb &= ~m
                assert nb == 0 or is_minimal_separator(g, nb)

    def test_berry_bordat_leaf_property(self):
        # for each moplex M of a connected chordal graph, some maximum-weight
        # clique tree has N[M] at a leaf: verified by re-rooting the Kruskal
        # choice: N[M] joined to its best partner plus a maximum spanning tree
        # of the remaining cliques must reach the same total weight
        for g in _chordal_through(7):
            cliques = maximal_cliques(g)
            if len(cliques) == 1:
                continue
            best_total = _max_spanning_weight(cliques, skip=None)
            for m in moplexes(g):
                closed = m
                for v in bits(m):
                    closed |= g.adj[v]
                assert closed in cliques
                idx = cliques.index(closed)
                rest_total = _max_spanning_weight(cliques, skip=idx)
                attach = max((cliques[idx] & q).bit_count()
                             for j, q in enumerate(cliques) if j != idx)
                assert rest_total + attach == best_total, (
                    f"no maximum-weight clique tree keeps {closed:b} at a leaf")


def _max_spanning_weight(cliques, skip):
    nodes = [i for i in range(len(cliques)) if i != skip]
    if len(nodes) <= 1:
        return 0
    parent = {i: i for i in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(
        ((i, j) for i, j in combinations(nodes, 2)),
        key=lambda ij: -(cliques[ij[0]] & cliques[ij[1]]).bit_count())
    total = 0
    joined = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            total += (cliques[i] & cliques[j]).bit_count()
            joined += 1
            if joined == len(nodes) - 1:
                break
    return total


class TestVertexPredicates:
    def test_star_leaf_is_simple(self):
        assert is_simple(STAR3, 1)

    def test_sun_tip_simplicial_not_simple(self):
        assert is_clique(SUN3, SUN3.closed(3))
        assert not is_simple(SUN3, 3)

    def test_simple_implies_simplicial(self):
        for g in graph_reps(6):
            for v in range(g.n):
                if is_simple(g, v):
                    assert is_clique(g, g.closed(v))

    def test_simple_implies_moplicial(self):
        for g in graph_reps(6):
            for v in range(g.n):
                if is_simple(g, v):
                    assert is_moplicial(g, v)

    def test_moplicial_implies_simplicial_in_chordal(self):
        for n in range(1, 8):
            for g in connected_chordal_reps(n):
                for v in range(g.n):
                    if is_moplicial(g, v):
                        assert is_clique(g, g.closed(v))

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            is_simple(P4, 4)
        with pytest.raises(GraphError):
            maximum_neighbor(P4, -1)
        with pytest.raises(GraphError):
            is_moplicial(P4, -1)
        with pytest.raises(GraphError):
            is_moplicial(P4, 4)


class TestMaximumNeighbor:
    def test_star_leaf_gets_center(self):
        assert maximum_neighbor(STAR3, 1) == 0

    def test_complete_vertex_is_its_own(self):
        for v in range(K4.n):
            assert maximum_neighbor(K4, v) == v

    def test_c4_has_none(self):
        assert all(maximum_neighbor(C4, v) is None for v in range(4))

    def test_definition_oracle(self):
        for g in graph_reps(5):
            for v in range(g.n):
                got = maximum_neighbor(g, v)
                hood = list(bits(g.closed(v)))
                qualifying = [u for u in hood
                              if all(not g.closed(w) & ~g.closed(u) for w in hood)]
                assert (got is None) == (not qualifying)
                if got is not None:
                    assert got in qualifying

    def test_simple_vertices_have_one(self):
        for g in graph_reps(6):
            for v in range(g.n):
                if is_simple(g, v):
                    assert maximum_neighbor(g, v) is not None


class TestMaximumNeighboringEdge:
    def test_degree_one_star_leaf_has_none(self):
        assert maximum_neighboring_edge(STAR3, 1) is None

    def test_wheel_rim_covered_by_hub_edge(self):
        w5 = wheel(5)
        edge = maximum_neighboring_edge(w5, 1)
        assert edge == (0, 2)  # hub plus a rim neighbor covers everything

    def test_p4_inner_vertex_has_none(self):
        # neighbors 0 and 2 of vertex 1 are nonadjacent: no candidate edge
        assert maximum_neighboring_edge(P4, 1) is None

    def test_maximum_neighbor_gives_edge(self):
        # a maximum neighbor u != v plus any other neighbor forms one
        for g in graph_reps(6):
            for v in range(g.n):
                u = maximum_neighbor(g, v)
                if u is not None and u != v and g.degree(v) >= 2:
                    assert maximum_neighboring_edge(g, v) is not None
