"""Recognizers: holes, suns, strongly chordal, split, asteroidal triples.

The Farber and Foldes-Hammer biconditionals are exercised exhaustively on
small graphs, and greedy simple elimination is checked to be order
independent over every deletion order."""

from functools import lru_cache
from itertools import combinations

import pytest

from toughlab.chordal import is_chordal, is_simple
from toughlab.families import complete, cycle, k_sun, path, star, wheel
from toughlab.graphs import GraphError, bits, from_edges, graph_reps, mask_of
from toughlab.recognize import (
    find_asteroidal_triple,
    find_hole,
    find_induced_claw,
    find_induced_sun,
    find_split_obstruction,
    is_independent,
    is_interval_like,
    is_split,
    is_strongly_chordal,
    universal_vertices,
)

SPIDER = from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])


def validate_hole(g, hole):
    k = len(hole)
    assert k >= 4 and len(set(hole)) == k
    for i in range(k):
        assert g.has_edge(hole[i], hole[(i + 1) % k])
    for i, j in combinations(range(k), 2):
        if (j - i) % k not in (1, k - 1):
            assert not g.has_edge(hole[i], hole[j])


def validate_sun(g, sun):
    k, a, b = sun
    assert len(a) == len(b) == k
    for x, y in combinations(a, 2):
        assert g.has_edge(x, y)
    for x, y in combinations(b, 2):
        assert not g.has_edge(x, y)
    for j in range(k):
        for i in range(k):
            expected = i == j or i == (j + 1) % k
            assert g.has_edge(a[i], b[j]) == expected
    inside = mask_of(a) | mask_of(b)
    for x in b:
        # induced: inside the sun, b vertices only meet their two A neighbors
        assert g.adj[x] & inside == g.adj[x] & mask_of(a)


class TestFindHole:
    def test_c4_is_its_own_hole(self):
        hole = find_hole(cycle(4))
        assert hole is not None
        validate_hole(cycle(4), hole)

    def test_tree_has_none(self):
        assert find_hole(star(4)) is None
        assert find_hole(path(5)) is None

    def test_presence_matches_chordality_up_to_7(self):
        for n in range(1, 8):
            for g in graph_reps(n):
                hole = find_hole(g)
                assert (hole is None) == is_chordal(g)
                if hole is not None:
                    validate_hole(g, hole)


class TestFindSun:
    def test_sun3_detected(self):
        found = find_induced_sun(k_sun(3), 3)
        assert found is not None and found[0] == 3
        validate_sun(k_sun(3), found)

    def test_star_has_none(self):
        assert find_induced_sun(star(5), 3) is None

    def test_sun4_detected(self):
        found = find_induced_sun(k_sun(4), 4)
        assert found is not None and found[0] == 4
        validate_sun(k_sun(4), found)

    def test_sun5_detected(self):
        found = find_induced_sun(k_sun(5), 5)
        assert found is not None and found[0] == 5

    def test_sun_inside_larger_graph(self):
        g = from_edges(7, list(k_sun(3).edges()) + [(6, 0), (6, 3)])
        found = find_induced_sun(g, 3)
        assert found is not None
        validate_sun(g, found)

    def test_rejects_bad_bound(self):
        with pytest.raises(GraphError):
            find_induced_sun(k_sun(3), 2)
        with pytest.raises(GraphError):
            find_induced_sun(k_sun(3), 4)


def greedy_outcomes(g):
    """All outcomes of simple-vertex elimination over every deletion order."""
    @lru_cache(maxsize=None)
    def explore(alive):
        if alive == 0:
            return {True}
        options = [v for v in bits(alive) if is_simple(g, v, alive)]
        if not options:
            return {False}
        out = set()
        for v in options:
            out |= explore(alive ^ 1 << v)
        return out

    return explore(g.full_mask)


class TestStronglyChordal:
    def test_sun3_rejected_with_sun_witness(self):
        verdict = is_strongly_chordal(k_sun(3))
        assert not verdict.member
        kind, payload = verdict.witness
        assert kind == "sun"
        validate_sun(k_sun(3), payload)

    def test_tree_accepted(self):
        assert is_strongly_chordal(star(4)).member
        assert is_strongly_chordal(path(6)).member

    def test_non_chordal_rejected_with_hole(self):
        verdict = is_strongly_chordal(cycle(5))
        assert not verdict.member
        kind, payload = verdict.witness
        assert kind == "hole"
        validate_hole(cycle(5), payload)

    def test_interval_like_graphs_are_strongly_chordal(self):
        for g in graph_reps(6):
            if is_interval_like(g):
                assert is_strongly_chordal(g).member

    def test_farber_equivalence_up_to_6(self):
        for g in graph_reps(6):
            sun_free = g.n < 6 or find_induced_sun(g, g.n // 2) is None
            assert is_strongly_chordal(g).member == (is_chordal(g) and sun_free)

    def test_elimination_is_order_independent_up_to_6(self):
        for g in graph_reps(6):
            assert len(greedy_outcomes(g)) == 1


class TestSplit:
    def test_sun3_partition(self):
        verdict = is_split(k_sun(3))
        assert verdict.member
        q, i = verdict.partition
        assert q == mask_of([0, 1, 2]) and i == mask_of([3, 4, 5])

    def test_2k2_rejected(self):
        verdict = is_split(from_edges(4, [(0, 1), (2, 3)]))
        assert not verdict.member
        assert verdict.witness[0] == "2K2"

    def test_p4_partition(self):
        verdict = is_split(path(4))
        assert verdict.member
        q, i = verdict.partition
        assert q == mask_of([1, 2]) and i == mask_of([0, 3])

    def test_partition_really_splits(self):
        from toughlab.chordal import is_clique
        for g in graph_reps(6):
            verdict = is_split(g)
            if verdict.member:
                q, i = verdict.partition
                assert q | i == g.full_mask and q & i == 0
                assert is_clique(g, q) and is_independent(g, i)

    def test_obstruction_biconditional_up_to_6(self):
        for g in graph_reps(6):
            assert is_split(g).member == (find_split_obstruction(g) is None)

    def test_split_graphs_are_chordal(self):
        for g in graph_reps(6):
            if is_split(g).member:
                assert is_chordal(g)

    def test_obstructions_validate(self):
        for g in graph_reps(5):
            found = find_split_obstruction(g)
            if found is None:
                continue
            kind, verts = found
            if kind == "2K2":
                a, b, c, d = verts
                assert g.has_edge(a, b) and g.has_edge(c, d)
                assert not any(g.has_edge(x, y) for x in (a, b) for y in (c, d))
            else:
                validate_hole(g, verts)
                assert len(verts) == (4 if kind == "C4" else 5)


class TestAsteroidalTriples:
    def test_subdivided_claw(self):
        assert find_asteroidal_triple(SPIDER) == (4, 5, 6)

    def test_paths_have_none(self):
        assert find_asteroidal_triple(path(6)) is None

    def test_c6(self):
        assert find_asteroidal_triple(cycle(6)) == (0, 2, 4)

    def test_triple_validates(self):
        from toughlab.graphs import components
        for g in graph_reps(6):
            triple = find_asteroidal_triple(g)
            if triple is None:
                continue
            for x, y in combinations(triple, 2):
                assert not g.has_edge(x, y)
                z = next(w for w in triple if w not in (x, y))
                comp = next(c for c in components(g, g.closed(z)) if c >> x & 1)
                assert comp >> y & 1


class TestIntervalLike:
    def test_examples(self):
        assert is_interval_like(path(5))
        assert not is_interval_like(SPIDER)
        assert not is_interval_like(cycle(4))


class TestUniversalVertices:
    def test_wheel_hub(self):
        assert universal_vertices(wheel(6)) == mask_of([0])

    def test_cycle_has_none(self):
        assert universal_vertices(cycle(5)) == 0

    def test_complete_all(self):
        assert universal_vertices(complete(4)) == complete(4).full_mask


class TestClaw:
    def test_star_is_a_claw(self):
        found = find_induced_claw(star(3))
        assert found is not None and found[0] == 0

    def test_matched_cliques_claw_free(self):
        from toughlab.families import matched_cliques
        assert find_induced_claw(matched_cliques(3)) is None
        assert find_induced_claw(matched_cliques(4)) is None


def test_mask_walk_finders_match_networkx():
    """Subgraph-isomorphism oracle for the split, claw, and sun finders.

    The split witness is also pinned to the least vertex mask whose induced
    subgraph is a 2K2 or C4, or failing that a C5."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g, vertices=None):
        h = nx.Graph()
        h.add_nodes_from(range(g.n) if vertices is None else vertices)
        h.add_edges_from((u, v) for u, v in g.edges() if u in h and v in h)
        return h

    def induces(h, pattern):
        return GraphMatcher(h, pattern).subgraph_is_isomorphic()

    split_shapes = ((4, [nx.Graph([(0, 1), (2, 3)]), nx.cycle_graph(4)]), (5, [nx.cycle_graph(5)]))
    claw, sun = nx.star_graph(3), to_nx(k_sun(3))

    def least_split_mask(g):
        for size, shapes in split_shapes:
            masks = [mask_of(vs) for vs in combinations(range(g.n), size)
                     if any(nx.is_isomorphic(to_nx(g, vs), t) for t in shapes)]
            if masks:
                return min(masks)
        return None

    for g in (g for n in range(1, 7) for g in graph_reps(n)):
        h = to_nx(g)
        found = find_split_obstruction(g)
        assert (found is None) == (not any(induces(h, t) for _, ts in split_shapes for t in ts))
        if found is not None:
            kind, verts = found
            assert mask_of(verts) == least_split_mask(g)
            if kind == "2K2":
                a, b, c, d = verts
                assert g.has_edge(a, b) and g.has_edge(c, d)
                assert not any(g.has_edge(x, y) for x in (a, b) for y in (c, d))
            else:
                validate_hole(g, verts)
        found = find_induced_claw(g)
        assert (found is None) == (not induces(h, claw))
        if found is not None:
            center, *leaves = found
            assert all(g.has_edge(center, x) for x in leaves)
            assert is_independent(g, mask_of(leaves))
    for g in graph_reps(6) + graph_reps(7):
        found = find_induced_sun(g, g.n // 2)
        assert (found is None) == (not induces(to_nx(g), sun))
        if found is not None:
            validate_sun(g, found)
