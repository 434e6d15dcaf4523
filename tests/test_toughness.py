"""Toughness engine: exact values against a full-scan oracle, Menger counts
and connectivity against a path-packing oracle and networkx, minimality
against per-edge recomputation, the characterization machinery,
properties on random graphs, and the caps that end the toughness walk."""

import importlib
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toughlab.chordal import is_chordal, is_clique, is_minimal_separator, minimal_separators
from toughlab.families import complete, cycle, k_sun, matched_cliques, path, star, wheel
from toughlab.graphs import (
    GraphError,
    bits,
    components,
    connected_chordal_reps,
    from_edges,
    graph_reps,
    mask_of,
    parse_graph6,
    relabel,
    separates,
    simplicial_mask,
    to_graph6,
)
from toughlab.rational import INFINITY
from toughlab.toughness import (
    _independence_number,
    check_condition2_restricted,
    check_non_minimality_characterization,
    check_sufficient_condition,
    disjoint_path_count,
    find_edge_witness_set,
    is_minimally_tough,
    is_t_tough,
    toughness,
    toughness_witness,
    vertex_connectivity,
)
from toughlab.verify import (
    _is_minimal_separator_direct,
    _minimal_separators_brute,
    _not_minimal_by_recomputation,
    _put_back,
)

PAW = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def _reps_through(n_max):
    for n in range(1, n_max + 1):
        yield from graph_reps(n)


def toughness_oracle(g):
    """Full 2^n scan, no pruning and no size ordering."""
    if g.is_complete():
        return INFINITY
    best = None
    for s in range(1 << g.n):
        parts = len(components(g, s))
        if parts >= 2:
            ratio = Fraction(s.bit_count(), parts)
            if best is None or ratio < best:
                best = ratio
    return best


def recomputed_minimality(g):
    """(minimal, witness_edge) from recomputing tau(G - e) for every edge."""
    if g.is_complete() or not g.is_connected():
        return False, None
    edge = _not_minimal_by_recomputation(g)
    return edge is None, edge


def unpruned_toughness_witness(g):
    """toughness_witness walking every vertex: same size bound, same
    least-size, least-mask tie-break."""
    if g.is_complete():
        return INFINITY, None
    n = g.n
    best, best_size, best_parts = 0, 1, 0
    for size in range(n - 1):
        if size * best_parts >= best_size * (n - size):
            break
        for cut in range(1 << n):
            if cut.bit_count() != size:
                continue
            parts = len(components(g, cut))
            if parts > 1 and size * best_parts < best_size * parts:
                best, best_size, best_parts = cut, size, parts
    return Fraction(best_size, best_parts), best


def all_simple_paths(g, u, v):
    out = []

    def walk(last, used, trail):
        if last == v:
            out.append(tuple(trail))
            return
        for w in bits(g.adj[last] & ~used):
            trail.append(w)
            walk(w, used | 1 << w, trail)
            trail.pop()

    walk(u, 1 << u | 0, [u])
    return out


def path_packing_oracle(g, u, v):
    """Max pairwise internally vertex-disjoint u-v paths by direct packing."""
    paths = all_simple_paths(g, u, v)
    interiors = [mask_of(p[1:-1]) for p in paths]
    best = 0

    def pack(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(interiors) - idx) <= best:
            return
        for k in range(idx, len(interiors)):
            if not interiors[k] & used:
                pack(k + 1, used | interiors[k], count + 1)

    pack(0, 0, 0)
    return best


class TestToughness:
    def test_star_with_two_leaves(self):
        assert toughness(path(3)) == Fraction(1, 2)

    def test_wheel5(self):
        assert toughness(wheel(5)) == Fraction(3, 2)

    def test_complete_graphs_infinite(self):
        for n in (1, 2, 4):
            assert toughness(complete(n)) is INFINITY

    def test_disconnected_zero(self):
        assert toughness(from_edges(4, [(0, 1)])) == 0

    def test_c4_witness(self):
        g = cycle(4)
        value, cut = toughness_witness(g)
        assert value == 1
        assert cut == mask_of([0, 2]) and len(components(g, cut)) == 2
        assert Fraction(cut.bit_count(), len(components(g, cut))) == value

    def test_oracle_agreement_up_to_6(self):
        for g in graph_reps(6):
            assert toughness(g) == toughness_oracle(g)

    def test_witness_validity_up_to_7(self):
        # and on the connected chordal classes at 8, where simplicial
        # vertices are skipped most
        for g in chain(_reps_through(7), connected_chordal_reps(8)):
            value, cut = toughness_witness(g)
            if cut is None:
                assert g.is_complete()
                continue
            parts = len(components(g, cut))
            assert parts >= 2
            assert Fraction(cut.bit_count(), parts) == value
            ratios = {s: Fraction(s.bit_count(), p) for s in range(1 << g.n)
                      if (p := len(components(g, s))) >= 2}
            assert min(ratios.values()) == value
            # the reported cut is the least mask among the minimizing cuts of
            # least size
            minimizers = [s for s, ratio in ratios.items() if ratio == value]
            assert cut == min(minimizers, key=lambda s: (s.bit_count(), s))

    def test_monotone_under_edge_deletion(self):
        for g in graph_reps(6):
            if g.edge_count() == 0:
                continue
            t = toughness(g)
            for u, v in g.edges():
                assert toughness(g.without_edge(u, v)) <= t


class TestIsTTough:
    def test_c4_thresholds(self):
        c4 = cycle(4)
        assert is_t_tough(c4, Fraction(1))
        assert not is_t_tough(c4, Fraction(9, 8))

    def test_disconnected_fails_any_positive(self):
        g = from_edges(4, [(0, 1)])
        assert not is_t_tough(g, Fraction(1, 100))
        assert is_t_tough(g, Fraction(0))

    def test_complete_is_t_tough_for_all(self):
        assert is_t_tough(complete(4), Fraction(100))

    @pytest.mark.parametrize("check, t", [
        (is_t_tough, INFINITY), (check_sufficient_condition, INFINITY),
        (is_t_tough, Fraction(-1)), (check_sufficient_condition, Fraction(-1)),
        (is_t_tough, 0.5), (check_sufficient_condition, 0.5),
    ])
    def test_rejects_threshold_not_finite_nonnegative_fraction(self, check, t):
        with pytest.raises(GraphError, match="threshold"):
            check(path(4), t)

    def test_matches_toughness_up_to_5(self):
        probes = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                  Fraction(1), Fraction(3, 2), Fraction(2)]
        for g in graph_reps(5):
            t = toughness(g)
            for p in probes:
                assert is_t_tough(g, p) == (t is INFINITY or p <= t)


class TestMinimallyTough:
    def test_star3(self):
        assert is_minimally_tough(star(3)) == (True, None)
        assert toughness(star(3)) == Fraction(1, 3)

    def test_wheel6(self):
        assert is_minimally_tough(wheel(6)) == (True, None)
        assert toughness(wheel(6)) == Fraction(3, 2)

    def test_paw_not_minimal(self):
        # deleting (0,1) leaves the path 1-2-0-3 whose toughness is still 1/2
        assert is_minimally_tough(PAW) == (False, (0, 1))
        survivor = PAW.without_edge(0, 1)
        assert toughness(survivor) == toughness(PAW) == Fraction(1, 2)

    def test_sun3_not_minimal(self):
        assert toughness(k_sun(3)) == 1
        assert not is_minimally_tough(k_sun(3))[0]

    def test_complete_and_disconnected_verdicts(self):
        # no edge to name: the caller tells the two apart by tau
        for g, tau in [(complete(1), INFINITY), (complete(3), INFINITY),
                       (from_edges(2, []), 0), (from_edges(3, []), 0),
                       (from_edges(4, [(0, 1), (2, 3)]), 0)]:  # the last is 2K2
            assert toughness(g) == tau, g
            assert is_minimally_tough(g) == (False, None), g

    def test_disconnected_verdict_read_from_cached_tau(self, monkeypatch):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert toughness(g) == 0
        counted = counted_components(monkeypatch)
        # past the verdict cache, the verdict comes from the cached tau alone
        assert is_minimally_tough.__wrapped__(g) == (False, None)
        assert counted == []

    def test_witness_edge_preserves_toughness(self):
        for g in graph_reps(5):
            edge = is_minimally_tough(g)[1]
            if edge is not None:
                kept = g.without_edge(*edge)
                assert toughness(kept) == toughness(g)

    def test_matches_recomputation(self):
        # the answer and witness_edge agree with per-edge recomputation
        graphs = list(_reps_through(7)) + list(connected_chordal_reps(8))
        graphs += [wheel(n) for n in range(5, 13)]
        graphs += [matched_cliques(k) for k in range(3, 6)]
        graphs += [star(leaves) for leaves in range(2, 9)]
        graphs += [k_sun(k) for k in (3, 4)]
        shapes = set()
        for g in graphs:
            minimal, edge = answer = is_minimally_tough(g)
            assert answer == recomputed_minimality(g), g
            tau = toughness(g)
            shapes.add((tau is INFINITY, tau == 0, minimal, edge is None))
        # complete, disconnected, minimally tough and not minimal, each met
        assert shapes == {(True, False, False, True), (False, True, False, True),
                          (False, False, True, True), (False, False, False, False)}


class TestDisjointPaths:
    def test_k4_adjacent(self):
        assert disjoint_path_count(complete(4), 0, 1) == 3

    def test_c4_adjacent(self):
        assert disjoint_path_count(cycle(4), 0, 1) == 2

    def test_wheel5_hub_to_rim(self):
        assert disjoint_path_count(wheel(5), 0, 1) == 3

    def test_rejects_equal_endpoints(self):
        with pytest.raises(GraphError):
            disjoint_path_count(complete(4), 2, 2)

    @pytest.mark.parametrize("u, v", [(0, 7), (7, 0), (-1, 2)])
    def test_rejects_vertex_out_of_range(self, u, v):
        with pytest.raises(GraphError):
            disjoint_path_count(cycle(4), u, v)

    def test_path_packing_oracle_up_to_5(self):
        for g in graph_reps(5):
            for u, v in combinations(range(g.n), 2):
                assert disjoint_path_count(g, u, v) == path_packing_oracle(g, u, v)

    def test_builds_no_components_up_to_6(self, monkeypatch):
        counted = counted_components(monkeypatch)
        for g in _reps_through(6):
            for u, v in combinations(range(g.n), 2):
                disjoint_path_count(g, u, v)
        assert counted == []

    def test_connectivity_bound_by_toughness(self):
        for g in graph_reps(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            assert 2 * t.numerator <= vertex_connectivity(g) * t.denominator


def to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestNetworkxOracles:
    def test_vertex_connectivity_2_to_6(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 7):
            for g in graph_reps(n):
                assert vertex_connectivity(g) == nx.node_connectivity(to_networkx(nx, g)), g

    def test_disjoint_path_count_up_to_6(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.connectivity import local_node_connectivity
        for n in range(2, 7):
            for g in graph_reps(n):
                for u, v in combinations(range(n), 2):
                    # networkx counts nonadjacent pairs; an edge is one more path
                    edge = g.has_edge(u, v)
                    h = to_networkx(nx, g.without_edge(u, v) if edge else g)
                    expected = edge + local_node_connectivity(h, u, v)
                    assert disjoint_path_count(g, u, v) == expected, (g, u, v)


class TestCharacterization:
    def test_p3_minimal_no_edge(self):
        assert check_non_minimality_characterization(path(3)) is None

    def test_paw_has_edge(self):
        assert check_non_minimality_characterization(PAW) is not None

    @pytest.mark.parametrize("call", [
        lambda g: check_non_minimality_characterization(g),
        lambda g: check_condition2_restricted(g, (0, 1)),
        lambda g: find_edge_witness_set(g, (0, 1)),
    ], ids=["characterization", "check_condition2_restricted", "find_edge_witness_set"])
    @pytest.mark.parametrize("g", [complete(4), from_edges(3, [(0, 1)])],
                             ids=["complete", "disconnected"])
    def test_rejects_complete_or_disconnected(self, call, g):
        # (0, 1) is an edge of both graphs, so only the domain is refused
        with pytest.raises(GraphError, match="connected noncomplete"):
            call(g)

    def test_equivalence_with_direct_recomputation_up_to_5(self):
        for g in graph_reps(5):
            if g.is_complete() or not g.is_connected():
                continue
            edge = check_non_minimality_characterization(g)
            direct = _not_minimal_by_recomputation(g)
            assert (edge is None) == (direct is None)


class TestCondition2Restricted:
    def test_c4_each_edge_agrees(self):
        c4 = cycle(4)
        for edge in c4.edges():
            restricted, unrestricted = check_condition2_restricted(c4, edge)
            assert restricted == unrestricted

    def test_k4_minus_edge(self):
        g = complete(4).without_edge(2, 3)
        for edge in g.edges():
            restricted, unrestricted = check_condition2_restricted(g, edge)
            assert restricted == unrestricted

    def test_rejects_non_edge(self):
        with pytest.raises(GraphError):
            check_condition2_restricted(cycle(4), (0, 2))

    def test_agreement_on_all_edges_up_to_5(self):
        for g in graph_reps(5):
            if g.is_complete() or not g.is_connected():
                continue
            for edge in g.edges():
                restricted, unrestricted = check_condition2_restricted(g, edge)
                assert restricted == unrestricted

    def test_one_walk_per_call_up_to_5(self, monkeypatch):
        module = importlib.import_module("toughlab.toughness")
        walk, walked, asked = module.separating_cuts, [], []

        def counted(g, u, v, *rest):
            walked.append((u, v))
            return walk(g, u, v, *rest)

        monkeypatch.setattr(module, "separating_cuts", counted)
        for g in _reps_through(5):
            if g.is_complete() or not g.is_connected():
                continue
            for edge in g.edges():
                check_condition2_restricted(g, edge)
                asked.append(edge)
        assert walked == asked

    def test_matches_definition_up_to_6(self):
        # oracle: the condition as stated, on components of G and of G - e
        for g in _reps_through(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            for u, v in g.edges():
                ge = g.without_edge(u, v)
                restricted = unrestricted = True
                for s in range(1 << g.n):
                    if s >> u & 1 or s >> v & 1:
                        continue
                    w_g = len(components(g, s))
                    comps_ge = components(ge, s)
                    if w_g < 2 or any(c >> u & 1 and c >> v & 1 for c in comps_ge):
                        continue  # S does not separate G, or not u from v in G - e
                    if s.bit_count() * t.denominator >= t.numerator * (w_g + 1):
                        continue
                    unrestricted = False
                    if all(sum(1 for c in comps_ge if g.adj[w] & c) >= 2 for w in bits(s)):
                        restricted = False
                assert check_condition2_restricted(g, (u, v)) == (restricted, unrestricted)


class TestSufficientCondition:
    def test_k4_at_one(self):
        assert check_sufficient_condition(complete(4), Fraction(1)) is not None

    def test_c5_at_one(self):
        assert check_sufficient_condition(cycle(5), Fraction(1)) is None

    def test_returned_edge_meets_hypothesis(self):
        t = Fraction(1)
        for g in graph_reps(5):
            edge = check_sufficient_condition(g, t)
            if edge is None:
                continue
            u, v = edge
            assert g.has_edge(u, v)
            common = g.adj[u] & g.adj[v]
            assert common.bit_count() >= 2
            hood = g.adj[u] | g.adj[v]
            confined = sum(1 for w in bits(common) if not g.adj[w] & ~hood)
            assert confined >= 1

    def test_implies_not_minimally_tough_up_to_6(self):
        for g in graph_reps(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            if check_sufficient_condition(g, t) is not None:
                assert not is_minimally_tough(g)[0]


class TestEdgeWitnessSets:
    def test_star_edges_are_bridges(self):
        s = star(3)
        for edge in s.edges():
            assert find_edge_witness_set(s, edge) == 0

    def test_c4_edge_witness(self):
        # cut {2}: C4 - {2} keeps 0-1 joined, deleting the edge then splits it,
        # 1 component <= |S|/t = 1 and 2 components > 1
        assert find_edge_witness_set(cycle(4), (0, 1)) == mask_of([2])

    def test_witness_conditions_validate(self):
        for g in _reps_through(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            for edge in g.edges():
                cut = find_edge_witness_set(g, edge)
                u, v = edge
                ge = g.without_edge(u, v)
                # every nonempty witness cut, by the definition on G and G - e
                found = []
                for s in range(1, 1 << g.n):
                    if s >> u & 1 or s >> v & 1:
                        continue
                    w_g = len(components(g, s))
                    w_ge = len(components(ge, s))
                    if (w_g * t.numerator <= s.bit_count() * t.denominator
                            < w_ge * t.numerator):
                        found.append(s)
                if cut is None:
                    assert ge.is_connected() and not found
                    continue
                assert not cut >> u & 1 and not cut >> v & 1
                if cut == 0:
                    assert not ge.is_connected()
                    continue
                w_g = len(components(g, cut))
                w_ge = len(components(ge, cut))
                assert w_g * t.numerator <= cut.bit_count() * t.denominator
                assert w_ge * t.numerator > cut.bit_count() * t.denominator
                assert w_ge == w_g + 1
                # least mask among the size-minimal witnesses
                assert cut == min(found, key=lambda c: (c.bit_count(), c))

    def test_every_edge_of_minimally_tough_graph_has_witness(self):
        for g in graph_reps(6):
            if g.is_complete() or not g.is_connected():
                continue
            if not is_minimally_tough(g)[0]:
                continue
            for edge in g.edges():
                assert find_edge_witness_set(g, edge) is not None

    def test_rejects_non_edge(self):
        with pytest.raises(GraphError):
            find_edge_witness_set(cycle(4), (0, 2))


class TestVertexRange:
    @pytest.mark.parametrize("call", [
        find_edge_witness_set,
        check_condition2_restricted,
        lambda g, edge: g.without_edge(*edge),
    ], ids=["find_edge_witness_set", "check_condition2_restricted", "without_edge"])
    @pytest.mark.parametrize("edge", [(-1, 2), (7, 0)])
    def test_vertex_outside_graph_is_graph_error(self, call, edge):
        with pytest.raises(GraphError, match="outside"):
            call(path(4), edge)


class TestExactArithmetic:
    def test_values_are_reduced_integer_fractions(self):
        for g in graph_reps(5):
            t = toughness(g)
            if t is INFINITY:
                continue
            assert isinstance(t, Fraction)
            assert isinstance(t.numerator, int) and isinstance(t.denominator, int)

    def test_thresholds_sharp_beyond_float_precision(self):
        # 1/2 + 2^-61 and 1/2 both collapse to 0.5 as floats; the exact
        # comparisons must still distinguish them
        from toughlab.rational import exceeds_half
        just_over = Fraction(2 ** 60 + 1, 2 ** 61)
        assert float(just_over) == 0.5
        assert exceeds_half(just_over)
        assert not exceeds_half(Fraction(1, 2))
        p3 = path(3)  # tau exactly 1/2
        assert is_t_tough(p3, Fraction(1, 2))
        assert not is_t_tough(p3, just_over)

    @pytest.mark.parametrize("value, over_half, at_most, in_interval", [
        (Fraction(0), False, True, False),
        (Fraction(1, 3), False, True, False),
        (Fraction(1, 2), False, True, False),
        (Fraction(501, 1000), True, True, True),
        (Fraction(1), True, True, True),
        (Fraction(1001, 1000), True, False, False),
        (Fraction(3, 2), True, False, False),
        (INFINITY, True, False, False),
    ])
    def test_range_predicates_at_their_boundaries(self, value, over_half, at_most,
                                                  in_interval):
        from toughlab.rational import at_most_one, exceeds_half, in_half_one_interval
        assert exceeds_half(value) is over_half
        assert at_most_one(value) is at_most
        assert in_half_one_interval(value) is in_interval

    def test_infinity_is_one_object(self):
        import copy
        import multiprocessing
        import pickle
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
        assert copy.deepcopy(INFINITY) is INFINITY
        assert INFINITY == INFINITY and not INFINITY != INFINITY
        assert INFINITY != Fraction(5) and Fraction(5) != INFINITY
        assert not INFINITY == Fraction(5) and not Fraction(5) == INFINITY
        assert {INFINITY: 1}[INFINITY] == 1
        five = Fraction(5)
        assert INFINITY > five and INFINITY >= five and five < INFINITY and five <= INFINITY
        assert not (INFINITY < five or INFINITY <= five or five > INFINITY or five >= INFINITY)
        assert INFINITY <= INFINITY and INFINITY >= INFINITY
        assert not (INFINITY < INFINITY or INFINITY > INFINITY)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(toughness, (complete(4),)) is INFINITY


class TestFamilyValues:
    def test_matched_cliques_toughness(self):
        assert toughness(matched_cliques(3)) == Fraction(3, 2)
        assert toughness(matched_cliques(4)) == Fraction(2)

    def test_wheel_formula(self):
        for n in range(5, 9):
            expected = Fraction(n + 1, n - 1) if n % 2 else Fraction(n, n - 2)
            assert toughness(wheel(n)) == expected


# Random graphs with at most 9 vertices, random graphs and random chordal
# graphs on 10 to 12, and random trees on 12 to 40. Each test is
# derandomized, with a fixed example budget and no example database, so
# every run draws the same graphs.
bounded = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [p for p, kept in zip(pairs, keep) if kept])


@st.composite
def random_chordal_graphs(draw):
    """Connected chordal graph on 10 to 12 vertices, randomly labeled. Each
    new vertex joins a clique of the earlier ones that holds a drawn anchor,
    so the reverse insertion order is a perfect elimination ordering. A
    vertex that could grow the clique joins it with a drawn odds of 1 to 4
    in 5, so the graphs range from near-trees to near-complete."""
    n = draw(st.integers(10, 12))
    odds = draw(st.integers(1, 4))
    adj = [0] * n
    for i in range(1, n):
        clique = 1 << draw(st.integers(0, i - 1))
        for w in range(i):
            if not clique & ~adj[w] and draw(st.integers(0, 4)) < odds:
                clique |= 1 << w
        adj[i] = clique
        for w in bits(clique):
            adj[w] |= 1 << i
    edges = [(v, w) for v in range(n) for w in bits(adj[v]) if v < w]
    return relabel(from_edges(n, edges), draw(st.permutations(range(n))))


@st.composite
def random_general_graphs(draw, low=3, high=8):
    """G(n, p) on 10 to 12 vertices, each pair an edge with a drawn p of
    low/10 to high/10. With the default 3/10 to 4/5 most draws are
    connected, and most have at most two simplicial vertices."""
    n = draw(st.integers(10, 12))
    odds = draw(st.integers(low, high))
    return from_edges(n, [p for p in combinations(range(n), 2) if draw(st.integers(0, 9)) < odds])


@st.composite
def random_trees(draw):
    """Tree on 12 to 40 vertices, randomly labeled: each new vertex hangs
    from a drawn earlier one."""
    n = draw(st.integers(12, 40))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return relabel(from_edges(n, edges), draw(st.permutations(range(n))))


@st.composite
def relabeled_pairs(draw):
    g = draw(random_graphs())
    return g, relabel(g, draw(st.permutations(range(g.n))))


class TestRandomGraphProperties:
    @bounded
    @given(random_graphs())
    def test_edge_deletion_never_raises_toughness(self, g):
        t = toughness(g)
        for u, v in g.edges():
            assert toughness(g.without_edge(u, v)) <= t

    @bounded
    @given(relabeled_pairs())
    def test_toughness_and_verdict_survive_relabeling(self, pair):
        g, h = pair
        assert toughness(h) == toughness(g)
        assert is_minimally_tough(h)[0] is is_minimally_tough(g)[0]

    @bounded
    @given(random_graphs())
    def test_witness_cut_revalidates(self, g):
        value, cut = toughness_witness(g)
        if cut is None:
            assert g.is_complete() and value is INFINITY
            return
        parts = len(components(g, cut))
        assert parts >= 2
        assert Fraction(cut.bit_count(), parts) == value

    @bounded
    @given(random_graphs())
    def test_targeted_minimality_matches_recomputation(self, g):
        assert is_minimally_tough(g) == recomputed_minimality(g)

    @bounded
    @given(random_graphs(), st.data())
    def test_separator_generator_matches_walk_and_relabeling(self, g, data):
        order = data.draw(st.permutations(range(g.n)))
        h = relabel(g, order)
        found = minimal_separators(g)
        assert found == _minimal_separators_brute(g)
        images = sorted(mask_of(order.index(v) for v in bits(s)) for s in found)
        assert minimal_separators(h) == images

    @bounded
    @given(st.one_of(random_graphs(), random_chordal_graphs()))
    def test_s_full_test_matches_definition_on_every_mask(self, g):
        # past the n <= 7 of the verify suite
        for s in range(1 << g.n):
            assert is_minimal_separator(g, s) == _is_minimal_separator_direct(g, s), s

    @bounded
    @given(random_graphs())
    def test_graph6_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @bounded
    @given(st.one_of(random_graphs(), random_chordal_graphs()))
    def test_toughness_at_most_half_connectivity(self, g):
        if g.is_complete():
            return
        t = toughness(g)
        assert 2 * t.numerator <= vertex_connectivity(g) * t.denominator


def separators_over_every_mask(g):
    """Reference for the restricted walk: the S-full test on all 2^n masks."""
    return [s for s in range(1 << g.n) if is_minimal_separator(g, s)]


def minimal_separator_all_pairs(g, s):
    """Reference for the direct oracle: every pair of vertices outside s,
    against every single-vertex deletion of s built up front."""
    comps = components(g, s)
    if len(comps) < 2:
        return False
    deleted = [_put_back(g, comps, w) for w in bits(s)]
    outside = [v for v in range(g.n) if not s >> v & 1]
    for u, v in combinations(outside, 2):
        if separates(comps, u, v) and not any(separates(c, u, v) for c in deleted):
            return True
    return False


class TestSeparatorOracles:
    """The verifier's separator oracles against their plain forms, past the
    suites' bounds: the walk over subsets of the non-simplicial vertices
    against the walk over every mask, and the direct oracle that tests one
    vertex per component against the one that tests every pair."""

    def test_restricted_walk_matches_every_mask_up_to_7(self):
        for g in _reps_through(7):
            assert _minimal_separators_brute(g) == separators_over_every_mask(g), to_graph6(g)

    def test_restricted_walk_matches_every_mask_on_chordal_up_to_8(self):
        for n in range(1, 9):
            for g in connected_chordal_reps(n):
                assert _minimal_separators_brute(g) == separators_over_every_mask(g), \
                    to_graph6(g)

    @bounded
    @given(st.one_of(random_graphs(), random_chordal_graphs()))
    def test_restricted_walk_matches_every_mask_on_random_graphs(self, g):
        assert _minimal_separators_brute(g) == separators_over_every_mask(g)

    def test_direct_oracle_matches_all_pairs_up_to_6(self):
        for g in _reps_through(6):
            for s in range(1 << g.n):
                assert _is_minimal_separator_direct(g, s) == \
                    minimal_separator_all_pairs(g, s), (to_graph6(g), s)

    @bounded
    @given(random_graphs())
    def test_direct_oracle_matches_all_pairs_on_random_graphs(self, g):
        for s in range(1 << g.n):
            assert _is_minimal_separator_direct(g, s) == minimal_separator_all_pairs(g, s), s


def simplicial_by_definition(g):
    """Oracle: the vertices whose neighbourhood is a clique, one is_clique
    call each."""
    return sum(1 << v for v in range(g.n) if is_clique(g, g.adj[v]))


class TestSimplicialMask:
    """simplicial_mask, which stops at the first neighbour that fails,
    against its definition on every vertex."""

    def test_matches_definition_up_to_7_and_on_chordal_up_to_8(self):
        chordal = (g for n in range(1, 9) for g in connected_chordal_reps(n))
        for g in chain(_reps_through(7), chordal):
            assert simplicial_mask(g) == simplicial_by_definition(g), to_graph6(g)

    @bounded
    @given(st.one_of(random_graphs(), random_general_graphs(), random_chordal_graphs(),
                     random_trees()))
    def test_matches_definition_on_random_graphs(self, g):
        assert simplicial_mask(g) == simplicial_by_definition(g)


class TestRandomChordalGraphs:
    """Past the enumerated range: chordal graphs on 10 to 12 vertices, where
    the cut walks skip the most vertices."""

    @bounded
    @given(random_chordal_graphs())
    def test_witness_matches_unpruned_walk(self, g):
        assert is_chordal(g) and g.is_connected()
        assert toughness_witness(g) == unpruned_toughness_witness(g)

    @bounded
    @given(random_chordal_graphs())
    def test_minimality_matches_recomputation(self, g):
        assert is_minimally_tough(g) == recomputed_minimality(g)


class TestRandomGeneralGraphs:
    """Past the enumerated range: G(n, p) on 10 to 12 vertices, where the
    simplicial prune rarely applies and the edge walk stops early instead."""

    @bounded
    @given(random_general_graphs())
    def test_witness_matches_unpruned_walk(self, g):
        assert toughness_witness(g) == unpruned_toughness_witness(g)

    @bounded
    @given(random_general_graphs())
    def test_minimality_matches_recomputation(self, g):
        assert is_minimally_tough(g) == recomputed_minimality(g)


def necklace(hubs, beads):
    """hubs vertices 0..hubs-1 in a ring, each consecutive pair joined by
    beads paths of length two; the beads are vertices hubs.. on."""
    edges = []
    for i in range(hubs):
        for j in range(beads):
            bead = hubs + i * beads + j
            edges += [(i, bead), ((i + 1) % hubs, bead)]
    return from_edges(hubs * (beads + 1), edges)


def independence_oracle(nx, g):
    """alpha(g) as networkx's maximum clique size of the complement."""
    return nx.max_weight_clique(nx.complement(to_networkx(nx, g)), weight=None)[1]


def counted_components(monkeypatch):
    """Count the components calls made from the toughness and graphs modules."""
    calls = []

    def counting(g, removed=0):
        calls.append(removed)
        return components(g, removed)

    # the package's toughness attribute is the function, not the module
    for name in ("toughness", "graphs"):
        monkeypatch.setattr(importlib.import_module(f"toughlab.{name}"), "components", counting)
    return calls


class TestBoundedWalk:
    """toughness_witness stops at the first cut size where no cut can beat the
    best ratio, with omega(G-S) capped by n - |S|, by alpha(G), and by the
    degree sum of S over kappa. Every cap must be valid (the witness matches
    the unpruned walk) and must be used (the pinned call counts)."""

    def test_independence_number_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in _reps_through(7):
            alpha = independence_oracle(nx, g)
            # with and without the simplicial vertices taken first
            assert _independence_number(g, simplicial_mask(g)) == alpha, to_graph6(g)
            assert _independence_number(g, 0) == alpha, to_graph6(g)

    @bounded
    @given(st.one_of(random_graphs(), random_general_graphs(), random_chordal_graphs(),
                     random_trees()))
    def test_independence_number_on_random_graphs(self, g):
        nx = pytest.importorskip("networkx")
        alpha = independence_oracle(nx, g)
        assert _independence_number(g, simplicial_mask(g)) == alpha
        assert _independence_number(g, 0) == alpha

    @bounded
    @given(random_trees())
    def test_tree_toughness_is_one_over_max_degree(self, g):
        top = max(g.degree(v) for v in range(g.n))
        value, cut = toughness_witness(g)
        assert value == Fraction(1, top)
        first = next(v for v in range(g.n) if g.degree(v) == top)
        assert cut == 1 << first and len(components(g, cut)) == top

    @bounded
    @given(random_general_graphs(1, 3))
    def test_sparse_witness_matches_unpruned_walk(self, g):
        assert toughness_witness(g) == unpruned_toughness_witness(g)

    @pytest.mark.parametrize("g", [
        # the best cut is the three hubs, one size past kappa = 2, and meets
        # the degree cap D_3/kappa = 9 exactly
        necklace(3, 3),
        # K_{3,7} with a pendant vertex: kappa = 1, and the best cut, the
        # three vertices of the small side, leaves alpha = 7 components
        from_edges(11, [(a, b) for a in range(3) for b in range(3, 10)] + [(3, 10)]),
    ], ids=["necklace", "k37_pendant"])
    def test_tight_caps_keep_the_witness(self, g):
        assert toughness_witness(g) == unpruned_toughness_witness(g)

    @pytest.mark.parametrize("g, calls", [
        # sizes 0 and 1 over the 22 inner vertices; D_2/kappa = 4 stops size 2
        (path(24), 1 + 22),
        # sizes 0 to 2; D_3/kappa = 3 stops size 3
        (cycle(20), 1 + 20 + 190),
        # sizes 0 to 5 over all ten vertices; alpha = 2 stops size 6
        (matched_cliques(5), 1 + 10 + 45 + 120 + 210 + 252),
    ], ids=["path24", "cycle20", "matched_cliques5"])
    def test_pinned_components_calls(self, monkeypatch, g, calls):
        counted = counted_components(monkeypatch)
        toughness_witness(g)
        assert len(counted) == calls
