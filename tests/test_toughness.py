"""Toughness engine: exact values against a full-scan oracle, Menger counts
against a path-packing oracle, and the characterization machinery."""

from fractions import Fraction
from itertools import combinations

import pytest

from toughlab.families import complete, cycle, k_sun, matched_cliques, path, star, wheel
from toughlab.graphs import (
    GraphError,
    bits,
    components,
    from_edges,
    graph_reps,
    mask_of,
)
from toughlab.rational import INFINITY
from toughlab.toughness import (
    Minimality,
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
        value, witness = toughness_witness(cycle(4))
        assert value == 1
        assert witness.cut == mask_of([0, 2]) and witness.parts == 2
        assert witness.value == value

    def test_oracle_agreement_up_to_6(self):
        for g in graph_reps(6):
            assert toughness(g) == toughness_oracle(g)

    def test_witness_validity_up_to_7(self):
        for g in _reps_through(7):
            value, witness = toughness_witness(g)
            if witness is None:
                assert g.is_complete()
                continue
            parts = len(components(g, witness.cut))
            assert parts == witness.parts >= 2
            assert Fraction(witness.cut.bit_count(), parts) == witness.value == value
            ratios = {s: Fraction(s.bit_count(), p) for s in range(1 << g.n)
                      if (p := len(components(g, s))) >= 2}
            assert min(ratios.values()) == value
            # the reported cut is the least mask among the minimizing cuts of
            # least size
            minimizers = [s for s, ratio in ratios.items() if ratio == value]
            assert witness.cut == min(minimizers, key=lambda s: (s.bit_count(), s))

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

    def test_matches_toughness_up_to_5(self):
        probes = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                  Fraction(1), Fraction(3, 2), Fraction(2)]
        for g in graph_reps(5):
            t = toughness(g)
            for p in probes:
                assert is_t_tough(g, p) == (t is INFINITY or p <= t)


class TestMinimallyTough:
    def test_star3(self):
        result = is_minimally_tough(star(3))
        assert result.verdict is Minimality.MINIMALLY_TOUGH
        assert result.toughness == Fraction(1, 3)

    def test_wheel6(self):
        result = is_minimally_tough(wheel(6))
        assert result.verdict is Minimality.MINIMALLY_TOUGH
        assert result.toughness == Fraction(3, 2)

    def test_paw_not_minimal(self):
        # deleting (0,1) leaves the path 1-2-0-3 whose toughness is still 1/2
        result = is_minimally_tough(PAW)
        assert result.verdict is Minimality.NOT_MINIMAL
        assert result.witness_edge == (0, 1)
        survivor = PAW.without_edge(*result.witness_edge)
        assert toughness(survivor) == toughness(PAW) == Fraction(1, 2)

    def test_sun3_not_minimal(self):
        assert toughness(k_sun(3)) == 1
        assert is_minimally_tough(k_sun(3)).verdict is Minimality.NOT_MINIMAL

    def test_complete_and_disconnected_verdicts(self):
        assert is_minimally_tough(complete(3)).verdict is Minimality.COMPLETE
        assert is_minimally_tough(from_edges(2, [])).verdict is Minimality.DISCONNECTED

    def test_witness_edge_preserves_toughness(self):
        for g in graph_reps(5):
            result = is_minimally_tough(g)
            if result.verdict is Minimality.NOT_MINIMAL:
                kept = g.without_edge(*result.witness_edge)
                assert toughness(kept) == result.toughness


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

    def test_path_packing_oracle_up_to_5(self):
        for g in graph_reps(5):
            for u, v in combinations(range(g.n), 2):
                assert disjoint_path_count(g, u, v) == path_packing_oracle(g, u, v)

    def test_connectivity_bound_by_toughness(self):
        for g in graph_reps(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            assert 2 * t.numerator <= vertex_connectivity(g) * t.denominator


class TestCharacterization:
    def test_p3_minimal_no_edge(self):
        assert check_non_minimality_characterization(path(3)) is None

    def test_paw_has_edge(self):
        assert check_non_minimality_characterization(PAW) is not None

    def test_rejects_complete_or_disconnected(self):
        with pytest.raises(GraphError):
            check_non_minimality_characterization(complete(4))
        with pytest.raises(GraphError):
            check_non_minimality_characterization(from_edges(3, [(0, 1)]))

    def test_equivalence_with_direct_recomputation_up_to_5(self):
        for g in graph_reps(5):
            if g.is_complete() or not g.is_connected():
                continue
            edge = check_non_minimality_characterization(g)
            direct = is_minimally_tough(g).verdict is Minimality.NOT_MINIMAL
            assert (edge is not None) == direct


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
                assert is_minimally_tough(g).verdict is not Minimality.MINIMALLY_TOUGH


class TestEdgeWitnessSets:
    def test_star_edges_are_bridges(self):
        s = star(3)
        for edge in s.edges():
            witness = find_edge_witness_set(s, edge)
            assert witness is not None and witness.cut == 0

    def test_c4_edge_witness(self):
        # cut {2}: C4 - {2} keeps 0-1 joined, deleting the edge then splits it,
        # 1 component <= |S|/t = 1 and 2 components > 1
        witness = find_edge_witness_set(cycle(4), (0, 1))
        assert witness is not None and witness.cut == mask_of([2])

    def test_witness_conditions_validate(self):
        for g in _reps_through(6):
            if g.is_complete() or not g.is_connected():
                continue
            t = toughness(g)
            for edge in g.edges():
                witness = find_edge_witness_set(g, edge)
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
                if witness is None:
                    assert ge.is_connected() and not found
                    continue
                assert witness.edge == edge
                s = witness.cut
                assert not s >> u & 1 and not s >> v & 1
                if s == 0:
                    assert not ge.is_connected()
                    continue
                w_g = len(components(g, s))
                w_ge = len(components(ge, s))
                assert w_g * t.numerator <= s.bit_count() * t.denominator
                assert w_ge * t.numerator > s.bit_count() * t.denominator
                assert w_ge == w_g + 1
                # least mask among the size-minimal witnesses
                assert s == min(found, key=lambda c: (c.bit_count(), c))

    def test_every_edge_of_minimally_tough_graph_has_witness(self):
        for g in graph_reps(6):
            if g.is_complete() or not g.is_connected():
                continue
            if is_minimally_tough(g).verdict is not Minimality.MINIMALLY_TOUGH:
                continue
            for edge in g.edges():
                assert find_edge_witness_set(g, edge) is not None

    def test_rejects_non_edge(self):
        with pytest.raises(GraphError):
            find_edge_witness_set(cycle(4), (0, 2))


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


class TestFamilyValues:
    def test_matched_cliques_toughness(self):
        assert toughness(matched_cliques(3)) == Fraction(3, 2)
        assert toughness(matched_cliques(4)) == Fraction(2)

    def test_wheel_formula(self):
        for n in range(5, 9):
            expected = Fraction(n + 1, n - 1) if n % 2 else Fraction(n, n - 2)
            assert toughness(wheel(n)) == expected
