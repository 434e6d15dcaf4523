"""Family constructors: exact edge sets, labeling conventions, and the
paper-derived toughness facts for stars, wheels, suns, and matched cliques."""

import tracemalloc
from fractions import Fraction

import pytest

from toughlab.chordal import is_chordal, is_clique
from toughlab.families import (
    build_family,
    complete,
    cycle,
    k_sun,
    matched_cliques,
    path,
    star,
    wheel,
)
from toughlab.graphs import GraphError, mask_of
from toughlab.recognize import find_induced_claw, is_independent, is_split, is_strongly_chordal
from toughlab.toughness import is_minimally_tough, toughness, vertex_connectivity


class TestConstructions:
    def test_path_and_cycle(self):
        assert sorted(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]
        assert sorted(cycle(4).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_complete(self):
        assert complete(4).edge_count() == 6 and complete(4).is_complete()

    def test_star_hub_is_zero(self):
        g = star(3)
        assert g.degree(0) == 3 and all(g.degree(v) == 1 for v in range(1, 4))

    def test_wheel_hub_is_zero(self):
        g = wheel(5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 3 for v in range(1, 5))
        assert g.edge_count() == 8

    def test_sun_labeling(self):
        g = k_sun(3)
        assert g.has_edge(3, 0) and g.has_edge(3, 1)  # b_0 sees a_0 and a_1
        assert g.has_edge(5, 2) and g.has_edge(5, 0)  # wrap: b_2 sees a_2 and a_0
        assert not g.has_edge(3, 2)
        assert g.edge_count() == 9

    def test_matched_cliques_labeling(self):
        g = matched_cliques(3)
        assert g.has_edge(0, 3) and g.has_edge(1, 4) and g.has_edge(2, 5)
        assert not g.has_edge(0, 4)
        assert g.edge_count() == 2 * 3 + 3

    def test_parameter_minimums(self):
        for build, bad in [(path, 0), (cycle, 2), (complete, 0), (star, 0),
                           (wheel, 3), (k_sun, 2), (matched_cliques, 1)]:
            with pytest.raises(GraphError):
                build(bad)

    @pytest.mark.parametrize("build, size", [
        (path, 10**6), (cycle, 10**6), (complete, 3000), (star, 10**6),
        (wheel, 10**6), (k_sun, 1500), (matched_cliques, 1500)])
    def test_oversized_member_refused_before_edges_exist(self, build, size):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError):
                build(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_build_family_strings(self):
        assert build_family("wheel:5") == wheel(5)
        assert build_family("star:3") == star(3)
        with pytest.raises(GraphError):
            build_family("wheel")
        with pytest.raises(GraphError):
            build_family("nosuch:3")
        with pytest.raises(GraphError):
            build_family("wheel:x")


class TestFamilyFacts:
    def test_stars_minimally_tough(self):
        for leaves in range(2, 7):
            assert is_minimally_tough(star(leaves))[0]
            assert toughness(star(leaves)) == Fraction(1, leaves)

    def test_wheels_formula_and_minimality(self):
        for n in range(5, 11):
            expected = Fraction(n + 1, n - 1) if n % 2 else Fraction(n, n - 2)
            assert toughness(wheel(n)) == expected
            assert is_minimally_tough(wheel(n))[0]

    def test_matched_cliques_facts(self):
        for k in (3, 4):
            g = matched_cliques(k)
            assert find_induced_claw(g) is None
            assert vertex_connectivity(g) == k
            assert toughness(g) == Fraction(k, 2)
            assert is_minimally_tough(g)[0]

    def test_sun_class_memberships(self):
        for k in (3, 4):
            g = k_sun(k)
            assert is_chordal(g)
            # the hub is the clique side and the outer vertices the independent side
            assert is_clique(g, mask_of(range(k)))
            assert is_independent(g, mask_of(range(k, 2 * k)))
            assert is_split(g)
            assert not is_strongly_chordal(g)
