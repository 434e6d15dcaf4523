"""Acceptance criteria, one test per criterion, each at its stated bound.

Run with -s (this module uses no capture fixtures) to see one line per
criterion:

    pytest tests/test_acceptance.py -s
"""

import contextlib
import io
import json
import os
import time
from fractions import Fraction

from toughlab.chordal import is_chordal
from toughlab.cli import EXIT_OK, main
from toughlab.families import k_sun, matched_cliques, star, wheel
from toughlab.graphs import from_edges, graph_reps, parse_graph6, to_graph6
from toughlab.rational import in_half_one_interval
from toughlab.recognize import find_induced_sun, find_split_obstruction, is_split, is_strongly_chordal
from toughlab.toughness import is_minimally_tough, toughness
from toughlab.verify import run_suite, scan_conjecture


def _report(index, name, started):
    print(f"ACCEPTANCE {index:02d} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_01_wheels_exact_toughness_and_minimality():
    started = time.perf_counter()
    for n in range(5, 11):
        expected = Fraction(n + 1, n - 1) if n % 2 else Fraction(n, n - 2)
        assert toughness(wheel(n)) == expected, f"wheel({n})"
        assert is_minimally_tough(wheel(n))[0], f"wheel({n})"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    _report(1, "wheels tau=(n+1)/(n-1) | n/(n-2), minimally tough, n=5..10", started)


def test_02_stars_minimally_tough():
    started = time.perf_counter()
    for leaves in range(2, 7):
        assert is_minimally_tough(star(leaves))[0], f"star({leaves})"
        assert toughness(star(leaves)) == Fraction(1, leaves), f"star({leaves})"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.1f}s"
    _report(2, "stars minimally (1/l)-tough, l=2..6", started)


def test_03_matched_cliques():
    started = time.perf_counter()
    for k in (3, 4):
        assert toughness(matched_cliques(k)) == Fraction(k, 2), f"matched_cliques({k})"
        assert is_minimally_tough(matched_cliques(k))[0], f"matched_cliques({k})"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    _report(3, "matched cliques tau=k/2, minimally tough, k=3,4", started)


def test_04_conjecture_scan_chordal_n8():
    started = time.perf_counter()
    jobs = min(4, os.cpu_count() or 1)
    report, hits = scan_conjecture(8, "chordal", jobs=jobs)
    hard = [(g6, tau) for g6, tau, _, _ in hits if in_half_one_interval(tau)]
    assert not hard, f"theorem-contradicting hits: {hard}"
    for g6, tau, _, _ in hits:
        print(f"  refutation candidate (mathematical finding): {g6} tau={tau}")
    assert report["counterexamples"] == [], "scan expected to be empty at n <= 8"
    assert report["graphs_checked"] == 1 + 1 + 2 + 5 + 15 + 58 + 272 + 1614
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    _report(4, "conjecture scan: no minimally tough chordal graph, tau>1/2, n<=8", started)


def test_05_characterization_equivalence_n6():
    started = time.perf_counter()
    report = run_suite("thm_characterization", 6)
    assert report["violations"] == [], report["violations"][:5]
    assert report["graphs_checked"] == 137  # connected noncomplete classes, n <= 6
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    _report(5, "characterization = direct recomputation, n<=6", started)


def test_06_condition2_lemma_equivalence_n6():
    started = time.perf_counter()
    report = run_suite("lemma_restricted_separators", 6)
    assert report["violations"] == [], report["violations"][:5]
    assert report["graphs_checked"] == 137
    _report(6, "restricted vs unrestricted separator condition, n<=6", started)


def test_07_sufficient_condition_soundness_n7():
    started = time.perf_counter()
    report = run_suite("lemma_sufficient", 7)
    assert report["violations"] == [], report["violations"][:5]
    _report(7, "sufficient condition implies not minimally tough, n<=7", started)


def test_08_separator_oracle_equivalence_n8():
    started = time.perf_counter()
    report = run_suite("prop_cliquetree_separators", 8)
    assert report["violations"] == [], report["violations"][:5]
    assert report["graphs_checked"] == 1968  # connected chordal classes, n <= 8
    _report(8, "clique-tree separators = S-full brute force, n<=8", started)


def test_09_farber_and_split_biconditionals_n7():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for g in graph_reps(n):
            checked += 1
            sun_free = find_induced_sun(g) is None
            assert is_strongly_chordal(g) == (is_chordal(g) and sun_free), to_graph6(g)
            assert is_split(g) == (find_split_obstruction(g) is None), to_graph6(g)
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    _report(9, "Farber triple equivalence and split biconditional, n<=7", started)


def test_10_structural_propositions_n7():
    started = time.perf_counter()
    for suite in ("prop_connectivity_bound", "thm_two_moplexes",
                  "prop_simple_moplicial", "thm_dirac", "thm_chordal_interval"):
        report = run_suite(suite, 7)
        assert report["violations"] == [], (suite, report["violations"][:5])
    _report(10, "tau<=kappa/2; >=2 moplexes; simple=>moplicial; Dirac; hole, n<=7", started)


def test_11_stars_theorem_n7():
    started = time.perf_counter()
    report = run_suite("thm_stars", 7)
    assert report["violations"] == [], report["violations"][:5]
    _report(11, "universal vertex + finite tau<=1: minimally tough iff star, n<=7", started)


def test_12_graph6_conformance():
    started = time.perf_counter()
    assert parse_graph6("Bw") == from_edges(3, [(0, 1), (1, 2), (0, 2)])
    count = 0
    for n in range(1, 8):
        for g in graph_reps(n):
            assert parse_graph6(to_graph6(g)) == g
            count += 1
    assert count == 1252
    _report(12, "graph6 round-trip on all classes n<=7 and Bw = K3", started)


def test_13_wheel16_minimality_budget():
    started = time.perf_counter()
    assert is_minimally_tough(wheel(16))[0]
    assert toughness(wheel(16)) == Fraction(8, 7)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"budget exceeded: {elapsed:.1f}s"
    _report(13, "wheel(16) minimally 8/7-tough within 2 s", started)


def test_14_analyze_complete30_budget():
    started = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--json", "--family", "complete:30"])
    record = json.loads(out.getvalue())
    assert code == EXIT_OK
    assert record["tau"] == "inf" and record["minimal_separators"] == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.1f}s"
    _report(14, "analyze complete:30 within 1 s", started)


def test_15_analyze_path40_cycle40_budget():
    for family, tau in (("path:40", Fraction(1, 2)), ("cycle:40", Fraction(1))):
        started = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--json", "--family", family])
        record = json.loads(out.getvalue())
        assert code == EXIT_OK
        assert Fraction(record["tau_num"], record["tau_den"]) == tau, family
        assert record["verdict"] == "minimally_tough", family
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{family}: budget exceeded: {elapsed:.1f}s"
        _report(15, f"analyze {family} tau={tau}, minimally tough, within 1 s", started)


def test_16_sun31_recognizers_budget():
    g = k_sun(31)
    for recognizer, expected in ((is_strongly_chordal, False), (is_split, True)):
        started = time.perf_counter()
        assert recognizer(g) is expected
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{recognizer.__name__}: budget exceeded: {elapsed:.1f}s"
        _report(16, f"{recognizer.__name__}(k_sun(31)) is {expected} within 1 s", started)
