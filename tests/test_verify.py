"""Verifier: suite registry behavior, the scan's worker pool and
classification, and report serialization."""

import io
import json
import multiprocessing
from fractions import Fraction

import pytest

from toughlab.chordal import (clique_tree, is_minimal_separator,
                              minimal_separators_via_clique_tree)
from toughlab.cli import EXIT_OK, main
from toughlab.families import cycle, k_sun, star, wheel
from toughlab.graphs import (
    GraphError,
    bits,
    canonical_graph,
    components,
    connected_chordal_reps,
    from_edges,
    graph_reps,
    level_map,
    to_graph6,
)
from toughlab.rational import exceeds_half
from toughlab.toughness import (
    is_minimally_tough,
    toughness,
    toughness_witness,
)
from toughlab.verify import (
    SEVERITY_CANDIDATE,
    SEVERITY_FINDING,
    SEVERITY_VIOLATION,
    THEOREMS,
    SUITES,
    _minimally_tough_in,
    _not_minimal_by_recomputation,
    _put_back,
    _scan_worker,
    classify_counterexample,
    emit_report,
    run_suite,
    scan_conjecture,
    suite_names,
)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(GraphError):
            run_suite("nosuch")

    def test_bound_enforced(self):
        with pytest.raises(GraphError):
            run_suite("thm_characterization", 7)

    def test_characterization_at_5(self):
        report = run_suite("thm_characterization", 5)
        assert report["violations"] == [] and report["graphs_checked"] == 26

    def test_connectivity_bound_at_6(self):
        report = run_suite("prop_connectivity_bound", 6)
        assert report["violations"] == []

    def test_every_suite_passes_at_5(self):
        checked = {
            "prop_connectivity_bound": 26, "prop_witness_sets": 10,
            "prop_minseparator": 52, "thm_dirac": 52,
            "prop_cliquetree_separators": 24, "thm_two_moplexes": 47,
            "prop_simple_moplicial": 52, "thm_characterization": 26,
            "lemma_restricted_separators": 26, "lemma_sufficient": 26,
            "thm_chordal_interval": 26, "lemma_moplicial_neighbors": 19,
            "thm_strongly_chordal": 19, "thm_split": 16, "thm_universal": 13,
            "cor_sun_or_hole": 4, "cor_split_obstructions": 4, "thm_stars": 12,
            "family_wheels": 1, "family_matched_cliques": 0,
        }
        assert list(checked) == suite_names()
        for name in suite_names():
            bound = SUITES[name][1]
            report = run_suite(name, min(5, bound))
            assert report["violations"] == [], f"{name}: {report['violations'][:3]}"
            assert report["graphs_checked"] == checked[name], name

    @pytest.mark.parametrize("name", SUITES)
    def test_bound_counts_vertices(self, name):
        # n_max bounds the vertex count in every suite, families included
        source = SUITES[name][0]
        assert max((g.n for g in source(5)), default=0) <= 5

    def test_violation_reported_with_reproducer(self, monkeypatch):
        # with the obstruction finder broken, every minimally tough graph
        # with tau > 1/2 up to 6 vertices becomes a violation
        monkeypatch.setattr("toughlab.verify.find_split_obstruction", lambda g: None)
        report = run_suite("cor_split_obstructions", 6)
        assert report["graphs_checked"] == 9 and report["violations"]
        assert len({v["graph6"] for v in report["violations"]}) == len(report["violations"]) == 9
        assert {v["detail"] for v in report["violations"]} == {"no induced C4, C5, or 2K2"}

    @pytest.mark.parametrize("name", THEOREMS)
    def test_theorem_suites_report_their_row(self, monkeypatch, name):
        # with the kernel calling every graph minimally tough at a tau in the
        # row's range, every kept graph of the row's class is a violation
        cls, member, in_range, text = THEOREMS[name]
        for tau in filter(in_range, (Fraction(1), Fraction(3, 2))):
            monkeypatch.setattr("toughlab.verify.toughness", lambda g: tau)
            monkeypatch.setattr("toughlab.verify.is_minimally_tough", lambda g: (True, None))
            report = run_suite(name, 5)
            members = [g for n in range(1, 6) for g in connected_chordal_reps(n)
                       if not g.is_complete() and member(g)]
            assert sorted(v["graph6"] for v in report["violations"]) == sorted(map(to_graph6, members))
            assert {v["detail"] for v in report["violations"]} == {
                f"{cls} and minimally {tau}-tough with tau {text}"}

    def test_separator_generator_cross_checked(self, monkeypatch):
        # the seed step alone, N(C) for the components C of G - N[v], misses
        # every separator that only the closure reaches, such as the
        # opposite pairs of C6
        def seeds_only(g):
            found = set()
            for v in range(g.n):
                for comp in components(g, g.closed(v)):
                    hood = 0
                    for x in bits(comp):
                        hood |= g.adj[x]
                    found.add(hood & g.closed(v))
            return sorted(found)

        monkeypatch.setattr("toughlab.verify.minimal_separators", seeds_only)
        report = run_suite("prop_minseparator", 6)
        assert report["graphs_checked"] == 208 and report["violations"]
        assert {v["detail"] for v in report["violations"]} == {
            "generated separators differ from the S-full walk"}
        assert to_graph6(canonical_graph(cycle(6))) in {v["graph6"] for v in report["violations"]}

    def test_cliquetree_suite_fails_when_every_vertex_is_simplicial(self, monkeypatch):
        # the restricted walk then tries only the empty set, and misses the
        # separators of each of the 19 noncomplete connected chordal classes
        monkeypatch.setattr("toughlab.verify.simplicial_mask", lambda g: g.full_mask)
        report = run_suite("prop_cliquetree_separators", 5)
        assert report["graphs_checked"] == 24 and len(report["violations"]) == 19
        assert {v["detail"] for v in report["violations"]} == {"separator sets differ"}

    def test_minseparator_suite_fails_when_the_s_full_test_flips_a_mask(self, monkeypatch):
        # flipping the verdict on {0} shows in every graph's mask walk
        monkeypatch.setattr("toughlab.verify.is_minimal_separator",
                            lambda g, s: is_minimal_separator(g, s) != (s == 1))
        report = run_suite("prop_minseparator", 5)
        flipped = {v["graph6"] for v in report["violations"]
                   if v["detail"] == "S-full test disagrees on cut mask 1"}
        assert report["graphs_checked"] == len(flipped) == 52

    def test_put_back_merges_like_a_fresh_search_up_to_6(self):
        # the separator oracle's single-vertex deletions, against the
        # components of g - (s - w) built from scratch
        for n in range(1, 7):
            for g in graph_reps(n):
                for s in range(1 << n):
                    comps = components(g, s)
                    for w in bits(s):
                        assert _put_back(g, comps, w) == components(g, s ^ 1 << w), (s, w)

    def test_report_fields(self):
        report = run_suite("thm_dirac", 4)
        assert report["suite"] == "thm_dirac"
        assert report["n_max"] == 4
        assert report["graphs_checked"] == 18  # 1 + 2 + 4 + 11 classes
        assert report["violations"] == []
        assert report["elapsed_s"] >= 0


class TestScan:
    def test_chordal_scan_clean_at_6(self):
        report, _ = scan_conjecture(6, "chordal")
        assert report["counterexamples"] == []
        assert report["violations"] == []
        assert report["per_n"] == {"1": 1, "2": 1, "3": 2, "4": 5, "5": 15, "6": 58}

    def test_split_scan_clean_at_6(self):
        report, _ = scan_conjecture(6, "split")
        assert report["counterexamples"] == [] and report["violations"] == []

    def test_all_scan_finds_wheels(self):
        report, _ = scan_conjecture(6, "all")
        hits = {c["graph6"]: Fraction(c["tau_num"], c["tau_den"])
                for c in report["counterexamples"]}
        w5 = to_graph6(canonical_graph(wheel(5)))
        w6 = to_graph6(canonical_graph(wheel(6)))
        assert hits.get(w5) == Fraction(3, 2)
        assert hits.get(w6) == Fraction(3, 2)
        assert report["violations"] == []  # wheels are findings, not theorem violations

    def test_counterexamples_reverify_from_graph6(self):
        from toughlab.graphs import parse_graph6
        _, hits = scan_conjecture(6, "all")
        for g6, tau, _, _ in hits:
            g = parse_graph6(g6)
            assert g.is_connected() and not g.is_complete()
            assert is_minimally_tough(g) == (True, None)
            assert toughness(g) == tau and exceeds_half(tau)

    def test_worker_matches_its_definition(self):
        # a hit is minimally tough with tau > 1/2; the definitional answer is
        # computed by the uncached kernel, and the worker starts from empty
        # caches, so neither reads the other's results
        toughness.cache_clear()
        is_minimally_tough.cache_clear()
        graphs = [g for n in range(1, 8) for g in graph_reps(n) if g.is_connected()]
        graphs += [g for n in range(1, 9) for g in connected_chordal_reps(n)]
        hits = 0
        for g in graphs:
            tau = toughness_witness(g)[0]
            hit = is_minimally_tough.__wrapped__(g, tau=tau)[0] and exceeds_half(tau)
            g6 = to_graph6(g)
            assert _scan_worker(g6) == ((g6, tau) if hit else None), g6
            hits += hit
        assert hits > 0  # the wheels, among the non-chordal classes

    def test_worker_runs_the_edge_test_only_above_half(self, monkeypatch):
        # tau is read first: only the classes with tau > 1/2 reach the edge test
        calls = []

        def counted(g, **kwargs):
            calls.append(g)
            return is_minimally_tough(g, **kwargs)

        monkeypatch.setattr("toughlab.verify.is_minimally_tough", counted)
        graphs = [g for n in range(1, 9) for g in connected_chordal_reps(n)]
        for g in graphs:
            _scan_worker(to_graph6(g))
        assert len(calls) == sum(exceeds_half(toughness(g)) for g in graphs) > 0
        calls.clear()
        assert not _minimally_tough_in(star(3), exceeds_half) and calls == []

    def test_scan_bound(self):
        with pytest.raises(GraphError):
            scan_conjecture(10, "all")
        with pytest.raises(GraphError):
            scan_conjecture(12, "chordal")
        with pytest.raises(GraphError):
            scan_conjecture(5, "nosuch")

    def test_jobs_match_serial(self):
        serial = scan_conjecture(6, "all", jobs=1)[0]
        parallel = scan_conjecture(6, "all", jobs=2)[0]
        del serial["elapsed_s"], parallel["elapsed_s"]
        assert serial == parallel

    def test_pooled_chordal_scan_matches_serial_at_8(self):
        serial = scan_conjecture(8, "chordal", jobs=1)[0]
        connected_chordal_reps.cache_clear()  # so the pool grows every level again
        parallel = scan_conjecture(8, "chordal", jobs=2)[0]
        del serial["elapsed_s"], parallel["elapsed_s"]
        assert serial == parallel

    def test_workers_survive_a_spawned_pool(self):
        # spawn pickles each worker by module path and starts from a fresh
        # import, so a lambda or nested worker fails here
        levels = [(reps, n) for reps in (graph_reps, connected_chordal_reps) for n in range(1, 6)]
        serial = [reps(n) for reps, n in levels]
        lines = [to_graph6(g) for n in range(1, 6) for g in graph_reps(n)]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            with level_map(pool.map):
                assert [reps.__wrapped__(n) for reps, n in levels] == serial
            hits = pool.map(_scan_worker, lines)
        assert hits == list(map(_scan_worker, lines))
        assert (to_graph6(canonical_graph(wheel(5))), Fraction(3, 2)) in hits

    @pytest.mark.parametrize("jobs, cpus, sizes", [
        (1, 8, []), (2, 8, [2]), (100000, 8, [8]), (2, 1, [])])
    def test_one_pool_per_scan_at_most_cpu_count(self, monkeypatch, jobs, cpus, sizes):
        created = []

        class FakePool:
            """Records its size and maps in this process; starts nothing."""
            def __init__(self, processes):
                created.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return list(map(fn, iterable))

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr("toughlab.verify.os.cpu_count", lambda: cpus)
        report, _ = scan_conjecture(6, "all", jobs=jobs)
        assert created == sizes
        assert len(report["counterexamples"]) == 9


class TestClassification:
    def test_wheel_is_finding(self):
        g6 = to_graph6(wheel(5))
        severity, detail = classify_counterexample(g6, Fraction(3, 2))
        assert severity == SEVERITY_FINDING
        assert "not chordal" in detail

    def test_c4_would_be_finding(self):
        from toughlab.families import cycle
        severity, _ = classify_counterexample(to_graph6(cycle(4)), Fraction(1))
        assert severity == SEVERITY_FINDING

    def test_hypothetical_chordal_low_hit_is_violation(self):
        # a chordal graph reported at tau=1 would contradict the proved theorem
        from toughlab.families import star
        severity, detail = classify_counterexample(to_graph6(star(3)), Fraction(1))
        assert severity == SEVERITY_VIOLATION and "(1/2,1]" in detail

    # one hit per THEOREMS row: in the row's class and range, missing every
    # earlier row's class or range
    ROW_HITS = {
        "thm_chordal_interval": (star(3), Fraction(1)),
        "thm_strongly_chordal": (star(3), Fraction(3, 2)),
        "thm_split": (k_sun(3), Fraction(3, 2)),
        # a cone over the 3-sun with a pendant vertex: an induced 3-sun and 2K2
        "thm_universal": (from_edges(8, list(k_sun(3).edges()) + [(6, 3)]
                                     + [(7, v) for v in range(7)]), Fraction(3, 2)),
    }

    @pytest.mark.parametrize("name", THEOREMS)
    def test_hit_violates_its_theorem_row(self, name):
        g, tau = self.ROW_HITS[name]
        cls, _, _, text = THEOREMS[name]
        assert classify_counterexample(to_graph6(g), tau) == (
            SEVERITY_VIOLATION, f"{cls} and minimally {tau}-tough with tau {text}")

    def test_recognizer_patch_reaches_classifier(self, monkeypatch):
        g, tau = self.ROW_HITS["thm_split"]
        monkeypatch.setattr("toughlab.verify.is_split", lambda g: False)
        assert classify_counterexample(to_graph6(g), tau)[0] == SEVERITY_CANDIDATE

    @pytest.mark.parametrize("tau", [Fraction(1, 3), Fraction(1, 2)])
    def test_rejects_tau_at_most_half(self, tau):
        with pytest.raises(GraphError, match="tau > 1/2"):
            classify_counterexample(to_graph6(star(3)), tau)

    def test_hypothetical_chordal_high_hit_severity(self):
        # chordal, tau > 1, neither split nor strongly chordal nor universal:
        # a 3-sun with a pendant vertex qualifies structurally as a candidate
        from toughlab.families import k_sun
        from toughlab.graphs import from_edges
        g = from_edges(7, list(k_sun(3).edges()) + [(6, 3)])
        severity, detail = classify_counterexample(to_graph6(g), Fraction(3, 2))
        assert severity == SEVERITY_CANDIDATE and "refutation" in detail


class TestReports:
    EMPTY_SCAN = {"suite": "scan_conjecture", "class_filter": "all", "n_max": 3,
                  "graphs_checked": 2, "per_n": {"3": 2}, "violations": [],
                  "counterexamples": [], "elapsed_s": 0.0}

    def test_check_report_json_round_trip(self, capsys):
        # verify --json writes each suite's dict as one JSON line
        assert main(["verify", "--suite", "thm_dirac", "--max-n", "4", "--json"]) == EXIT_OK
        line = json.loads(capsys.readouterr().out)
        expected = run_suite("thm_dirac", 4)
        assert {**line, "elapsed_s": 0} == {**expected, "elapsed_s": 0}

    def test_scan_report_json_round_trip(self):
        report, _ = scan_conjecture(5, "all")
        buf = io.StringIO()
        emit_report(report, "json", buf)
        data = json.loads(buf.getvalue())
        assert data["suite"] == "scan_conjecture"
        assert data["violations"] == []
        assert all(set(c) == {"graph6", "tau_num", "tau_den"}
                   for c in data["counterexamples"])
        assert data == report

    def test_json_field_order_stable(self):
        report = run_suite("thm_dirac", 3)
        keys = list(report)
        assert keys == ["suite", "n_max", "graphs_checked", "violations", "elapsed_s"]

    def test_empty_violations_serialize(self):
        report = self.EMPTY_SCAN
        buf = io.StringIO()
        emit_report(report, "json", buf)
        data = json.loads(buf.getvalue())
        assert data["violations"] == [] and data["counterexamples"] == []
        buf = io.StringIO()
        emit_report(report, "csv", buf)
        assert buf.getvalue() == "graph6,num,den\n"

    def test_scan_csv_rows(self):
        report = {"suite": "scan_conjecture", "class_filter": "all", "n_max": 5,
                  "graphs_checked": 21, "per_n": {"5": 21}, "violations": [],
                  "counterexamples": [{"graph6": "Dr{", "tau_num": 3, "tau_den": 2}],
                  "elapsed_s": 0.1}
        buf = io.StringIO()
        emit_report(report, "csv", buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "graph6,num,den"
        assert lines[1] == "Dr{,3,2"

    def test_emit_to_path(self, tmp_path):
        report, _ = scan_conjecture(3, "all")
        target = tmp_path / "report.json"
        with open(target, "w", newline="") as fh:
            emit_report(report, "json", fh)
        assert json.loads(target.read_text()) == report

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.EMPTY_SCAN, "xml", io.StringIO())



class TestExhaustiveData:
    """Counts behind two open questions, recomputed edge by edge."""

    def test_noncritical_edges_of_chordal_graphs_to_8(self):
        # a non-critical edge e keeps tau(G - e) = tau(G); the conjecture says
        # every chordal G with tau > 1/2 has one, and the separator-edge lemma
        # says some such edge has both ends in one minimal separator
        classes, above_one, fewest = [], [], []
        for n in range(4, 9):
            members = [g for g in connected_chordal_reps(n)
                       if not g.is_complete() and exceeds_half(toughness(g))]
            sizes = []
            for g in members:
                t = toughness(g)
                noncritical = [(u, v) for u, v in g.edges()
                               if toughness(g.without_edge(u, v)) == t]
                separators = minimal_separators_via_clique_tree(g, clique_tree(g))
                assert any((s >> u) & (s >> v) & 1 for u, v in noncritical
                           for s in separators), to_graph6(g)
                sizes.append(len(noncritical))
            classes.append(len(members))
            above_one.append(sum(toughness(g) > 1 for g in members))
            fewest.append(min(sizes))
        assert classes == [1, 4, 16, 76, 479]
        assert above_one == [0, 1, 3, 14, 65]
        assert fewest == [1, 1, 2, 2, 3]

    def test_minimum_degree_of_minimally_tough_graphs_to_7(self):
        # delta >= ceil(2 tau) always holds (tau <= kappa/2 <= delta/2); the
        # minimally tough classes meet it with equality
        minimal_counts = []
        for n in range(3, 8):
            minimal = 0
            for g in graph_reps(n):
                if not g.is_connected() or g.is_complete():
                    continue
                t = toughness(g)
                delta = min(g.degree(v) for v in range(n))
                ceil_twice_tau = -(-2 * t.numerator // t.denominator)
                assert delta >= ceil_twice_tau, to_graph6(g)
                if _not_minimal_by_recomputation(g) is None:
                    minimal += 1
                    assert delta == ceil_twice_tau, to_graph6(g)
            minimal_counts.append(minimal)
        assert minimal_counts == [1, 3, 6, 13, 31]
