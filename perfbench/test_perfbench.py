"""Tests of the benchmark itself: its pinned answers and its layer wrappers.

    python3 -m pytest -q perfbench

The traced runs use cut-down versions of the three workloads that take the
same code paths, so each layer's zero or nonzero call count matches the
prediction for the full workload (perfbench/README.md, "Layers").
"""

from __future__ import annotations

import networkx as nx
import pytest

import oracle
import run
import tracing
import workloads

SMALL = {
    "scan_chordal9": (["scan", "--class", "chordal", "--max-n", "7", "--jobs", "1"], ""),
    "verify_all": (["verify", "--suite", "all", "--max-n", "5", "--json"], ""),
    "analyze_mix": (["analyze", "--json", "-"], "".join(
        oracle.graph6(g) + "\n" for g in (
            nx.wheel_graph(8), nx.path_graph(8), nx.complete_graph(5),
            nx.gnp_random_graph(9, 0.4, seed=3)))),
}

NONZERO = {
    "scan_chordal9": (
        "canon.calls", "enum.classes", "enum.labelings", "components.calls.kernel",
        "kernel.toughness_witness.calls", "kernel.minimality.calls",
        "graph6.parse.calls", "graph6.write.calls"),
    "verify_all": (
        "canon.calls", "enum.classes", "enum.labelings", "components.calls.kernel",
        "components.calls.separators", "components.calls.other",
        "kernel.toughness_witness.calls", "kernel.minimality.calls",
        "kernel.connectivity.calls", "separators.is_minimal_separator.calls",
        "separators.clique_tree.calls", "recognize.calls", "graph6.write.calls"),
    "analyze_mix": (
        "components.calls.kernel", "components.calls.separators",
        "kernel.toughness_witness.calls", "kernel.minimality.calls",
        "separators.is_minimal_separator.calls", "recognize.calls",
        "graph6.parse.calls", "graph6.write.calls"),
}

ZERO = {
    # chordal scans never reach the separators or the class filters (only
    # hits are classified, and there are none), nor Menger counts
    "scan_chordal9": (
        "separators.calls", "components.calls.separators", "recognize.calls",
        "kernel.connectivity.calls"),
    # suites build their graphs; nothing is parsed
    "verify_all": ("graph6.parse.calls",),
    # graph6 in, no canonical labeling and no enumeration
    "analyze_mix": (
        "canon.calls", "enum.classes", "enum.labelings", "separators.clique_tree.calls",
        "kernel.connectivity.calls"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrappers_cover_every_namespace_and_predicted_layers(name):
    argv, stdin = SMALL[name]
    traced = run.traced_pass(argv, stdin)
    assert traced["code"] == 0
    assert traced["missed"] == []
    layers = traced["layers"]
    assert {k for k in NONZERO[name] if not layers[k]} == set()
    assert {k for k in ZERO[name] if layers[k]} == set()


def test_wrappers_are_removed_afterwards():
    tracer = tracing.Tracer()
    with tracer.patched():
        wrapped = tracing.module("graphs").components
    assert tracing.module("toughness").components is not wrapped
    assert tracing.module("toughness").components is tracing.module("graphs").components


def test_suite_table_matches_networkx_recount():
    assert oracle.recount_suite_table() == workloads.SUITE_GRAPHS_CHECKED


def test_family_closed_forms_match_brute_force():
    for label, g6, tau, _ in oracle.family_inputs():
        graph = nx.from_graph6_bytes(g6.encode("ascii"))
        assert oracle.brute_toughness(graph) == tau, label


def test_checks_reject_wrong_answers():
    scan = workloads.build("scan_chordal9", 0)
    assert not all(scan.check(0, '{"per_n": {"9": 11910}}'))
    verify = workloads.build("verify_all", 0)
    assert verify.check(0, "") == [False] * (2 * len(workloads.SUITE_GRAPHS_CHECKED) + 1)
    assert workloads.check_setup(64, "") == [False]
    analyze = workloads.build("analyze_mix", 0)
    assert not any(analyze.check(0, ""))
