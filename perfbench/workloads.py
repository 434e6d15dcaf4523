"""The three CLI workloads and the answers each run is checked against.

A check returns one bool per answer, so a run's failed ratio is the share of
False. Nothing here imports toughlab: the expected values are OEIS
sequences, closed forms, and counts made by networkx (see oracle.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

SCAN_JOBS = 2

SUITE_GRAPHS_CHECKED = {
    # Plain counts of graph classes; oracle.py recounts each one from
    # networkx's graph atlas (or OEIS A048192 for the n <= 8 chordal suite).
    "prop_connectivity_bound": 989,     # connected noncomplete, n <= 7
    "prop_witness_sets": 23,            # minimally tough, n <= 6
    "prop_minseparator": 1252,          # all graphs, n <= 7 (A000088)
    "thm_dirac": 1252,
    "prop_cliquetree_separators": 1968,  # connected chordal, n <= 8 (A048192)
    "thm_two_moplexes": 1245,           # noncomplete, n <= 7
    "prop_simple_moplicial": 1252,
    "thm_characterization": 137,        # connected noncomplete, n <= 6
    "lemma_restricted_separators": 137,
    "lemma_sufficient": 989,
    "thm_chordal_interval": 989,
    "lemma_moplicial_neighbors": 347,   # connected chordal noncomplete, n <= 7
    "thm_strongly_chordal": 337,        # ... and 3-sun free
    "thm_split": 157,                   # ... and split
    "thm_universal": 132,               # ... with a universal vertex
    "cor_sun_or_hole": 24,              # minimally tough, tau > 1/2, n <= 7
    "cor_split_obstructions": 24,
    "thm_stars": 146,                   # universal vertex and tau <= 1, n <= 7
    "family_wheels": 6,                 # W_5 .. W_10
    "family_matched_cliques": 2,        # k = 3, 4
}

SETUP_ARGV = ["verify", "--list"]


def check_setup(code: int, out: str) -> list[bool]:
    return [code == 0 and out.split() == list(SUITE_GRAPHS_CHECKED)]


@dataclass
class Workload:
    name: str
    argv: list[str]
    serial_argv: list[str]  # the same command with --jobs 1, for the traced run
    check: Callable[[int, str], list[bool]]
    nominal_s: float  # one invocation on the 2-core machine the bounds were set on
    stdin: str = ""


def _scan(jobs: int) -> list[str]:
    return ["scan", "--class", "chordal", "--max-n", "9", "--jobs", str(jobs)]


def _check_scan(code: int, out: str) -> list[bool]:
    try:
        report = json.loads(out)
        per_n = report["per_n"]
        ok = [per_n.get(str(n)) == count for n, count in enumerate(oracle.A048192, 1)]
        ok.append(report["counterexamples"] == [] and report["violations"] == [])
    except (ValueError, KeyError, TypeError, AttributeError):
        ok = [False] * (len(oracle.A048192) + 1)
    return ok + [code == 0]


def _check_verify(code: int, out: str) -> list[bool]:
    reports = {}
    for line in out.splitlines():
        try:
            report = json.loads(line)
            reports[report["suite"]] = report
        except (ValueError, KeyError, TypeError):
            pass
    ok = []
    for suite, count in SUITE_GRAPHS_CHECKED.items():
        report = reports.get(suite, {})
        ok.append(report.get("violations") == [])
        ok.append(report.get("graphs_checked") == count)
    return ok + [code == 0 and len(reports) == len(SUITE_GRAPHS_CHECKED)]


def _analyze_mix(seed: int) -> Workload:
    """Fixed families with closed-form answers, then seeded random graphs
    whose toughness the brute-force oracle settles before any timing."""
    expected = [(g6, tau, verdict) for _, g6, tau, verdict in oracle.family_inputs()]
    expected += [(g6, tau, None) for g6, tau in oracle.random_inputs(seed)]
    confirmed: dict[tuple, bool] = {}

    def check(code: int, out: str) -> list[bool]:
        records = []
        for line in out.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                records.append({})
        ok = [code == 0 and len(records) == len(expected)]
        for (g6, tau, verdict), rec in zip(expected, records + [{}] * len(expected)):
            got_tau = (None if rec.get("tau") == "inf" or "tau_num" not in rec
                       else Fraction(rec["tau_num"], rec["tau_den"]))
            ok.append(rec.get("graph6") == g6 and rec.get("tau") is not None
                      and got_tau == tau)
            if verdict is not None:
                ok.append(rec.get("verdict") == verdict)
                continue
            # Random graph: the brute force confirms the claimed verdict and
            # the reported witness cut (once per distinct claim).
            claim = (g6, rec.get("tau"), rec.get("verdict"),
                     str(rec.get("witness_edge")), str(rec.get("toughness_witness")))
            if claim not in confirmed:
                graph = oracle.nx.from_graph6_bytes(g6.encode("ascii"))
                cut = (rec.get("toughness_witness") or {}).get("cut")
                confirmed[claim] = (
                    got_tau == tau and cut is not None
                    and oracle.cut_ratio(graph, cut) == tau
                    and oracle.minimality_holds(graph, tau, rec.get("verdict"),
                                                rec.get("witness_edge")))
            ok.append(confirmed[claim])
        return ok

    stdin = "".join(g6 + "\n" for g6, _, _ in expected)
    argv = ["analyze", "--json", "-"]
    return Workload("analyze_mix", argv, argv, check, 12.5, stdin)


WORKLOADS = ("scan_chordal9", "verify_all", "analyze_mix")


def build(name: str, seed: int) -> Workload:
    """The workload's CLI arguments, stdin and checker; only analyze_mix
    draws on the seed, the other two are exhaustive."""
    if name == "scan_chordal9":
        return Workload(name, _scan(SCAN_JOBS), _scan(1), _check_scan, 20.0)
    if name == "verify_all":
        argv = ["verify", "--suite", "all", "--json"]
        return Workload(name, argv, argv, _check_verify, 10.5)
    if name == "analyze_mix":
        return _analyze_mix(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
