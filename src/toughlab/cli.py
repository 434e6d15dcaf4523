"""Command-line front end: analyze graphs, scan the conjecture, run suites.

Exit codes: 0 success, 2 verification failure, 64 usage error, 65 bad input
data. Toughness is always printed as an exact fraction, never a decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional

from .chordal import is_chordal, minimal_separators, moplexes
from .families import build_family
from .graphs import (GRAPH6_MAX_VERTICES, Graph, Graph6Error, GraphError, bits,
                     parse_graph6, read_graph6_lines, to_graph6)
from .rational import format_toughness, is_finite
from .recognize import is_interval_like, is_split, is_strongly_chordal
from .toughness import Minimality, is_minimally_tough, toughness_witness
from .verify import (
    SCAN_CLASSES,
    SCAN_MAX_N,
    SUITES,
    emit_report,
    run_suite,
    scan_conjecture,
    suite_names,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_jobs(value: str | int, source: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise _UsageError(f"{source} must be a positive integer, got {value!r}")
    return jobs


def _default_jobs() -> int:
    env = os.environ.get("TOUGHLAB_JOBS")
    return _positive_jobs(env, "TOUGHLAB_JOBS") if env else os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="toughlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report toughness and structure")
    analyze.add_argument("inputs", nargs="*",
                         help="graph6 strings, file paths, or - for stdin")
    analyze.add_argument("--family", action="append", default=[],
                         metavar="NAME:PARAM",
                         help="analyze a named family member, e.g. wheel:5")
    analyze.add_argument("--json", action="store_true",
                         help="newline-delimited JSON reports")

    scan = sub.add_parser("scan", help="scan for minimally tough graphs with tau > 1/2")
    scan.add_argument("--max-n", type=int, default=7, dest="max_n")
    scan.add_argument("--class", dest="class_filter", default="chordal",
                      choices=SCAN_CLASSES)
    scan.add_argument("--jobs", type=int, default=None)
    scan.add_argument("--out", default=None, help="write the report to this file")
    scan.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))

    verify = sub.add_parser("verify", help="run registered theorem suites")
    verify.add_argument("--suite", default="all",
                        help="suite name or 'all' (see --list)")
    verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    verify.add_argument("--list", action="store_true", help="list suite names")
    verify.add_argument("--json", action="store_true")
    return parser


def _analysis_record(g: Graph) -> dict:
    tau, witness = toughness_witness(g)
    result = is_minimally_tough(g)
    record = {
        "graph6": to_graph6(g),
        "n": g.n,
        "edges": g.edge_count(),
        "tau": format_toughness(tau),
        "tau_num": tau.numerator if is_finite(tau) else None,
        "tau_den": tau.denominator if is_finite(tau) else None,
        "verdict": result.verdict.value,
        "witness_edge": list(result.witness_edge) if result.witness_edge else None,
        "toughness_witness": (
            {"cut": sorted(bits(witness.cut)), "parts": witness.parts}
            if witness is not None else None),
        "chordal": is_chordal(g),
        "strongly_chordal": is_strongly_chordal(g).member,
        "split": is_split(g).member,
        "interval_like": is_interval_like(g),
        "moplexes": [sorted(bits(m)) for m in moplexes(g)],
        "minimal_separators": [sorted(bits(s)) for s in minimal_separators(g)],
    }
    return record


def _print_analysis(record: dict, out) -> None:
    out.write(f"graph6: {record['graph6']}\n")
    out.write(f"n: {record['n']}  edges: {record['edges']}\n")
    out.write(f"toughness: {record['tau']}\n")
    verdict = record["verdict"]
    if verdict == Minimality.MINIMALLY_TOUGH.value:
        out.write(f"minimally tough: yes (t = {record['tau']})\n")
    elif verdict == Minimality.NOT_MINIMAL.value:
        u, v = record["witness_edge"]
        out.write(f"minimally tough: no (deleting edge ({u}, {v}) keeps toughness)\n")
    else:
        out.write(f"minimally tough: {verdict.replace('_', ' ')}\n")
    if record["toughness_witness"]:
        cut, parts = record["toughness_witness"]["cut"], record["toughness_witness"]["parts"]
        out.write(f"witness cut: {set(cut) if cut else '{}'} -> {parts} components\n")
    flags = ", ".join(name for name in
                      ("chordal", "strongly_chordal", "split", "interval_like")
                      if record[name]) or "none of chordal/strongly chordal/split/interval-like"
    out.write(f"classes: {flags}\n")
    out.write(f"moplexes: {', '.join(str(set(m)) for m in record['moplexes'])}\n")
    seps = record["minimal_separators"]
    shown = ", ".join(str(set(s) if s else "{}") for s in seps[:16])
    more = f" (+{len(seps) - 16} more)" if len(seps) > 16 else ""
    out.write(f"minimal separators: {shown or '(none)'}{more}\n")


def _gather_graphs(args) -> list[Graph]:
    graphs = []
    for spec in args.family:
        g = build_family(spec)
        if g.n > GRAPH6_MAX_VERTICES:  # every record carries its graph6 string
            raise _UsageError(f"{spec} has {g.n} vertices; graph6 records hold "
                              f"at most {GRAPH6_MAX_VERTICES}")
        graphs.append(g)
    for item in args.inputs:
        if item == "-":
            graphs.extend(read_graph6_lines(sys.stdin))
        elif os.path.exists(item):
            try:
                # undecodable bytes become U+FFFD and fail the ASCII check
                with open(item, errors="replace") as fh:
                    graphs.extend(read_graph6_lines(fh))
            except OSError as exc:
                raise _UsageError(f"cannot read {item}: {exc.strerror}")
        else:
            graphs.append(parse_graph6(item))
    return graphs


def _cmd_analyze(args) -> int:
    if not args.inputs and not args.family:
        raise _UsageError("analyze needs graph6 input, a file, -, or --family")
    try:
        graphs = _gather_graphs(args)
    except Graph6Error as exc:
        sys.stderr.write(f"toughlab: bad graph6 input: {exc}\n")
        return EXIT_DATA
    except GraphError as exc:
        raise _UsageError(str(exc))
    for g in graphs:
        record = _analysis_record(g)
        if args.json:
            sys.stdout.write(json.dumps(record) + "\n")
        else:
            _print_analysis(record, sys.stdout)
            sys.stdout.write("\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    if not 1 <= args.max_n <= SCAN_MAX_N:
        raise _UsageError(f"--max-n must be 1..{SCAN_MAX_N}")
    jobs = _default_jobs() if args.jobs is None else _positive_jobs(args.jobs, "--jobs")
    try:
        out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {args.out}: {exc.strerror}")
    with out as fh:
        report = scan_conjecture(args.max_n, args.class_filter, jobs=jobs)
        emit_report(report, args.fmt, fh)
    for g6, tau, severity, detail in report.classified:
        sys.stderr.write(f"{severity}: {g6} tau={tau} ({detail})\n")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_verify(args) -> int:
    if args.list:
        for name in suite_names():
            sys.stdout.write(name + "\n")
        return EXIT_OK
    run_all = args.suite == "all"
    names = suite_names() if run_all else [args.suite]
    if any(name not in suite_names() for name in names):
        raise _UsageError(f"unknown suite {args.suite!r}")
    all_passed = True
    for name in names:
        n_max = args.max_n
        if run_all and n_max is not None:
            n_max = min(n_max, SUITES[name][1])  # cap, don't reject, across suites
        try:
            report = run_suite(name, n_max)
        except GraphError as exc:
            raise _UsageError(str(exc))
        if args.json:
            sys.stdout.write(json.dumps(report.to_json_dict()) + "\n")
        else:
            status = "PASS" if report.passed else "FAIL"
            sys.stdout.write(
                f"{status} {name} (n_max={report.n_max}, "
                f"graphs={report.graphs_checked}, {report.elapsed_s:.2f}s)\n")
            for g6, detail in report.violations:
                sys.stdout.write(f"  violation: {g6}  {detail}\n")
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VERIFICATION_FAILED


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        sys.stderr.write(f"toughlab: {exc}\n")
        return EXIT_USAGE
    except Graph6Error as exc:
        sys.stderr.write(f"toughlab: bad input: {exc}\n")
        return EXIT_DATA


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
