"""Command-line front end: analyze graphs, scan the conjecture, run suites.

Exit codes: 0 success, 2 verification failure, 64 a refused argument
(GraphError), 65 bad graph6 data (Graph6Error), 74 when stdout or --out
cannot be written (a full disk, a closed pipe).
Toughness is always printed as an exact fraction, never a decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, nullcontext
from functools import partial
from typing import Optional

from .chordal import is_chordal, minimal_separators, moplexes
from .families import build_family
from .graphs import (Graph, Graph6Error, GraphError, bits, components, parse_graph6,
                     read_graph6_lines, to_graph6)
from .rational import format_toughness, is_finite
from .recognize import is_interval_like, is_split, is_strongly_chordal
from .toughness import is_minimally_tough, toughness_witness
from .verify import (
    SCAN_CLASSES,
    SUITES,
    emit_report,
    run_suite,
    scan_bound,
    scan_conjecture,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74


class _WriteError(Exception):
    """stdout or --out could not be written; the OSError is the cause."""


class _Output:
    """A text stream whose failed write, flush or close raises _WriteError
    naming it; every other attribute is the stream's own."""

    def __init__(self, stream, name: str):
        self.stream, self.name = stream, name

    def __getattr__(self, attr):
        value = getattr(self.stream, attr)
        return partial(self._checked, value) if attr in ("write", "flush", "close") else value

    def _checked(self, method, *args):
        try:
            return method(*args)
        except OSError as exc:
            raise _WriteError(f"cannot write {self.name}: {exc.strerror}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise GraphError(message)


def _positive_jobs(value: str) -> int:
    """The --jobs argument: an integer of at least 1."""
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return jobs


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
    scan.add_argument("--max-n", type=int, default=7, dest="max_n",
                      help="largest vertex count scanned (default 7), at most " +
                      ", ".join(f"{scan_bound(c)} for {c}" for c in SCAN_CLASSES))
    scan.add_argument("--class", dest="class_filter", default="chordal",
                      choices=SCAN_CLASSES)
    scan.add_argument("--jobs", type=_positive_jobs, default=os.cpu_count() or 1,
                      help="worker processes (default: the core count)")
    scan.add_argument("--out", default=None, help="write the report to this file")
    scan.add_argument("--format", dest="fmt", default="json", choices=("json", "csv"))

    verify = sub.add_parser("verify", help="run registered theorem suites")
    verify.add_argument("--suite", default="all",
                        help="suite name or 'all' (see --list)")
    verify.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="largest vertex count checked, families included "
                        "(default: each suite's bound, which also caps it for 'all')")
    verify.add_argument("--list", action="store_true", help="list suite names")
    verify.add_argument("--json", action="store_true")
    return parser


def _analysis_record(g: Graph) -> dict:
    tau, cut = toughness_witness(g)
    minimal, edge = is_minimally_tough(g, tau=tau)
    verdict = ("complete" if not is_finite(tau) else "disconnected" if not tau
               else "minimally_tough" if minimal else "not_minimal")
    record = {
        "graph6": to_graph6(g),
        "n": g.n,
        "edges": g.edge_count(),
        "tau": format_toughness(tau),
        "tau_num": tau.numerator if is_finite(tau) else None,
        "tau_den": tau.denominator if is_finite(tau) else None,
        "verdict": verdict,
        "witness_edge": list(edge) if edge else None,
        "toughness_witness": (
            {"cut": sorted(bits(cut)), "parts": len(components(g, cut))}
            if cut is not None else None),
        "chordal": is_chordal(g),
        "strongly_chordal": is_strongly_chordal(g),
        "split": is_split(g),
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
    if verdict == "minimally_tough":
        out.write(f"minimally tough: yes (t = {record['tau']})\n")
    elif verdict == "not_minimal":
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
    graphs = [build_family(spec) for spec in args.family]
    for item in args.inputs:
        if item == "-":
            graphs.extend(read_graph6_lines(sys.stdin))
        elif os.path.exists(item):
            try:
                # undecodable bytes become U+FFFD and fail the ASCII check
                with open(item, errors="replace") as fh:
                    graphs.extend(read_graph6_lines(fh))
            except OSError as exc:
                raise GraphError(f"cannot read {item}: {exc.strerror}")
        else:
            graphs.append(parse_graph6(item))
    return graphs


def _cmd_analyze(args) -> int:
    if not args.inputs and not args.family:
        raise GraphError("analyze needs graph6 input, a file, -, or --family")
    for g in _gather_graphs(args):
        record = _analysis_record(g)
        if args.json:
            sys.stdout.write(json.dumps(record) + "\n")
        else:
            _print_analysis(record, sys.stdout)
            sys.stdout.write("\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    bound = scan_bound(args.class_filter)
    if not 1 <= args.max_n <= bound:
        raise GraphError(f"--max-n must be 1..{bound} for --class {args.class_filter}")
    try:
        out = (closing(_Output(open(args.out, "w", newline=""), f"--out {args.out}"))
               if args.out else nullcontext(sys.stdout))
    except OSError as exc:
        raise GraphError(f"cannot write --out {args.out}: {exc.strerror}")
    with out as fh:
        report, hits = scan_conjecture(args.max_n, args.class_filter, jobs=args.jobs)
        emit_report(report, args.fmt, fh)
    for g6, tau, severity, detail in hits:
        sys.stderr.write(f"{severity}: {g6} tau={tau} ({detail})\n")
    return EXIT_VERIFICATION_FAILED if report["violations"] else EXIT_OK


def _cmd_verify(args) -> int:
    if args.list:
        for name in SUITES:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    run_all = args.suite == "all"
    names = list(SUITES) if run_all else [args.suite]
    all_passed = True
    for name in names:
        n_max = args.max_n
        if run_all and n_max is not None:
            n_max = min(n_max, SUITES[name][1])  # cap, don't reject, across suites
        report = run_suite(name, n_max)
        if args.json:
            sys.stdout.write(json.dumps(report) + "\n")
        else:
            status = "FAIL" if report["violations"] else "PASS"
            sys.stdout.write(
                f"{status} {name} (n_max={report['n_max']}, "
                f"graphs={report['graphs_checked']}, {report['elapsed_s']:.2f}s)\n")
            for v in report["violations"]:
                sys.stdout.write(f"  violation: {v['graph6']}  {v['detail']}\n")
        all_passed = all_passed and not report["violations"]
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
    except Graph6Error as exc:
        sys.stderr.write(f"toughlab: bad graph6 input: {exc}\n")
        return EXIT_DATA
    except GraphError as exc:
        sys.stderr.write(f"toughlab: {exc}\n")
        return EXIT_USAGE


def console_entry() -> None:
    """Run main; a closed or full output exits 74 without a traceback."""
    sys.stdout = _Output(sys.stdout, "stdout")
    try:
        code = main()
        sys.stdout.flush()
    except _WriteError as exc:
        # stdout may still hold text: the interpreter's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc.__cause__, BrokenPipeError):  # a reader that left
            sys.stderr.write(f"toughlab: {exc}\n")
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
