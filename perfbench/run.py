"""Benchmark of the toughlab CLI: end-to-end runs and one traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src``. With ``--trace 0`` each invocation is a fresh CLI process, and
as many run as fit in S seconds at the workload's nominal duration (at
least two); the end-to-end metrics are medians over them. With
``--trace 1`` the workload runs twice in this process with ``--jobs 1``,
once plain and once with every layer wrapped by tracing.py, and the
per-layer metrics come from the wrapped run. Every output is checked
against answers from outside the program (workloads.py); the last line of
stdout is the JSON result, the line before it the samples and environment.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
PACKAGE = SRC / "toughlab"
CLI = [sys.executable, "-c", "from toughlab.cli import console_entry; console_entry()"]
SETUP_LAUNCHES = 6  # before the first invocation and after each one
TIMEOUT_S = 120  # an invocation still running then is killed and fails its checks


class Checks:
    """Answer checks of one run; ok_ratio is 1 - failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results: list[bool]) -> None:
        self.attempted += len(results)
        self.failed += results.count(False)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def child_env() -> dict[str, str]:
    """The caller's environment with the job count, hash seed and bytecode
    cache pinned. TOUGHLAB_JOBS is dropped (an invalid value is silently
    ignored) and --jobs is always passed explicitly. Bytecode is cached in
    src/ as an installed package would have it, so the warm-up launch
    compiles and the timed launches do not."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TOUGHLAB_JOBS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(argv: list[str], stdin: str = "") -> dict:
    """One CLI process: exit code, stdout, wall time, and the CPU time and
    peak RSS of its process tree from wait4 (pool workers are reaped by
    the CLI process, so their usage is included)."""
    start = time.perf_counter()
    proc = subprocess.Popen(CLI + argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    killer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        proc.stdin.write(stdin.encode("ascii"))
        proc.stdin.close()
    except BrokenPipeError:
        pass
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(err[0].decode(errors="replace")[-2000:])
    return {"code": proc.returncode, "out": out.decode(errors="replace"), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_loc() -> dict[str, int]:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))}


def environment() -> dict:
    import toughlab
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "toughlab": toughlab.__version__, "commit": git_commit(),
            "loc": source_loc()}


def run_timed(work: workloads.Workload, seconds: int, checks: Checks) -> dict:
    setup: list[float] = []

    def launch_setup(times: int) -> None:
        for _ in range(times):
            sample = launch(workloads.SETUP_ARGV)
            checks.add(workloads.check_setup(sample["code"], sample["out"]))
            setup.append(sample["wall_s"])

    launch_setup(1)  # warm-up: file cache and bytecode cache
    setup.clear()
    # As many invocations as fit in the given seconds at the nominal
    # duration, at least two; a count fixed in advance does not change
    # with the machine's load from one run to the next. The set-up
    # launches are spread between them so that their median sees the
    # whole run, not one moment of it.
    launch_setup(SETUP_LAUNCHES)
    samples = []
    for _ in range(max(2, round(seconds / work.nominal_s))):
        sample = launch(work.argv, work.stdin)
        checks.add(work.check(sample["code"], sample["out"]))
        del sample["out"]
        samples.append(sample)
        launch_setup(SETUP_LAUNCHES)

    def median(name):
        return statistics.median(s[name] for s in samples)

    metrics = {"wall_s": (median("wall_s"), "s"), "cpu_s": (median("cpu_s"), "s"),
               "peak_rss_mb": (median("peak_rss_mb"), "MB"),
               "ok_ratio": (1 - checks.failed / checks.attempted, "ratio"),
               "setup_s": (statistics.median(setup), "s")}
    return {"samples": samples, "setup_samples": setup, "metrics": metrics}


def run_in_process(argv: list[str], stdin: str) -> tuple[int, str, float]:
    main = tracing.module("cli").main  # the wrapped main while patched
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        elapsed = time.perf_counter() - start
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return code, out, elapsed


def traced_pass(argv: list[str], stdin: str) -> dict:
    """One in-process run with every layer wrapped, from cold caches."""
    tracing.clear_caches()
    gc.collect()
    tracer = tracing.Tracer()
    with tracer.patched():
        missed = tracer.unpatched()
        code, out, seconds = run_in_process(argv, stdin)
    layers = tracing.layer_metrics(tracer)  # reads cache_info before the clear
    tracing.clear_caches()
    return {"code": code, "out": out, "seconds": seconds, "layers": layers,
            "missed": missed, "spans": tracer.spans}


def run_traced(work: workloads.Workload, checks: Checks) -> dict:
    """Serial in-process run, plain and then traced, from cold caches."""
    os.environ.pop("TOUGHLAB_JOBS", None)
    tracing.clear_caches()
    code, out, plain_s = run_in_process(work.serial_argv, work.stdin)
    checks.add(work.check(code, out))
    suites = {}
    for line in out.splitlines():
        try:
            report = json.loads(line)
            suites[report["suite"]] = report["elapsed_s"]
        except (ValueError, KeyError, TypeError):
            pass  # not a suite report line
    traced = traced_pass(work.serial_argv, work.stdin)
    checks.add([not traced["missed"]])
    checks.add(work.check(traced["code"], traced["out"]))
    layers = traced["layers"]
    for name in workloads.SUITE_GRAPHS_CHECKED:
        layers[f"verify.suite.{name}.s"] = suites.get(name, 0.0)
    layers["trace.untraced_wall_s"] = plain_s
    layers["trace.wall_s"] = traced["seconds"]
    layers["trace.overhead_ratio"] = traced["seconds"] / plain_s - 1
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    loc = source_loc()
    for mod, lines in loc.items():
        metrics[f"loc.{mod}"] = (lines, "lines")
    metrics["loc.total"] = (sum(loc.values()), "lines")
    return {"missed_namespaces": traced["missed"],
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in traced["spans"]],
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or ".self_s." in name:
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no toughlab sources under {PACKAGE}; "
                         "run from the root of a toughlab checkout\n")
        return 2
    sys.path.insert(0, str(SRC))  # for the traced run and the version record
    work = workloads.build(args.workload, args.seed)
    checks = Checks()
    if args.trace:
        detail = run_traced(work, checks)
    else:
        detail = run_timed(work, args.seconds, checks)
    metrics = detail.pop("metrics")
    detail.update(workload=args.workload, seed=args.seed, env=environment())
    print(json.dumps(detail))
    print(json.dumps(checks.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
