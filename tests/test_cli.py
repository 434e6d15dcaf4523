"""CLI: analyze/scan/verify subcommands, exit-code contract, JSON output."""

import errno
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toughlab
from toughlab.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from toughlab.families import wheel
from toughlab.graphs import GraphError, graph_reps, to_graph6


class TestAnalyze:
    def test_k3_is_complete(self, capsys):
        assert main(["analyze", "Bw"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "toughness: inf" in out
        assert "complete" in out

    def test_wheel_family(self, capsys):
        assert main(["analyze", "--family", "wheel:5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "toughness: 3/2" in out
        assert "minimally tough: yes" in out

    def test_disconnected_input(self, capsys):
        assert main(["analyze", "A?"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "toughness: 0" in out
        assert "disconnected" in out

    def test_json_record(self, capsys):
        assert main(["analyze", "--json", to_graph6(wheel(5))]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["tau"] == "3/2"
        assert record["tau_num"] == 3 and record["tau_den"] == 2
        assert record["verdict"] == "minimally_tough"
        assert record["chordal"] is False
        assert record["n"] == 5 and record["edges"] == 8

    def test_json_not_minimal_carries_edge(self, capsys):
        assert main(["analyze", "--json", "--family", "k_sun:3"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "not_minimal"
        assert isinstance(record["witness_edge"], list)
        assert record["chordal"] is True and record["split"] is True

    def test_batch_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n\nCr\r\n"))
        assert main(["analyze", "--json", "-"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["graph6"] == "Bw"

    def test_file_input(self, capsys, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text("Bw\n@\n")
        assert main(["analyze", str(source)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("graph6:") == 2

    def test_one_toughness_search_per_input(self, capsys, monkeypatch):
        searched = []

        def counted(g):
            searched.append(g)
            return search(g)

        kernel = importlib.import_module("toughlab.toughness")  # the package's name is a function
        search = kernel.toughness_witness
        monkeypatch.setattr("toughlab.cli.toughness_witness", counted)
        monkeypatch.setattr(kernel, "toughness_witness", counted)
        kernel.toughness.cache_clear()
        kernel.is_minimally_tough.cache_clear()
        inputs = [to_graph6(wheel(8)), "Bw", "A?", "DQo"]  # W8, K3, two isolated vertices, P5
        assert main(["analyze", "--json", *inputs]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == len(inputs)
        assert [to_graph6(g) for g in searched] == inputs

    def test_parse_failure_exit_65(self, capsys):
        assert main(["analyze", "}}}"]) == EXIT_DATA
        assert "bad graph6" in capsys.readouterr().err

    def test_no_input_exit_64(self, capsys):
        assert main(["analyze"]) == EXIT_USAGE

    def test_bad_family_exit_64(self, capsys):
        assert main(["analyze", "--family", "nosuch:4"]) == EXIT_USAGE

    @pytest.mark.parametrize("family, digest", [
        ("wheel:16", "a7cda406ccff102f4fe1ec4a2a11aa160542ee25163fdb89bc464327611d89b9"),
        ("path:18", "61aea42c676c5ad5e0c9c122977039cc2941f7431c0206d12ce5e6cc831576b2"),
        ("cycle:16", "38dde13be9b48a1d929287d911236f2d1d7ad62a49c5c6dfbffe7d77822948ac"),
        ("matched_cliques:5", "85a1c0ee0bb30540745a642061b0d0ccb538b2ba7d74b88d9f2e88e6ed15e007"),
        ("k_sun:4", "95582d15b2fb2a29cbd7e23b68ea4db8a1639a53b1350860af4a35e8dd5959d6"),
        ("complete:14", "65f496c97e640a7193f782bdd4e92161c6b55ca4f673327f864ffa0d366526d8"),
    ])
    def test_json_record_pinned_by_digest(self, capsys, family, digest):
        # SHA-256 of the whole --json line (tau, verdict, witness cut and
        # edge, recognizers, moplexes, separators), measured with the
        # round-based component growth
        assert main(["analyze", "--json", "--family", family]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_json_records_of_all_small_classes_pinned_by_digest(self, capsys, monkeypatch):
        # every class of graph_reps(n <= 6), 208 in all: the disconnected ones
        # have an empty witness cut whose parts the families above never reach
        lines = [to_graph6(g) for n in range(1, 7) for g in graph_reps(n)]
        assert len(lines) == 208
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(g6 + "\n" for g6 in lines)))
        assert main(["analyze", "--json", "-"]) == EXIT_OK
        digest = "e10a23e238fa887b608c7aa0ed4bf4f874baf0944ae95cc577e87f3491673088"
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_text_reports_of_all_small_classes_pinned_by_digest(self, capsys, monkeypatch):
        # the same 208 classes as plain text: 114 "deleting edge (u, v) keeps
        # toughness" lines, 23 minimally tough, 6 complete, 65 disconnected
        lines = [to_graph6(g) for n in range(1, 7) for g in graph_reps(n)]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(g6 + "\n" for g6 in lines)))
        assert main(["analyze", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        verdicts = [line.split(" (")[0] for line in out.splitlines()
                    if line.startswith("minimally tough: ")]
        assert [verdicts.count(f"minimally tough: {v}") for v in
                ("no", "yes", "complete", "disconnected")] == [114, 23, 6, 65]
        digest = "1c70c85a5f5e48b6e992489a82fc9e99d62f264ab9adcd2004b59caeb48549b9"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestScan:
    def test_chordal_scan_exit_zero(self, capsys):
        assert main(["scan", "--max-n", "5", "--class", "chordal", "--jobs", "1"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["counterexamples"] == [] and data["violations"] == []

    def test_all_scan_reports_wheels_and_exits_zero(self, capsys):
        assert main(["scan", "--max-n", "5", "--class", "all", "--jobs", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        hits = {c["graph6"]: (c["tau_num"], c["tau_den"]) for c in data["counterexamples"]}
        assert (3, 2) in hits.values()  # W5
        assert "finding" in captured.err

    def test_scan_reports_pinned_by_digest(self, capsys):
        # every connected class with n <= 6: the JSON with elapsed_s set to
        # 0, the CSV, and the 9 stderr lines, all findings
        argv = ["scan", "--class", "all", "--max-n", "6", "--jobs", "1"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        dumped = json.dumps({**json.loads(captured.out), "elapsed_s": 0}, indent=2) + "\n"
        digest = "d8b9de8cf90acf6402d9c87f3d2af2f64acf524f1782e630654bbfdba00e3a43"
        assert hashlib.sha256(dumped.encode()).hexdigest() == digest
        err = captured.err
        assert len(err.splitlines()) == 9
        assert all(line.startswith("finding: ") for line in err.splitlines())
        digest = "cdd5d2c94e4e364bd23ca3372fb54bd40e8546e892aaf1e7c84697dc31776034"
        assert hashlib.sha256(err.encode()).hexdigest() == digest
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        digest = "33b793f839ab2a0cb0b735914cbbd999df8bf78691e60fcced7c4e68f636f413"
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err == err

    def test_csv_output(self, capsys):
        assert main(["scan", "--max-n", "4", "--class", "all", "--jobs", "1",
                     "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "graph6,num,den"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "scan.json"
        assert main(["scan", "--max-n", "4", "--jobs", "1", "--out", str(target)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads(target.read_text())["class_filter"] == "chordal"

    def test_max_n_bound_exit_64(self, capsys, monkeypatch):
        # each class is refused past its enumerator's bound, before any scan
        def unreached(*args, **kwargs):
            pytest.fail("scan_conjecture reached past the class bound")

        monkeypatch.setattr("toughlab.cli.scan_conjecture", unreached)
        for class_filter, max_n in (("all", "10"), ("chordal", "12")):
            assert main(["scan", "--class", class_filter, "--max-n", max_n]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("toughlab: ")

    def test_max_n_within_class_bound_reaches_scan(self, capsys, monkeypatch):
        calls = []

        def recorded(n_max, class_filter, jobs):
            calls.append((n_max, class_filter, jobs))
            return {"suite": "scan_conjecture", "class_filter": class_filter,
                    "n_max": n_max, "graphs_checked": 0, "per_n": {}, "violations": [],
                    "counterexamples": [], "elapsed_s": 0.0}, []

        monkeypatch.setattr("toughlab.cli.scan_conjecture", recorded)
        assert main(["scan", "--class", "chordal", "--max-n", "10", "--jobs", "1"]) == EXIT_OK
        assert calls == [(10, "chordal", 1)]

    def test_bad_class_exit_64(self, capsys):
        assert main(["scan", "--class", "bogus"]) == EXIT_USAGE

    def test_bad_jobs_exit_64(self, capsys):
        assert main(["scan", "--max-n", "4", "--jobs", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_jobs_exit_64(self, capsys, value):
        assert main(["scan", "--max-n", "3", "--class", "all", "--jobs", value]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    def test_each_hit_classified_once(self, capsys, monkeypatch):
        import toughlab.verify
        calls = []
        classify = toughlab.verify.classify_counterexample

        def counted(g6, tau):
            calls.append(g6)
            return classify(g6, tau)

        monkeypatch.setattr("toughlab.verify.classify_counterexample", counted)
        assert main(["scan", "--class", "all", "--max-n", "6", "--jobs", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        hits = [c["graph6"] for c in json.loads(captured.out)["counterexamples"]]
        assert calls == hits and len(hits) == 9
        assert len(captured.err.splitlines()) == 9


def _undecodable_file(tmp_path):
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"Bw\n\xff\xfe\n")
    return [str(path)]


def _missing_dir_out(tmp_path):
    return ["--out", str(tmp_path / "no" / "such" / "scan.json")]


def _existing_out_refused_max_n(tmp_path):
    (tmp_path / "keep.json").write_text("untouched\n")
    return ["--max-n", "12", "--out", str(tmp_path / "keep.json")]


@pytest.mark.parametrize("argv, extra, code", [
    (["analyze"], lambda p: [str(p)], EXIT_USAGE),
    (["analyze"], _undecodable_file, EXIT_DATA),
    (["scan", "--max-n", "3", "--jobs", "1"], lambda p: ["--out", str(p)], EXIT_USAGE),
    (["scan", "--max-n", "3", "--jobs", "1"], _missing_dir_out, EXIT_USAGE),
    (["scan", "--jobs", "1"], _existing_out_refused_max_n, EXIT_USAGE),
    (["analyze", "--family", "complete:63"], lambda p: [], EXIT_USAGE),
    (["analyze", "--family", "complete:5", "--family", "star:62"], lambda p: [], EXIT_USAGE),
], ids=["dir-input", "undecodable-input", "out-is-dir", "out-missing-dir",
        "refused-max-n-keeps-out", "family-past-graph6", "later-family-past-graph6"])
def test_refused_inputs_exit_cleanly(tmp_path, capsys, argv, extra, code):
    argv = argv + extra(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("toughlab: ")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_family_past_62_vertices_names_the_bound(capsys):
    assert main(["analyze", "--family", "complete:63"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "toughlab: vertex count 63 outside 1..62\n"


def _refuse(*args):
    raise GraphError("refused inside the command")


@pytest.mark.parametrize("target, argv", [
    ("toughlab.cli.toughness_witness", ["analyze", "Bw"]),
    ("toughlab.cli.run_suite", ["verify", "--suite", "thm_dirac"]),
], ids=["analyze", "verify"])
def test_graph_error_inside_a_command_exits_64(capsys, monkeypatch, target, argv):
    monkeypatch.setattr(target, _refuse)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "toughlab: refused inside the command\n"


def _run_script(argv, stdout):
    """Run ``python -m toughlab.cli`` (the script's console_entry) on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(toughlab.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-m", "toughlab.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, check=False)


def test_start_up_loads_neither_dataclasses_nor_multiprocessing():
    # only a scan imports multiprocessing; -S keeps site .pth files out
    code = ("import toughlab.cli, sys; "
            "print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(toughlab.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env=env, timeout=120, check=True)
    assert result.stdout == "[]\n"


def test_closed_pipe_exits_74_quietly():
    read, write = os.pipe()
    os.close(read)  # the reader has left before anything is written
    try:
        result = _run_script(["verify", "--list"], write)
    finally:
        os.close(write)
    assert result.returncode == EXIT_IO and result.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, stream", [
    (["verify", "--list"], "stdout"),
    (["scan", "--max-n", "3", "--jobs", "1", "--out", "/dev/full"], "--out /dev/full"),
], ids=["stdout", "out-file"])
def test_full_output_exits_74_with_one_line(argv, stream):
    with open("/dev/full", "w") as full:
        result = _run_script(argv, full)
    assert result.returncode == EXIT_IO
    assert result.stderr.decode().splitlines() == [
        f"toughlab: cannot write {stream}: {os.strerror(errno.ENOSPC)}"]


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "thm_characterization", "--max-n", "5"]) == EXIT_OK
        assert "PASS thm_characterization" in capsys.readouterr().out

    def test_unknown_suite_exit_64(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == EXIT_USAGE
        assert "unknown suite" in capsys.readouterr().err

    def test_over_bound_exit_64(self, capsys):
        assert main(["verify", "--suite", "thm_characterization", "--max-n", "9"]) == EXIT_USAGE

    def test_list_names(self, capsys):
        assert main(["verify", "--list"]) == EXIT_OK
        names = capsys.readouterr().out.split()
        assert "thm_dirac" in names and "family_wheels" in names

    def test_json_reports(self, capsys):
        assert main(["verify", "--suite", "thm_dirac", "--max-n", "4", "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["suite"] == "thm_dirac" and record["violations"] == []

    def test_unknown_command_exit_64(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_suite_reports_pinned_by_digest(self, capsys):
        # every suite at n <= 5, with each elapsed_s set to 0 and each text
        # timing to 0.00s
        assert main(["verify", "--suite", "all", "--max-n", "5", "--json"]) == EXIT_OK
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 20
        dumped = "".join(json.dumps({**r, "elapsed_s": 0}) + "\n" for r in records)
        digest = "4ded077592001bfd29e057b3acd45fa640890271d4f5360ff54071424fe22dbc"
        assert hashlib.sha256(dumped.encode()).hexdigest() == digest
        assert main(["verify", "--suite", "all", "--max-n", "5"]) == EXIT_OK
        text = re.sub(r", \d+\.\d\ds\)", ", 0.00s)", capsys.readouterr().out)
        digest = "51fd1b51a34cade5a740495619787b01b53259774c3a52186526e3186d744ff2"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
