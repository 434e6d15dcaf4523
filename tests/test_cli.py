"""CLI: analyze/scan/verify subcommands, exit-code contract, JSON output."""

import json

import pytest

from toughlab.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from toughlab.families import wheel
from toughlab.graphs import to_graph6


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
        import io
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

    def test_parse_failure_exit_65(self, capsys):
        assert main(["analyze", "}}}"]) == EXIT_DATA
        assert "bad graph6" in capsys.readouterr().err

    def test_no_input_exit_64(self, capsys):
        assert main(["analyze"]) == EXIT_USAGE

    def test_bad_family_exit_64(self, capsys):
        assert main(["analyze", "--family", "nosuch:4"]) == EXIT_USAGE


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

    def test_max_n_bound_exit_64(self, capsys):
        assert main(["scan", "--max-n", "12"]) == EXIT_USAGE

    def test_bad_class_exit_64(self, capsys):
        assert main(["scan", "--class", "bogus"]) == EXIT_USAGE

    def test_bad_jobs_exit_64(self, capsys):
        assert main(["scan", "--max-n", "4", "--jobs", "0"]) == EXIT_USAGE

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


class TestJobsEnvironment:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("TOUGHLAB_JOBS", "1")
        assert main(["scan", "--max-n", "3", "--class", "all"]) == EXIT_OK

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_env_exit_64(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TOUGHLAB_JOBS", value)
        assert main(["scan", "--max-n", "3", "--class", "all"]) == EXIT_USAGE
        assert "TOUGHLAB_JOBS" in capsys.readouterr().err
