"""CLI exit codes, report files, and determinism contracts."""

import json

import pytest

from linkparity.cli import main
from linkparity.configuration import (
    moment_curve,
    sample_random_configuration,
    save_points,
)


@pytest.fixture
def degenerate_file(tmp_path):
    path = tmp_path / "collinear.pts"
    path.write_text("2 5\n0 0\n1 1\n2 2\n0 1\n1 0\n")
    return str(path)


def test_verify_k1_succeeds(tmp_path, capsys):
    out = tmp_path / "k1.json"
    assert main(["verify", "-k", "1", "--json", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "total linked = 0" in captured
    doc = json.loads(out.read_text())
    assert doc["k"] == 1
    assert doc["total"] == 0
    assert doc["parity_ok"] is True
    assert len(doc["per_subset"]) == 10
    assert all(row["even"] for row in doc["per_subset"])
    assert doc["manifest"]["command"] == "verify"
    assert "timestamp" not in doc["manifest"]


def test_verify_invalid_k_is_usage_error():
    assert main(["verify", "-k", "0"]) == 64


def test_verify_missing_k_is_usage_error():
    assert main(["verify"]) == 64


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 64


def test_verify_worker_count_does_not_change_report(tmp_path):
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    assert main(["verify", "-k", "2", "--json", str(out1), "--workers", "1"]) == 0
    assert main(["verify", "-k", "2", "--json", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_workers_env_variable_default(tmp_path, monkeypatch):
    out1 = tmp_path / "env.json"
    monkeypatch.setenv("LINKPARITY_WORKERS", "2")
    assert main(["verify", "-k", "1", "--json", str(out1)]) == 0
    monkeypatch.setenv("LINKPARITY_WORKERS", "zebra")
    assert main(["verify", "-k", "1"]) == 64


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(workers, capsys):
    assert main(["verify", "-k", "1", "--workers", workers]) == 64
    assert main(["parity", "--random", "5", "2", "--workers", workers]) == 64
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_workers_env_variable_below_one_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("LINKPARITY_WORKERS", "0")
    assert main(["verify", "-k", "1"]) == 64
    assert "LINKPARITY_WORKERS must be >= 1" in capsys.readouterr().err


def test_verify_stdout_identical_across_reruns(capsys):
    assert main(["verify", "-k", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "-k", "1"]) == 0
    assert capsys.readouterr().out == first


def test_parity_random_trials(capsys):
    assert main(["parity", "--random", "5", "2", "--trials", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("even" in line for line in lines)


def test_parity_reads_point_file(tmp_path):
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    assert main(["parity", "--input", str(path)]) == 0


@pytest.mark.parametrize("provenance, complaint", [
    ("random-sample foo=1", "lacks seed, bound, attempts"),
    ("random-sample seed=1 bound=5", "lacks attempts"),
    ("random-sample seed=1 bound attempts=1", "without '='"),
    ("moment-curve params=1,2,3,4,6", "point 5 is not the moment-curve point at parameter 6"),
    ("moment-curve params=1,2,3,4", "4 parameters for 5 points"),
])
@pytest.mark.parametrize("command", ["parity", "plot"])
def test_malformed_provenance_is_usage_error(tmp_path, capsys, command, provenance, complaint):
    path = tmp_path / "bad.pts"
    path.write_text(f"2 5\n# provenance: {provenance}\n1 1\n2 4\n3 9\n4 16\n5 25\n")
    argv = [command, "--input", str(path)]
    if command == "plot":
        argv += ["--out", str(tmp_path / "bad.svg")]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert complaint in err
    assert "Traceback" not in err


def test_parity_degenerate_file_exits_3(degenerate_file, capsys):
    assert main(["parity", "--input", degenerate_file]) == 3
    assert "offending subset" in capsys.readouterr().err


def test_parity_requires_exactly_one_source(degenerate_file):
    assert main(["parity"]) == 64
    assert main(["parity", "--input", degenerate_file, "--random", "5", "2"]) == 64


def test_parity_json_report(tmp_path):
    out = tmp_path / "parity.json"
    assert main([
        "parity", "--random", "5", "2", "--trials", "2", "--seed", "0",
        "--bound", "100", "--json", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "parity"
    assert len(doc["reports"]) == 2
    assert doc["manifest"]["seeds"] == [0, 1]
    assert all(report["parity_ok"] for report in doc["reports"])


def test_alternation_table_k2(capsys):
    assert main(["alternation", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "I,case,block_sizes,count"
    assert len(lines) == 36  # header + C(7,3) rows


def test_alternation_single_subset(capsys):
    assert main(["alternation", "--subset", "1,3", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "left_end_only" in out and "1 2" in out

    assert main(["alternation", "--subset", "2,4", "--n", "5"]) == 0
    assert "neither_end" in capsys.readouterr().out


def test_alternation_csv_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", "1", "--csv", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 11


def test_alternation_bad_sizes(capsys):
    assert main(["alternation", "--subset", "1,2,3", "--n", "5"]) == 64
    assert main(["alternation", "--subset", "1,3"]) == 64
    assert main(["alternation"]) == 64


def test_witness_separator(capsys):
    assert main(["witness", "--P", "1,2", "--Q", "3,4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "separating hyperplane" in out
    assert "bicolored gaps: 1" in out


def test_witness_intersection(capsys):
    assert main(["witness", "--P", "1,3", "--Q", "2,4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "intersect" in out
    assert "5/2 7" in out


def test_witness_overlap_is_usage_error():
    assert main(["witness", "--P", "1,2", "--Q", "2,3", "--d", "2"]) == 64


def test_witness_custom_parameters(capsys):
    code = main([
        "witness", "--P", "1,2", "--Q", "3,4", "--d", "2",
        "--params", "1/2,1,3/2,4",
    ])
    assert code == 0
    assert "separating hyperplane" in capsys.readouterr().out


def test_sample_roundtrip_through_parity(tmp_path):
    path = tmp_path / "sampled.pts"
    assert main(["sample", "--n", "5", "--d", "2", "--seed", "9",
                 "--bound", "100", "--out", str(path)]) == 0
    expected = sample_random_configuration(5, 2, seed=9, bound=100)
    from linkparity.configuration import load_points
    assert load_points(path) == expected
    assert main(["parity", "--input", str(path)]) == 0


def test_plot_moment_curve(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["plot", "--k", "1", "--out", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("<svg")
    assert body.count("<circle") == 5
    assert body.count("<line") == 10


def test_plot_from_file(tmp_path):
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_plot_rejects_wrong_shape(tmp_path):
    path = tmp_path / "m74.pts"
    save_points(moment_curve(7, 4), path)
    assert main(["plot", "--input", str(path), "--out", str(tmp_path / "x.svg")]) == 64
    assert main(["plot", "--k", "2", "--out", str(tmp_path / "y.svg")]) == 64
