"""CLI exit codes, report files, and determinism contracts."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkparity import cli, configuration, linking
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


def test_verify_invalid_k_is_usage_error(capsys):
    assert main(["verify", "-k", "0"]) == 64
    assert main(["verify", "-k", "x"]) == 64
    err = capsys.readouterr().err
    assert err.endswith(
        "linkparity verify: error: argument -k/--k: invalid int value: 'x'\n"
    )


def test_verify_missing_k_is_usage_error(capsys):
    assert main(["verify"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: linkparity verify")
    assert err.endswith(
        "linkparity verify: error: the following arguments are required: -k/--k\n"
    )


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 64


def test_verify_worker_count_does_not_change_report(tmp_path):
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    assert main(["verify", "-k", "2", "--json", str(out1), "--workers", "1"]) == 0
    assert main(["verify", "-k", "2", "--json", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_workers_environment_variable_is_not_read(monkeypatch):
    monkeypatch.setenv("LINKPARITY_WORKERS", "zebra")
    assert main(["verify", "-k", "1"]) == 0


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(workers, capsys):
    assert main(["verify", "-k", "1", "--workers", workers]) == 64
    assert main(["parity", "--random", "5", "2", "--workers", workers]) == 64
    assert "--workers must be >= 1" in capsys.readouterr().err


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


def test_parity_reads_point_file(tmp_path, capsys):
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    assert main(["parity", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{path}: total linked = 0 (even)\n"
    assert captured.err == ""


def test_parity_without_an_intersecting_pair_exits_2(tmp_path, monkeypatch, capsys):
    # general position guarantees a pair, so the report is doctored
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    real = cli.total_linked_parity

    def without_hits(config, workers=1):
        report = real(config, workers=workers)
        rows = tuple(replace(row, n1=0, hits=()) for row in report.per_subset)
        return replace(report, per_subset=rows)

    monkeypatch.setattr(cli, "total_linked_parity", without_hits)
    assert main(["parity", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{path}: total linked = 0 (even)\n"
    assert captured.err == f"{path}: no intersecting disjoint pair\n"


@pytest.mark.parametrize("provenance, complaint", [
    ("random-sample foo=1", "lacks seed, bound, attempts"),
    ("random-sample seed=1 bound=5", "lacks attempts"),
    ("random-sample seed=1 bound attempts=1", "without '='"),
    ("moment-curve params=1,2,3,4,6", "point 5 is not the moment-curve point at parameter 6"),
    ("moment-curve params=1,2,3,4", "4 parameters for 5 points"),
    ("random-sample seed=1 bound=1_0 attempts=1", "not an integer literal: '1_0'"),
    ("random-sample seed=1 bound=5 attempts=1", "point 1 is not the sampler's draw"),
    ("random-sample seed=1 bound=-5 attempts=0", "bound must be in [1, 2^63 - 1]"),
    ("random-sample seed=1 bound=9223372036854775808 attempts=1", "bound must be in [1, 2^63 - 1]"),
    ("random-sample seed=1 bound=5 attempts=0", "attempts must be >= 1"),
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


def test_plot_degenerate_file_exits_3(degenerate_file, tmp_path, capsys):
    assert main(["plot", "--input", degenerate_file, "--out", str(tmp_path / "x.svg")]) == 3
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


def test_alternation_bad_sizes(tmp_path, capsys):
    # rows are written as they are made, so a refusal must come before the
    # header: nothing on stdout and no file
    out = tmp_path / "table.csv"
    for argv in (
        ["--subset", "1,2,3", "--n", "5"],
        ["--subset", "1,9", "--n", "5"],
        ["--subset", "1,x", "--n", "5"],
        ["--subset", "1,3"],
        ["--k", "0"],
        ["--k", "10"],
        [],
    ):
        for csv_args in ([], ["--csv", str(out)]):
            assert main(["alternation", *argv, *csv_args]) == 64, argv
            assert capsys.readouterr().out == "", argv
            assert not out.exists(), argv


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


@pytest.mark.parametrize("huge, small", [
    (["--P", "1,2", "--Q", "3,10000000000"], ["--P", "1,2", "--Q", "3,4"]),
    (["--P", "1,3", "--Q", "2,10000000000"], ["--P", "1,3", "--Q", "2,4"]),
])
def test_witness_cost_does_not_grow_with_the_largest_label(huge, small, capsys):
    # default parameters are built for P and Q only, not for every label up to 10^10
    assert main(["witness", *huge, "--d", "2"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert main(["witness", *small, "--d", "2", "--params", "1,2,3,10000000000"]) == 0
    expected = capsys.readouterr().out.splitlines()
    assert got[1:] == expected[1:]
    assert "10000000000" in got[0]


def test_witness_overlap_is_usage_error():
    assert main(["witness", "--P", "1,2", "--Q", "2,3", "--d", "2"]) == 64


def test_witness_custom_parameters(capsys):
    code = main([
        "witness", "--P", "1,2", "--Q", "3,4", "--d", "2",
        "--params", "1/2,1,3/2,4",
    ])
    assert code == 0
    assert "separating hyperplane" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,x,4"],
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,3,1/0"],
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,3,1/00"],
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", ",,"],
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,3,\u0664"],
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,3"],
    ["--P", "1,2", "--Q", "3,4", "--d", "3"],
    ["--P", "1,3", "--Q", "2,4", "--d", "3"],
    ["--P", "1,2", "--Q", "3,4", "--d", "0"],
    ["--P", "1,3", "--Q", "2", "--d", "2"],
    # an alternating pair is rejected before d coordinates per point are built
    ["--P", "1,3", "--Q", "2,4", "--d", "1000000"],
])
def test_witness_bad_input_is_usage_error(extra, capsys):
    assert main(["witness", *extra]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sample_exhausting_its_attempts_exits_3(tmp_path, capsys):
    # six distinct values from {-1, 0, 1} cannot exist
    out = tmp_path / "never.pts"
    assert main(["sample", "--n", "6", "--d", "1", "--bound", "1", "--out", str(out)]) == 3
    assert "sampling failed" in capsys.readouterr().err
    assert not out.exists()


_HUGE = 10**100


@pytest.mark.parametrize("argv", [
    # C(25, 5) = 53,130 and C(30, 5) = 142,506 determinants per attempt
    ["sample", "--n", "25", "--d", "4", "--out", "never.pts"],
    ["sample", "--n", "30", "--d", "4", "--out", "never.pts"],
    ["sample", "--n", str(_HUGE), "--d", "4", "--out", "never.pts"],
    ["sample", "--n", str(_HUGE + 3), "--d", str(_HUGE), "--out", "never.pts"],
    # C(143, 141) = 10,153
    ["parity", "--random", "143", "140"],
    ["parity", "--random", str(_HUGE + 3), str(_HUGE)],
])
def test_sampler_refuses_shapes_past_its_determinant_ceiling(argv, tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("drew points for a shape past the ceiling")

    monkeypatch.setattr(configuration, "_attempt_points", never)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 64
    assert "more than the sampler's ceiling of 10,000" in capsys.readouterr().err
    assert not (tmp_path / "never.pts").exists()


class _Reached(Exception):
    pass


def _stop_report_work(monkeypatch, error):
    """Make the first step of each command's report work raise ``error``."""
    def stop(*args, **kwargs):
        raise error

    monkeypatch.setattr(linking, "moment_curve", stop)
    monkeypatch.setattr(linking, "_gale_pair", stop)
    monkeypatch.setattr(configuration, "_attempt_points", stop)
    monkeypatch.setattr(cli, "combinations_colex", stop)
    monkeypatch.setattr(cli, "alternating_count_closed_form", stop)


_PAST_THE_ROW_CEILING = AssertionError("work started on a report past the row ceiling")


@pytest.mark.parametrize("argv", [
    # C(23, 11) = 1,352,078 rows
    ["verify", "-k", "10"],
    ["verify", "-k", "15", "--json", "never.json"],
    ["verify", "-k", str(_HUGE)],
    ["alternation", "--k", "10"],
    ["alternation", "--k", "15"],
    ["alternation", "--k", str(_HUGE)],
    # the sampler admits C(33, 31) = 528 subsets; the report has C(33, 16)
    ["parity", "--random", "33", "30"],
    ["parity", "--random", "23", "20", "--json", "never.json"],
    ["parity", "--input", "k10.pts"],
])
def test_reports_past_the_row_ceiling_exit_64_before_any_work(argv, tmp_path, monkeypatch, capsys):
    _stop_report_work(monkeypatch, _PAST_THE_ROW_CEILING)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k10.pts").write_text(
        "20 23\n" + "".join(f"{i}" + " 0" * 19 + "\n" for i in range(23))
    )
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: k=")
    assert err.endswith(": a report has C(2k + 3, k + 1) rows, "
                        "more than the ceiling of 352,716 (k <= 9)\n")
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "-k", "9"],
    ["alternation", "--k", "9"],
    ["parity", "--random", "21", "18"],
])
def test_the_row_ceiling_admits_k9(argv, monkeypatch):
    # C(21, 10) = 352,716 rows: the work starts, and is stopped here
    _stop_report_work(monkeypatch, _Reached())
    with pytest.raises(_Reached):
        main(argv)


@pytest.mark.parametrize("n, d, complaint", [
    (30, 4, "need n = d + 3 points, got n=30, d=4"),
    (7, 3, "linking verification needs even dimension, got d=3"),
])
def test_parity_random_checks_the_shape_before_sampling(n, d, complaint, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("sampled a configuration of the wrong shape")

    monkeypatch.setattr(cli, "sample_random_configuration", never)
    assert main(["parity", "--random", str(n), str(d)]) == 64
    assert capsys.readouterr().err == f"error: {complaint}\n"


def test_sample_roundtrip_through_parity(tmp_path):
    path = tmp_path / "sampled.pts"
    assert main(["sample", "--n", "5", "--d", "2", "--seed", "9",
                 "--bound", "100", "--out", str(path)]) == 0
    expected = sample_random_configuration(5, 2, seed=9, bound=100)
    from linkparity.configuration import load_points
    assert load_points(path) == expected
    assert main(["parity", "--input", str(path)]) == 0


@pytest.mark.parametrize("bound, code", [("9223372036854775807", 0), ("9223372036854775808", 64)])
def test_sample_bound_range(tmp_path, capsys, bound, code):
    # past 2^63 - 1 the sampler's rejection step would never accept a draw
    out = tmp_path / "edge.pts"
    assert main(["sample", "--n", "5", "--d", "2", "--bound", bound, "--out", str(out)]) == code
    assert main(["parity", "--random", "5", "2", "--bound", bound]) == code
    if code:
        assert "bound must be in [1, 2^63 - 1]" in capsys.readouterr().err
        assert not out.exists()


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


def test_module_entry_point_exit_codes():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "linkparity", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run("verify", "-k", "1").returncode == 0
    malformed = run("witness", "--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,x,4")
    assert malformed.returncode == 64
    assert "Traceback" not in malformed.stderr


# --------------------------- argument-vector fuzz ---------------------------
#
# Each flag takes a valid token (three times in four) or a hostile one.  Sizes
# stay small (k <= 3, n <= 9, trials <= 3): larger valid sizes are a matter of
# resource limits, not of parsing.  Path tokens in capitals are replaced by
# real paths in the test.

_BAD_NUMBERS = [("0",), ("-1",), ("x",), ("1.5",), ("",), ("9" * 5000,)]
_OUT = [("OUT",)], [("MISSING_DIR/out",)]
_IN = [("POINTS",), ("COLLINEAR",)], [("MISSING",), ("DIRECTORY",)]
_LABELS = [("",), ("1,1",), ("0,2",), ("2,12",), (",,",), ("9" * 5000,)]
_WORKERS = [("1",), ("2",)], _BAD_NUMBERS

_SHAPES = [
    ("verify", [("-k", [("1",), ("2",), ("3",)], _BAD_NUMBERS),
                ("--json", *_OUT), ("--workers", *_WORKERS)]),
    ("parity", [("--input", *_IN), ("--json", *_OUT), ("--workers", *_WORKERS)]),
    ("parity", [("--random", [("5", "2"), ("7", "4"), ("9", "6")],
                 [("6", "2"), ("5", "3"), ("-5", "2"), ("5", "x"), ("9" * 5000, "2"), ("5",)]),
                ("--trials", [("1",), ("3",)], _BAD_NUMBERS),
                ("--seed", [("0",), ("7",), ("-3",)], [("x",), ("9" * 5000,)]),
                ("--bound", [("1000",), ("1",)], _BAD_NUMBERS),
                ("--json", *_OUT), ("--workers", *_WORKERS)]),
    ("alternation", [("--k", [("1",), ("2",), ("3",)], _BAD_NUMBERS), ("--csv", *_OUT)]),
    ("alternation", [("--subset", [("1,3",), ("2,4",), ("1,2,5",)], _LABELS),
                     ("--n", [("5",), ("7",)], _BAD_NUMBERS), ("--csv", *_OUT)]),
    ("witness", [("--P", [("1,3",)], _LABELS),
                 ("--Q", [("2,4",), ("4,5",)], _LABELS),
                 ("--d", [("2",)], [("4",), *_BAD_NUMBERS]),
                 ("--params", [("1,2,3,4,5",), ("1/2,1,3/2,4,5",)],
                  [("x",), ("1/0",), ("1/00",), (",,",), ("1,2,x,4",)])]),
    ("sample", [("--n", [("5",), ("7",), ("9",)], _BAD_NUMBERS),
                ("--d", [("2",), ("4",), ("6",)], _BAD_NUMBERS),
                ("--seed", [("0",), ("-3",)], [("x",)]),
                ("--bound", [("1000",), ("1",)], _BAD_NUMBERS),
                ("--out", *_OUT)]),
    ("plot", [("--input", *_IN), ("--out", *_OUT)]),
    ("plot", [("--k", [("1",)], [("2",), *_BAD_NUMBERS]), ("--out", *_OUT)]),
]


@st.composite
def _argvs(draw):
    """An argument vector with flags dropped, duplicated, reordered or unknown."""
    command, flags = draw(st.sampled_from(_SHAPES))
    pairs = []
    for flag, valid, hostile in flags:
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            pool = hostile if draw(st.integers(0, 3)) == 0 else valid
            pairs.append((flag, *draw(st.sampled_from(pool))))
    if draw(st.integers(0, 7)) == 0:
        pairs.append(("--frobnicate",))
    pairs = draw(st.permutations(pairs))
    return [command, *(token for pair in pairs for token in pair)]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    save_points(moment_curve(5, 2), root / "m52.pts")
    (root / "collinear.pts").write_text("2 5\n0 0\n1 1\n2 2\n0 1\n1 0\n")
    return {
        "POINTS": str(root / "m52.pts"),
        "COLLINEAR": str(root / "collinear.pts"),
        "MISSING": str(root / "absent.pts"),
        "DIRECTORY": str(root),
        "OUT": str(root / "out"),
        "MISSING_DIR/out": str(root / "absent" / "out"),
    }


@given(argv=_argvs())
@example(argv=["witness", "--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "1,2,x,4"])
@settings(max_examples=200, deadline=None)
def test_main_argv_fuzz_exits_with_a_documented_code(fuzz_paths, argv):
    argv = [fuzz_paths.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 64)
    assert "Traceback" not in err.getvalue()
