"""CLI exit codes, report files, and determinism contracts."""

import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkparity import cli, configuration, linking
from linkparity.cli import main
from linkparity.combinatorics import _closed_form, alternating_count_bruteforce, combinations_colex
from linkparity.configuration import (
    moment_curve,
    sample_random_configuration,
    save_points,
)
from linkparity.errors import ContractError, SamplingError
from linkparity.linking import (
    counterexample_document,
    link_report_document,
    total_linked_parity,
)
from oracles import alternation_table_csv, json_text


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


@pytest.mark.parametrize("argv", [
    ["verify", "-k", "1", "--json", ""],
    ["parity", "--random", "5", "2", "--json", ""],
    ["alternation", "--k", "1", "--csv", ""],
    ["sample", "--n", "5", "--d", "2", "--out", ""],
    ["plot", "--k", "1", "--out", ""],
])
def test_empty_output_path_is_usage_error_before_any_work(argv, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the output path is empty" in captured.err
    # no report, no table on stdout, no temporary file beside the working directory
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == []


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


def _verify_reference(k: int) -> str:
    """The verify report as ``json.dumps`` writes its document, every row built."""
    manifest = cli._manifest("verify", {"k": k})
    return json_text(counterexample_document(linking.verify_counterexample(k), manifest))


@pytest.mark.parametrize("k", range(1, 8))
def test_verify_report_file_equals_the_built_document(k, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "-k", str(k), "--json", str(out)]) == 0
    assert out.read_text() == _verify_reference(k)


def test_failing_verify_report_file_equals_the_built_document(tmp_path, monkeypatch):
    sampled = sample_random_configuration(7, 4, seed=0, bound=1000)
    monkeypatch.setattr(linking, "moment_curve", lambda *args: sampled)
    out = tmp_path / "fail.json"
    assert main(["verify", "-k", "2", "--json", str(out)]) == 2
    expected = _verify_reference(2)
    doc = json.loads(expected)
    assert doc["failures"] and doc["witnesses"]
    assert out.read_text() == expected


def test_verify_report_is_written_in_constant_memory(tmp_path, capsys):
    # C(17, 8) = 24,310 rows a section; building the whole document in
    # memory first peaked at about 42 MB (Python 3.11)
    tracemalloc.start()
    try:
        assert main(["verify", "-k", "7", "--json", str(tmp_path / "v7.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_failures_are_the_dense_rows_failures(tmp_path, monkeypatch, capsys):
    # random points in place of the moment curve make the cross checks fail;
    # the sparse check must report what every dense row, in colex order, shows
    sampled = sample_random_configuration(7, 4, seed=0, bound=1000)
    monkeypatch.setattr(linking, "moment_curve", lambda *args: sampled)
    out = tmp_path / "fail.json"
    assert main(["verify", "-k", "2", "--json", str(out)]) == 2
    rows = linking.verify_counterexample(2).cross_checks
    expected = []
    for row in rows:
        if not row.consistent:
            expected.append(f"count mismatch at I={row.subset}: "
                            f"n1={row.n1} n2={row.n2} n3={row.n3} n4={row.n4}")
        if row.n1 % 2:
            expected.append(f"odd boundary count {row.n1} at I={row.subset}")
    linked = tuple(row.subset for row in rows if row.n3 % 2)
    if linked:
        expected.append(f"{len(linked)} linked subsets: {linked}")
    if len(linked) % 2:
        expected.append("total linked count is odd")
    assert len(expected) == 15
    assert expected[0] == "count mismatch at I=(1, 2, 5): n1=2 n2=2 n3=2 n4=0"
    assert json.loads(out.read_text())["failures"] == expected
    assert capsys.readouterr().err.splitlines() == [f"  failure: {f}" for f in expected]


def test_parity_random_trials(capsys):
    assert main(["parity", "--random", "5", "2", "--trials", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("even" in line for line in lines)


def test_parity_reads_point_file(tmp_path, capsys):
    path = tmp_path / "m52.pts"
    out = tmp_path / "parity.json"
    save_points(moment_curve(5, 2), path)
    assert main(["parity", "--input", str(path), "--json", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{path}: total linked = 0 (even)\n"
    assert captured.err == ""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert json.loads(out.read_text())["manifest"]["input_hashes"] == {str(path): digest}


def test_parity_without_an_intersecting_pair_exits_2(tmp_path, monkeypatch, capsys):
    # general position guarantees a pair, so the report is doctored
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    real = cli.total_linked_parity

    def without_hits(config, workers=1):
        report = real(config, workers=workers)
        # the alternating counts stay: the claim reads the face hits alone
        support = {subset: replace(row, n1=0, hits=()) for subset, row in report.support.items()}
        assert support
        return replace(report, support=support)

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


@pytest.mark.parametrize("flags", [
    ["--trials", "50", "--seed", "7", "--bound", "3"],
    ["--trials", "1"],
    ["--seed", "0"],
    ["--bound", "1000"],
])
def test_parity_input_refuses_the_random_flags(flags, tmp_path, monkeypatch, capsys):
    # even a flag at its --random default is refused, before the file is read
    def never(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "_load", never)
    out = tmp_path / "parity.json"
    assert main(["parity", "--input", str(tmp_path / "m52.pts"), *flags, "--json", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials, --seed and --bound are read only with --random\n"
    assert list(tmp_path.iterdir()) == []


def test_parity_trials_below_one_is_usage_error(capsys):
    assert main(["parity", "--random", "7", "4", "--trials", "0"]) == 64
    assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"


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


def _parity_reference(configs, manifest) -> str:
    """The parity payload as ``json.dumps`` writes its documents, every row built."""
    reports = [link_report_document(total_linked_parity(config)) for config in configs]
    return json_text({"command": "parity", "reports": reports, "manifest": manifest})


def test_parity_random_json_memory_does_not_grow_with_trials(tmp_path, monkeypatch):
    out = tmp_path / "parity.json"
    real = cli.sample_random_configuration
    drawn = []

    def first_trial_only(n, d, seed, bound):
        if drawn:
            raise SamplingError("stopped at the second trial")
        drawn.append(seed)
        return real(n, d, seed, bound)

    monkeypatch.setattr(cli, "sample_random_configuration", first_trial_only)
    tracemalloc.start()
    try:
        code = main(["parity", "--random", "5", "2", "--trials", "1000000", "--json", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert drawn == [0]
    assert list(tmp_path.iterdir()) == []
    # a list of the 10^6 seeds alone takes about 40 MB
    assert peak < 4_000_000, peak


@pytest.mark.parametrize("n, d", [(5, 2), (7, 4), (9, 6)])
def test_parity_random_report_file_equals_the_built_documents(n, d, tmp_path):
    out = tmp_path / "parity.json"
    assert main(["parity", "--random", str(n), str(d), "--trials", "3", "--json", str(out)]) == 0
    manifest = cli._manifest(
        "parity", {"n": n, "d": d, "trials": 3, "seed": 0, "bound": 1000}, seeds=range(3)
    )
    # the manifest streams its seeds; json.dumps writes a list
    manifest["seeds"] = list(manifest["seeds"])
    configs = [sample_random_configuration(n, d, seed, 1000) for seed in range(3)]
    assert out.read_text() == _parity_reference(configs, manifest)


def test_parity_input_report_file_equals_the_built_document(tmp_path):
    path, out = tmp_path / "m96.pts", tmp_path / "parity.json"
    save_points(moment_curve(9, 6), path)
    assert main(["parity", "--input", str(path), "--json", str(out)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = cli._manifest("parity", {"input": str(path)}, input_hashes={str(path): digest})
    assert out.read_text() == _parity_reference([moment_curve(9, 6)], manifest)


def test_parity_input_from_a_pipe_records_the_hash_of_the_bytes_parsed(tmp_path):
    # the point file is read once: hashing it by a second read would find the
    # pipe drained and record the SHA-256 of empty input
    sampled, out = tmp_path / "s.pts", tmp_path / "p.json"
    assert main(["sample", "--n", "7", "--d", "4", "--seed", "3", "--out", str(sampled)]) == 0
    data = sampled.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "df8b80ff43692da707417bcc04385b701d1b37e0be3c33879eb933bccfc9fc7a"
    )
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)  # 350 bytes, well within a pipe's buffer
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        assert main(["parity", "--input", pipe, "--json", str(out)]) == 0
    finally:
        os.close(read_end)
    manifest = json.loads(out.read_text())["manifest"]
    assert manifest["input_hashes"] == {pipe: hashlib.sha256(data).hexdigest()}


def test_parity_failed_trial_leaves_no_file(tmp_path, monkeypatch, capsys):
    real = cli.sample_random_configuration

    def fail_second(n, d, seed, bound):
        if seed == 1:
            raise SamplingError("no general-position draw")
        return real(n, d, seed, bound)

    monkeypatch.setattr(cli, "sample_random_configuration", fail_second)
    out = tmp_path / "parity.json"
    assert main(["parity", "--random", "7", "4", "--trials", "3", "--json", str(out)]) == 3
    assert capsys.readouterr().err == "sampling failed: no general-position draw\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_parity_run_leaves_an_old_report_untouched(tmp_path, monkeypatch, capsys):
    def fail(n, d, seed, bound):
        raise SamplingError("no general-position draw")

    monkeypatch.setattr(cli, "sample_random_configuration", fail)
    out = tmp_path / "parity.json"
    out.write_text("old\n")
    assert main(["parity", "--random", "7", "4", "--json", str(out)]) == 3
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_report_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert main(["verify", "-k", "1", "--json", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == _verify_reference(1)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "report.json"]


@pytest.mark.parametrize("argv", [
    ["verify", "-k", "1", "--json"],
    ["alternation", "--k", "1", "--csv"],
    ["parity", "--random", "5", "2", "--json"],
    ["sample", "--n", "5", "--d", "2", "--out"],
    ["plot", "--k", "1", "--out"],
])
def test_a_stale_temporary_file_does_not_block_the_write(argv, tmp_path, monkeypatch):
    # a run killed mid-write leaves its temporary file, and a later run may
    # get the same pid
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 0
    expected = out.read_bytes()
    out.unlink()
    stale = [tmp_path / f"out.tmp{os.getpid()}", tmp_path / f"out.tmp{os.getpid()}.1"]
    for path in stale:
        path.write_text("stale\n")
    for _ in range(2):  # to a missing file, then over the old one
        assert main([*argv, str(out)]) == 0
        assert out.read_bytes() == expected
    assert sorted(tmp_path.iterdir()) == sorted([out, *stale])

    def fail(*args, **kwargs):
        raise OSError("disk full")

    row_tail = cli._row_tail

    def fail_at_a_nonzero_row(breakdown):
        # the zero-count tails are made before the header, the others row by
        # row, so the table fails after the header and its first row
        if breakdown.count:
            fail()
        return row_tail(breakdown)

    # each writer fails by whichever name the CLI calls it
    monkeypatch.setattr(cli, "write_canonical", fail)
    monkeypatch.setattr(cli, "_row_tail", fail_at_a_nonzero_row)
    monkeypatch.setattr(cli, "_svg_document", fail)
    monkeypatch.setattr(configuration, "write_points_text", fail)
    monkeypatch.setattr(cli, "write_points_text", fail, raising=False)
    assert main([*argv, str(out)]) == 64
    assert sorted(tmp_path.iterdir()) == sorted([out, *stale])
    assert out.read_bytes() == expected
    out.unlink()
    assert main([*argv, str(out)]) == 64
    assert sorted(tmp_path.iterdir()) == sorted(stale)
    assert all(path.read_text() == "stale\n" for path in stale)


def test_report_to_a_device_is_written_directly(monkeypatch):
    # moving a regular file over os.devnull would replace the device node
    def refuse(source, destination):
        raise AssertionError(f"os.replace({source!r}, {destination!r})")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["verify", "-k", "1", "--json", os.devnull]) == 0
    assert main(["parity", "--random", "5", "2", "--json", os.devnull]) == 0
    assert main(["alternation", "--k", "1", "--csv", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("argv", [
    ["alternation", "--k", "2", "--csv"],
    ["verify", "-k", "1", "--json"],
    ["parity", "--random", "5", "2", "--trials", "2", "--json"],
    ["sample", "--n", "7", "--d", "4", "--seed", "3", "--out"],
])
def test_report_to_dev_stdout_reaches_a_pipe(argv, tmp_path, capsys):
    # os.path.realpath names the pipe behind /dev/stdout "pipe:[N]", a path
    # that does not exist; os.stat follows it to the pipe
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 0
    summary = capsys.readouterr().out.replace(str(out), "/dev/stdout")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-m", "linkparity", *argv, "/dev/stdout"],
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert run.returncode == 0
    # the report alone reaches stdout; the summary lines that verify, parity
    # and sample print on stdout for a file go to stderr
    assert run.stdout == out.read_bytes()
    assert run.stderr == summary.encode("ascii")


@pytest.mark.parametrize("mode", ["ab", "wb"])
@pytest.mark.parametrize("argv", [
    ["verify", "-k", "1", "--json"],
    ["alternation", "--k", "2", "--csv"],
    ["sample", "--n", "7", "--d", "4", "--seed", "3", "--out"],
])
def test_report_to_dev_stdout_on_a_file_lands_where_stdout_writes(argv, mode, tmp_path, capsys):
    # /dev/stdout on a regular file names that file; moving a temporary file
    # over it would drop what `>>` kept and what the shell wrote before
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 0
    capsys.readouterr()
    log = tmp_path / "log"
    log.write_bytes(b"previous\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with open(log, mode) as stdout:
        if mode == "wb":
            # truncated, then one line written at the offset the command shares
            stdout.write(b"earlier\n")
            stdout.flush()
        run = subprocess.run([sys.executable, "-m", "linkparity", *argv, "/dev/stdout"],
                             env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    assert run.returncode == 0
    prefix = b"previous\n" if mode == "ab" else b"earlier\n"
    assert log.read_bytes() == prefix + out.read_bytes()


def test_alternation_table_k2(capsys):
    assert main(["alternation", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "I,case,block_sizes,count"
    assert len(lines) == 36  # header + C(7,3) rows


@pytest.mark.parametrize("k", range(1, 8))
def test_alternation_table_matches_the_csv_writer_oracle(k, tmp_path, capsys):
    expected = alternation_table_csv(k)
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", str(k), "--csv", str(out)]) == 0
    assert out.read_bytes() == expected.encode("ascii")
    capsys.readouterr()
    assert main(["alternation", "--k", str(k)]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("k", range(1, 8))
def test_alternation_table_equals_the_per_row_reference(k, tmp_path):
    # every row classified by the closed form and counted by enumeration,
    # though the table runs the closed form on the subsets without adjacent
    # labels only
    n = 2 * k + 3
    expected = ["I,case,block_sizes,count\r\n"]
    for subset in combinations_colex(range(1, n + 1), k + 1):
        breakdown = _closed_form(subset, n)
        assert breakdown.count == alternating_count_bruteforce(subset, n), subset
        blocks = " ".join(map(str, breakdown.block_sizes or ()))
        expected.append(f"{' '.join(map(str, subset))},{breakdown.case_tag.value},"
                        f"{blocks},{breakdown.count}\r\n")
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", str(k), "--csv", str(out)]) == 0
    assert out.read_bytes().decode("ascii").splitlines(keepends=True) == expected


def test_alternation_subset_row_is_written_sorted(capsys):
    assert main(["alternation", "--subset", "1,3", "--n", "5"]) == 0
    sorted_spelling = capsys.readouterr()
    assert main(["alternation", "--subset", "3,1", "--n", "5"]) == 0
    assert capsys.readouterr() == sorted_spelling
    assert sorted_spelling.out.splitlines()[1].startswith("1 3,")


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
        ["--k", "3", "--n", "99"],
        [],
    ):
        for csv_args in ([], ["--csv", str(out)]):
            assert main(["alternation", *argv, *csv_args]) == 64, argv
            assert capsys.readouterr().out == "", argv
            assert not out.exists(), argv
    # the closed form refuses before the brute force, whose own refusal
    # would be "|I|=3 leaves no room for a disjoint equal-size subset in [5]"
    assert main(["alternation", "--subset", "1,2,3", "--n", "5"]) == 64
    assert capsys.readouterr().err == "error: |I| must be 2 for universe size 5, got 3\n"
    assert main(["alternation", "--k", "3", "--n", "99"]) == 64
    assert capsys.readouterr().err == "error: --n is read only with --subset; --k uses n = 2k + 3\n"


def test_alternation_closed_form_mismatch_exits_2_and_writes_every_row(tmp_path, monkeypatch,
                                                                      capsys):
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", "3", "--csv", str(out)]) == 0
    row = "\n1 3 5 7,left_end_only,1 1 1 2,{}\n"
    expected = out.read_text().replace(row.format(2), row.format(4))
    assert expected != out.read_text()
    closed_form = cli._closed_form

    def miscounted(subset, n):
        breakdown = closed_form(subset, n)
        return replace(breakdown, count=4) if subset == (1, 3, 5, 7) else breakdown

    monkeypatch.setattr(cli, "_closed_form", miscounted)
    capsys.readouterr()
    assert main(["alternation", "--k", "3", "--csv", str(out)]) == 2
    assert out.read_text() == expected
    assert capsys.readouterr() == (
        "", "closed-form mismatch on 1 row(s), first at I=(1, 3, 5, 7)\n",
    )


def test_alternation_subset_closed_form_mismatch_exits_2(monkeypatch, capsys):
    # --subset classifies user input through the validating closed form
    closed_form = cli.alternating_count_closed_form

    def miscounted(subset, n):
        return replace(closed_form(subset, n), count=4)

    monkeypatch.setattr(cli, "alternating_count_closed_form", miscounted)
    assert main(["alternation", "--subset", "1,3,5,7", "--n", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "I,case,block_sizes,count", "1 3 5 7,left_end_only,1 1 1 2,4",
    ]
    assert captured.err == (
        "closed-form mismatch on 1 row(s), first at I=(1, 3, 5, 7)\n"
    )


@pytest.mark.parametrize("old", [None, "old table\n"])
def test_failed_alternation_table_leaves_no_file(old, tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.csv"
    if old is not None:
        out.write_text(old)
    walk = cli.colex_rows
    written = []

    def fail_after_four_pieces(*args):
        # C(11, 5) = 462 rows at k = 4, in C(8, 2) = 28 blocks of one or two pieces
        for piece in walk(*args):
            if len(written) == 4:
                raise ContractError("stopped mid-table")
            written.append(piece)
            yield piece

    monkeypatch.setattr(cli, "colex_rows", fail_after_four_pieces)
    assert main(["alternation", "--k", "4", "--csv", str(out)]) == 64
    assert capsys.readouterr().err == "error: stopped mid-table\n"
    # the failure came mid-table, after some rows and before the last
    assert 0 < "".join(written).count("\r\n") < 462
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == old


def test_alternation_table_mismatch_exits_2_and_writes_every_row(tmp_path, monkeypatch,
                                                                capsys):
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", "3", "--csv", str(out)]) == 0
    expected = out.read_text()
    counts_of = cli.alternating_counts

    def miscounted(n, size):
        counts = counts_of(n, size)
        counts[(6, 7, 8, 9)] = 2  # all adjacent: no partner
        counts[(1, 2, 3, 4)] = 2  # likewise, and first in colex order
        return counts

    monkeypatch.setattr(cli, "alternating_counts", miscounted)
    assert main(["alternation", "--k", "3", "--csv", str(out)]) == 2
    # the table is not printed: the row shows the closed form, as before
    assert out.read_text() == expected
    assert capsys.readouterr() == (
        "", "closed-form mismatch on 2 row(s), first at I=(1, 2, 3, 4)\n",
    )


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
    ["--P", "1,2", "--Q", "3,4", "--d", "2", "--params", "4,3,2,1"],
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


@pytest.mark.parametrize("argv", [
    ["witness", "--P", "1_0,2", "--Q", "3,4", "--d", "2"],
    ["witness", "--P", "٣,4", "--Q", "1,2", "--d", "2"],
    ["alternation", "--subset", "1_0", "--n", "11"],
    ["witness", "--P", "9" * 4999 + "x,2", "--Q", "3,4", "--d", "2"],
])
def test_labels_take_the_integer_literals_of_point_files_alone(argv, capsys):
    # int() would read 1_0 as 10 and an Arabic-Indic digit as 3
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: not an integer literal: ")
    # the label is quoted as every parser quotes its input, cut at 40 characters
    assert len(err.encode()) < 120


def test_witness_labels_may_be_spaced(capsys):
    assert main(["witness", "--P", " 1, 3", "--Q", "2,4 ", "--d", "2"]) == 0
    spaced = capsys.readouterr()
    assert main(["witness", "--P", "1,3", "--Q", "2,4", "--d", "2"]) == 0
    assert capsys.readouterr() == spaced


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


def test_sampler_refuses_a_shape_whose_file_could_not_be_read(tmp_path, monkeypatch, capsys):
    # C(101, 101) = 1 subset passes the sampler's ceiling, but 101 points in
    # R^100 are 10,100 coordinates, more than a point file may declare
    def never(*args):
        raise AssertionError("drew points for a shape past the ceiling")

    monkeypatch.setattr(configuration, "_attempt_points", never)
    out = tmp_path / "never.pts"
    assert main(["sample", "--n", "101", "--d", "100", "--out", str(out)]) == 64
    assert "10,100 coordinates, more than a point file may hold (10,000)" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("argv, d", [
    (["parity", "--random", "3", "0", "--json", "never.json"], 0),
    (["parity", "--random", "1", "-2", "--json", "never.json"], -2),
    (["sample", "--n", "3", "--d", "0", "--out", "never.json"], 0),
    (["sample", "--n", "5", "--d", "-2", "--out", "never.json"], -2),
])
def test_sampler_refuses_a_dimension_below_one_before_drawing(argv, d, tmp_path, monkeypatch,
                                                             capsys):
    def never(*args):
        raise AssertionError("drew points in a dimension below 1")

    monkeypatch.setattr(configuration, "_attempt_points", never)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert f"got d={d}" in err
    assert "range()" not in err
    assert not (tmp_path / "never.json").exists()


class _Reached(Exception):
    pass


def _stop_report_work(monkeypatch, error):
    """Make the first step of each command's report work raise ``error``."""
    def stop(*args, **kwargs):
        raise error

    monkeypatch.setattr(linking, "moment_curve", stop)
    monkeypatch.setattr(configuration, "_gale_pair", stop)
    monkeypatch.setattr(linking, "alternating_counts", stop)
    monkeypatch.setattr(configuration, "_attempt_points", stop)
    monkeypatch.setattr(cli, "combinations_colex", stop)
    monkeypatch.setattr(cli, "alternating_count_closed_form", stop)
    monkeypatch.setattr(cli, "_closed_form", stop)
    monkeypatch.setattr(cli, "alternating_counts", stop)


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


def test_verify_k9_builds_no_dense_row(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("enumerated every (k+1)-subset")

    monkeypatch.setattr(linking, "combinations_colex", never)
    assert main(["verify", "-k", "9"]) == 0
    assert capsys.readouterr().out == (
        "k=9: n=21 points in R^18, 352716 subsets, total linked = 0\n"
        "all counts even and n1=n2=n3=n4: PASS\n"
    )


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


def test_plot_coordinate_beyond_float_range(tmp_path):
    path = tmp_path / "huge.pts"
    path.write_text("2 5\n0 0\n1 0\n0 1\n2 1" + "0" * 400 + "\n3 7\n")
    out = tmp_path / "fig.svg"
    assert main(["plot", "--input", str(path), "--out", str(out)]) == 0
    body = out.read_text()
    assert body.count("<circle") == 5
    assert "nan" not in body and "inf" not in body


def test_point_files_past_the_size_ceiling_exit_64(tmp_path, monkeypatch, capsys):
    # a sparse file of NULs one byte over 16 MiB: read no further, refuse it
    ceiling = configuration._MAX_POINT_FILE_BYTES
    assert ceiling == 16 << 20
    big = tmp_path / "big.pts"
    with open(big, "wb") as handle:
        handle.truncate(ceiling + 1)
    complaint = f"point-set file is longer than {ceiling} bytes\n"
    assert main(["parity", "--input", str(big)]) == 64
    assert capsys.readouterr().err == f"error: cannot read point set {big}: {complaint}"
    assert main(["plot", "--input", str(big), "--out", str(tmp_path / "fig.svg")]) == 64
    assert capsys.readouterr().err == f"error: cannot read point set {big}: {complaint}"
    assert not (tmp_path / "fig.svg").exists()
    # a file of exactly the ceiling is read, one byte more is refused
    path = tmp_path / "m52.pts"
    save_points(moment_curve(5, 2), path)
    monkeypatch.setattr(configuration, "_MAX_POINT_FILE_BYTES", path.stat().st_size)
    assert main(["parity", "--input", str(path)]) == 0
    with open(path, "a") as handle:
        handle.write("\n")
    assert main(["parity", "--input", str(path)]) == 64


@pytest.mark.parametrize("text", [
    "x" * 1_000_000,  # a header line
    "\0" * 1_000_000,  # a header line whose repr is four times as long
    "2 1\n1 " + "x" * (1_000_000 - 6),  # a coordinate token
    "# provenance: " + "x" * (1_000_000 - 14),  # a provenance line
])
def test_point_file_errors_quote_a_bounded_prefix(text, tmp_path, capsys):
    path = tmp_path / "long.pts"
    path.write_text(text)
    assert main(["parity", "--input", str(path)]) == 64
    err = capsys.readouterr().err
    assert len(err) < 1000
    assert "characters)" in err


def test_point_file_shape_is_checked_before_any_coordinate(tmp_path, monkeypatch, capsys):
    # 500,000 points in the plane, 2,000,009 bytes: refused at the header
    path = tmp_path / "many.pts"
    path.write_text("2 500000\n" + "1 1\n" * 500_000)
    assert path.stat().st_size == 2_000_009

    def no_parse(text):
        raise AssertionError("a coordinate was parsed")

    monkeypatch.setattr(configuration, "parse_rational", no_parse)
    start = time.perf_counter()
    assert main(["parity", "--input", str(path)]) == 64
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: cannot read point set {path}: "
        "header declares 500000 points in R^2, more than 10,000 coordinates\n"
    )


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
