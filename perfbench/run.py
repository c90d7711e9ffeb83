"""linkparity benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify_moment --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--workload all`` runs every workload untraced and then traced
and prints the whole metric sheet; a single workload prints its sheet, a run
record, and as its last line the JSON result with the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).

Each run starts child processes on this interpreter, one at a time: 15
pairs of a reference child and a ``bench.py --setup-only`` child, then the
one ``bench.py`` child that measures, with one worker and no threads.

``setup_s`` is the time the setup child takes to import the package and
generate its inputs, in reference seconds: each is divided by the time the
reference child just before it takes to import a fixed set of standard
modules, which is the same kind of work and involves no package code, and
multiplied by ``REFERENCE_S``, that import's time on the machine where the
benchmark was written (a 2-vCPU VM, Python 3.11).  ``setup_s`` is the median
of the 15 products.  Measured there over 30 runs in 15 minutes, the median
raw set-up time of each ten consecutive runs moved by up to 41%, following
the host's load, and the median paired ratio by 2%.

The sheet holds the raw timings (``op_ms_p50``, ``op_ms_p90`` where a run
has at least 100 ops, ``subsets_per_s``, ``wall_s``), ``fail_frac`` and
``peak_rss_mb``.  The end-to-end metrics in ``BENCHMARK.json`` are
``op_rel_p50`` (median op time in units of a fixed calibration kernel timed
around it, see ``bench.py``), ``peak_rss_mb`` and ``setup_s``: on a shared
machine the raw op times move by up to 1.7x between runs minutes apart, the
ratio does not.

Workloads (the reasons are also in ``BENCHMARK.json``):

* ``verify_moment`` -- ``linkparity verify -k K --json``: the paper's
  moment-curve computation, almost all of it in intersection/ratmat solves.
* ``parity_random`` -- random (7,4) configurations: many small inputs, so
  sampling, the general-position check and per-call overhead weigh in.
* ``alternation_census`` -- ``linkparity alternation --k K --csv``: pure
  combinatorics and no linear algebra, the control for ratmat changes.

The values of K per ``--size`` are in ``sizes.py``.  ``--size paper`` runs
the paper's sizes; its traced run reproduces their exact counts (12,012
solves, 24,310 closed-form calls).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from sizes import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
PACKAGE = ROOT / "src" / "linkparity"
SETUP_SAMPLES = 15
# -S: no site-packages start-up hooks; -E: no PYTHONPATH pointing elsewhere.
CHILD_FLAGS = ("-S", "-E")
# The reference child: the import of standard modules like those the package
# and bench.py load, timed in the child itself.
REFERENCE_CODE = (
    "from time import perf_counter; start = perf_counter()\n"
    "import argparse, csv, dataclasses, datetime, enum, fractions, hashlib, json, re\n"
    "import concurrent.futures.process, statistics, tempfile\n"
    "print(repr(perf_counter() - start))"
)
REFERENCE_S = 0.09
SETUP_TIMEOUT_S = 20
MEASURE_TIMEOUT_S = 100  # beyond --seconds, for the op that crosses the deadline


class BenchError(Exception):
    """A run that cannot produce a result."""


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run([sys.executable, *CHILD_FLAGS, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)} ran over {timeout:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done


def time_setup(common: list[str]) -> tuple[float, list[float]]:
    """setup_s in reference seconds, and the raw set-up times behind it."""
    relative, raw = [], []
    for _ in range(SETUP_SAMPLES):
        reference = float(_child(["-c", REFERENCE_CODE], SETUP_TIMEOUT_S).stdout)
        setup = float(_child([str(BENCH), *common, "--setup-only"], SETUP_TIMEOUT_S).stdout)
        relative.append(setup / reference)
        raw.append(setup)
    return statistics.median(relative) * REFERENCE_S, raw


def _source_sha256() -> str:
    """Identity of the package source where there is no git SHA, as in a plain checkout."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             held_out: bool = False, size: str = "standard") -> dict:
    """Time set-up, run the measuring child, and return its result with a run record."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"package source not found at {PACKAGE}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "held_out": held_out,
        "size": size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    git_sha = _git_sha()
    record["source"] = {"git_sha": git_sha} if git_sha else {"src_sha256": _source_sha256()}
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    if held_out:
        common.append("--held-out")

    setup_s, setup_raw = time_setup(common)
    record["setup_raw_s_p50"] = statistics.median(setup_raw)

    done = _child([str(BENCH), *common, "--seconds", str(seconds), "--trace", str(int(trace))],
                  seconds + MEASURE_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    record["samples"] = {"setup_s": SETUP_SAMPLES, **result.pop("samples")}
    record["inputs"] = result.pop("inputs")
    record["work_per_op"] = result.pop("work_per_op")
    record["workers"] = result.pop("workers")
    if trace:
        record["selfcheck"] = selfcheck(workload, size, result["metrics"])
    result["record"] = record
    return result


def selfcheck(workload: str, size: str, metrics: dict) -> dict:
    """Compare the traced run's per-op call counts with the exact ones in reference.json.

    A mismatch is reported, not counted as a failed op: a later kernel may
    run fewer solves while giving the same reports.
    """
    reference = json.loads((HERE / "reference.json").read_text(encoding="ascii"))
    expected = reference["counts"].get(workload, {}).get(size, {})
    mismatches = {
        name: {"expected": want, "got": metrics[name]["value"]}
        for name, want in expected.items()
        if metrics[name]["value"] != want
    }
    return {"checked": sorted(expected), "ok": not mismatches, "mismatches": mismatches}


def print_sheet(result: dict) -> None:
    record = result["record"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    if "op_ms_p90" not in result["metrics"]:
        print(f"  {'op_ms_p90':34s} {'n/a':>16} ms (needs >= 100 ops)")
    for message in result["errors"]:
        print(f"  failure: {message}")
    print("record: " + json.dumps(record))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def contract_line(result: dict, trace: bool) -> str:
    """The result line: end_to_end metrics untraced, per_layer metrics traced."""
    names = [m["name"] for m in load_spec()["per_layer" if trace else "end_to_end"]]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw parity_random inputs from the held-out pool")
    parser.add_argument("--size", choices=tuple(SIZES), default="standard",
                        help="; ".join(f"{size}: verify -k {ks['verify_moment']}, alternation "
                                       f"--k {ks['alternation_census']}, parity configurations "
                                       f"{ks['parity_random'] or 'all'}"
                                       for size, ks in SIZES.items()))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    try:
        if args.workload == "all":
            ok = True
            for workload in WORKLOADS:
                for trace in (False, True):
                    result = run_once(workload, args.seed, args.seconds, trace,
                                      args.held_out, args.size)
                    print_sheet(result)
                    ok = ok and result["failed"] == 0
            return 0 if ok else 1
        trace = bool(args.trace)
        result = run_once(args.workload, args.seed, args.seconds, trace,
                          args.held_out, args.size)
        print_sheet(result)
        print(contract_line(result, trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
