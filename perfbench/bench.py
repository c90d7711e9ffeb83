"""One workload in its own process: set up, run timed ops, print one JSON line.

``run.py`` starts this script once per run (and a few more times with
``--setup-only`` to time set-up), so that ``ru_maxrss`` is the peak memory
of one workload alone.  The package is driven from outside, through its
public functions and ``linkparity.cli.main(argv)``, in this one process with
the default of one worker and no threads.

An op is timed alone; its output is checked against the SHA-256 digests in
``reference.json`` after the clock stops.  An op that returns a nonzero exit
code, raises, or gives a different digest counts as failed.

With ``--trace 1`` every op runs twice on the same input, untraced and then
traced (see ``spans.py``); the per-layer metrics come from the traced
copies and ``trace.overhead_frac`` from the median ratio of the paired op
times.

``--setup-only`` imports, generates the inputs and exits; it prints the
seconds that took, counted from the top of this file (see ``run.py``).
"""

from __future__ import annotations

from time import perf_counter

SETUP_START = perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from linkparity import cli, configuration, linking  # noqa: E402

import spans  # noqa: E402
from sizes import SIZES, WORKERS, WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")

PARITY_N, PARITY_D, PARITY_BOUND = 7, 4, 1000
# Sampler seeds with committed reference digests.  A run draws its
# configurations from the development pool in an order set by --seed;
# --held-out draws from a pool kept back for re-checking a claim on inputs
# not seen while the claim was written.
DEV_SEEDS = range(1024)
HELD_OUT_SEEDS = range(1 << 20, (1 << 20) + 256)


# On a shared machine the same op can run 1.75x slower for minutes at a
# time while neighbours are busy (measured on a 2-vCPU VM: verify -k 4 at
# 1.44 s and 2.70 s an op within ten minutes).  So a short fixed kernel of
# exact arithmetic, independent of the package, is timed (median of
# CALIBRATION_REPS) between ops whenever CALIBRATE_EVERY_S has passed and
# once after the last op, and every op time is also reported in units of the
# mean of the two kernel times around it (op_rel_p50).  Raw times stay in
# the sheet; the ratio is what stays put from one run to the next.  One
# kernel time varies by up to 2x within a run; over twelve 30 s verify runs
# the spread of op_rel_p50 was 0.055 with a median of 3 and 0.040 with 9.
CALIBRATE_EVERY_S = 0.5
CALIBRATION_REPS = 9


def calibration_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1600):
        total += Fraction(i % 7, i)
    return total


def time_calibration() -> float:
    times = []
    for _ in range(CALIBRATION_REPS):
        start = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], path: Path) -> tuple[int, str, Path]:
    """Run the CLI in-process with stdout and stderr captured; it writes ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), path


def verify_argv(k: int, path: Path) -> list[str]:
    return ["verify", "-k", str(k), "--json", str(path), "--workers", str(WORKERS)]


def alternation_argv(k: int, path: Path) -> list[str]:
    return ["alternation", "--k", str(k), "--csv", str(path)]


def parity_op(sampler_seed: int):
    """Sample, round-trip through the text format, count, find a pair, serialize."""
    config = configuration.sample_random_configuration(
        PARITY_N, PARITY_D, sampler_seed, PARITY_BOUND)
    loaded = configuration.read_points_text(configuration.write_points_text(config))
    report = linking.total_linked_parity(loaded, workers=WORKERS)
    pair = linking.find_intersecting_pair(loaded)
    text = linking.dumps_canonical(linking.link_report_document(report))
    return config, loaded, report, pair, text


def parity_digest(text: str, pair) -> str:
    """Digest of the canonical report followed by the first intersecting pair."""
    first, second, result = pair
    witness = json.dumps([list(first), list(second), [str(x) for x in result.point]])
    return sha256((text + witness + "\n").encode("ascii"))


class CliWorkload:
    """One CLI call that writes one report file; input and output are fixed by k."""

    def __init__(self, argv, key: str, k: int, reference: dict):
        self.argv = argv
        self.filename = key
        self.work = comb(2 * k + 3, k + 1)
        self.digest = reference[key][str(k)]
        self.inputs = [k]

    def op(self, k: int, outdir: Path):
        path = outdir / self.filename
        return run_cli(self.argv(k, path), path)

    def check(self, k: int, result) -> tuple[bool, int, str]:
        code, err, path = result
        data = path.read_bytes()
        path.unlink()  # so that an op which writes nothing cannot pass on an old file
        digest = sha256(data)
        return (code == 0 and digest == self.digest, len(data),
                f"exit {code}, digest {digest}: {err.strip()}")


class ParityRandom:
    """Random (7,4) configurations, one per op, in an order set by the seed."""

    work = comb(PARITY_N, PARITY_D // 2 + 1)

    def __init__(self, count: int | None, reference: dict, seed: int, held_out: bool):
        pool = HELD_OUT_SEEDS if held_out else DEV_SEEDS
        digests = reference["parity"]["held_out" if held_out else "dev"]
        self.inputs = list(zip(pool, digests, strict=True))[:count]
        random.Random(seed).shuffle(self.inputs)

    def op(self, item, outdir: Path):
        return parity_op(item[0])

    def check(self, item, result) -> tuple[bool, int, str]:
        config, loaded, report, pair, text = result
        ok = (loaded == config and report.parity_ok and pair is not None
              and parity_digest(text, pair) == item[1])
        return ok, 0, f"sampler seed {item[0]}: output differs from reference"


def make_workload(name: str, size: str, seed: int, held_out: bool):
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))
    param = SIZES[size][name]
    if name == "verify_moment":
        return CliWorkload(verify_argv, "verify", param, reference)
    if name == "alternation_census":
        return CliWorkload(alternation_argv, "alternation", param, reference)
    return ParityRandom(param, reference, seed, held_out)


class Runner:
    """Times ops, checks their outputs, and keeps the first few failure messages."""

    def __init__(self, workload, outdir: Path):
        self.workload = workload
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, item) -> tuple[float, int]:
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.workload.op(item, self.outdir)
            elapsed = perf_counter() - start
            ok, out_bytes, message = self.workload.check(item, result)
        except Exception:  # an op that raises is a failed op; keep going
            elapsed = perf_counter() - start
            ok, out_bytes, message = False, 0, traceback.format_exc()
        if not ok:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(message)
        return elapsed, out_bytes


def measure(name: str, size: str, seed: int, seconds: float, trace: bool,
            held_out: bool) -> dict:
    workload = make_workload(name, size, seed, held_out)
    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    runner = Runner(workload, outdir)
    tracer = spans.Tracer()
    times, traced_times, out_bytes, calibrations, calibrated_before = [], [], [], [], []
    try:
        start = perf_counter()
        calibrate_at = start
        index = 0
        while index == 0 or perf_counter() - start < seconds:
            item = workload.inputs[index % len(workload.inputs)]
            if perf_counter() >= calibrate_at:
                calibrations.append(time_calibration())
                calibrate_at = perf_counter() + CALIBRATE_EVERY_S
            calibrated_before.append(len(calibrations) - 1)
            elapsed, _ = runner.run(item)
            times.append(elapsed)
            if trace:
                with tracer.installed():
                    elapsed, size_out = runner.run(item)
                traced_times.append(elapsed)
                out_bytes.append(size_out)
            index += 1
        wall = perf_counter() - start
        calibrations.append(time_calibration())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    relative = [
        elapsed * 2 / (calibrations[c] + calibrations[c + 1])
        for elapsed, c in zip(times, calibrated_before)
    ]

    ops = len(times)
    metrics = {} if trace else {
        # a traced run's wall time holds the traced copies too, so these two
        # are reported by untraced runs only
        "wall_s": (wall, "s"),
        # calibration time is not op time; the last kernel ran after the clock stopped
        "subsets_per_s": (ops * workload.work / (wall - sum(calibrations[:-1])), "subsets/s"),
    }
    metrics.update({
        "op_ms_p50": (statistics.median(times) * 1000, "ms"),
        "op_rel_p50": (statistics.median(relative), "calib"),
        "calib_ms_p50": (statistics.median(calibrations) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (runner.failed / runner.attempted, "ratio"),
    })
    if ops >= 100:
        metrics["op_ms_p90"] = (statistics.quantiles(times, n=10)[8] * 1000, "ms")
    samples = {"op_ms_p50": ops, "op_ms_p90": ops if ops >= 100 else None,
               "calib_ms_p50": len(calibrations)}
    if trace:
        metrics.update(spans.layer_metrics(tracer, len(traced_times)))
        metrics["cli.output_bytes"] = (statistics.fmean(out_bytes), "B/op")
        # paired on the same input, and a median, so that a slow moment on a
        # shared machine moves one pair rather than the whole estimate
        metrics["trace.overhead_frac"] = (
            statistics.median(t / u for t, u in zip(traced_times, times)) - 1, "ratio")
        samples["traced_ops"] = len(traced_times)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "work_per_op": workload.work,
        "workers": WORKERS,
        "inputs": len(workload.inputs),
        "samples": samples,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--size", choices=tuple(SIZES), default="standard")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        make_workload(args.workload, args.size, args.seed, args.held_out)
        setup = perf_counter() - SETUP_START
        print(repr(setup))
        return 0
    result = measure(args.workload, args.size, args.seed, args.seconds,
                     bool(args.trace), args.held_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
