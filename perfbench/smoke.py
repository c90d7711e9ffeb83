"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (verify -k 2, three (7,4) parity seeds,
alternation --k 3), untraced and traced, through the same code path as a
standard run.  Checks that every metric of ``BENCHMARK.json`` and of the metric
sheet is emitted with its unit, that no op failed (so every output digest
matched ``reference.json``), and that the traced call counts equal the exact
ones recorded there.  Exits 0 on success and 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

SHEET_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "calib_ms_p50": "ms", "fail_frac": "ratio"}
UNTRACED_UNITS = {"wall_s": "s", "subsets_per_s": "subsets/s"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    spec = run.load_spec()
    cases = [(w, trace, False) for w in run.WORKLOADS for trace in (False, True)]
    cases.append(("parity_random", False, True))
    for workload, trace, held_out in cases:
        result = run.run_once(workload, seed=7, seconds=0.5, trace=trace,
                              held_out=held_out, size="tiny")
        name = f"{workload} trace={int(trace)} held_out={held_out}"
        line = json.loads(run.contract_line(result, trace))
        check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
        check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
              f"{name}: {line['failed']} of {line['attempted']} ops failed: {result['errors']}")
        metrics = result["metrics"]
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if trace:
            expected.update({m["name"]: m["unit"] for m in spec["per_layer"]})
        else:
            expected.update(UNTRACED_UNITS)
        ops = result["record"]["samples"]["op_ms_p50"]
        expected.update({k: u for k, u in SHEET_UNITS.items() if k != "op_ms_p90" or ops >= 100})
        for metric, unit in expected.items():
            check(metric in metrics, f"{name}: metric {metric} missing")
            check(metrics[metric]["unit"] == unit,
                  f"{name}: {metric} has unit {metrics[metric]['unit']}, expected {unit}")
        check(("op_ms_p90" in metrics) == (ops >= 100), f"{name}: op_ms_p90 with {ops} ops")
        check(result["record"]["workers"] == 1, f"{name}: ran with {result['record']['workers']} workers")
        if trace:
            selfcheck = result["record"]["selfcheck"]
            check(selfcheck["ok"], f"{name}: traced counts differ: {selfcheck['mismatches']}")
        print(f"smoke: ok: {name} ({line['attempted']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
