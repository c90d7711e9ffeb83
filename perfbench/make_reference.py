"""Regenerate ``reference.json``: output digests and exact per-op call counts.

    python3 perfbench/make_reference.py

Digests are taken from the code in ``src/`` as it stands, so run this only
on a commit whose outputs are trusted; every benchmark op is checked against
them.  Counts follow from the configuration sizes: for n = 2k+3 points the
verify run solves one system per (I, face) pair, C(n, k+1) * (k+2) of them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from math import comb
from pathlib import Path

import bench


def cli_digest(argv, k: int, workdir: Path, name: str) -> str:
    code, err, path = bench.run_cli(argv(k, workdir / name), workdir / name)
    if code != 0:
        raise SystemExit(f"{name} k={k} exited {code}: {err}")
    return bench.sha256(path.read_bytes())


def parity_digests(seeds) -> list[str]:
    digests = []
    for seed in seeds:
        config, loaded, report, pair, text = bench.parity_op(seed)
        if loaded != config or not report.parity_ok or pair is None:
            raise SystemExit(f"sampler seed {seed}: inconsistent output")
        digests.append(bench.parity_digest(text, pair))
    return digests


def expected_counts() -> dict:
    counts = {}
    for size, ks in bench.SIZES.items():
        k = ks["verify_moment"]
        solves = comb(2 * k + 3, k + 1) * (k + 2)
        counts.setdefault("verify_moment", {})[size] = {
            "ratmat.solve_calls": solves,
            "intersection.calls": solves,
            "ratmat.solve_singular": 0,
        }
        k = ks["alternation_census"]
        counts.setdefault("alternation_census", {})[size] = {
            "combinatorics.closed_form_calls": comb(2 * k + 3, k + 1),
            "ratmat.solve_calls": 0,
            "ratmat.det_calls": 0,
        }
    return counts


def main() -> int:
    reference = {"verify": {}, "alternation": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=bench.ROOT) as tmp:
        workdir = Path(tmp)
        for ks in bench.SIZES.values():
            k = ks["verify_moment"]
            reference["verify"][str(k)] = cli_digest(bench.verify_argv, k, workdir, "verify")
            k = ks["alternation_census"]
            reference["alternation"][str(k)] = cli_digest(
                bench.alternation_argv, k, workdir, "alternation")
    reference["parity"] = {
        "dev": parity_digests(bench.DEV_SEEDS),
        "held_out": parity_digests(bench.HELD_OUT_SEEDS),
    }
    reference["counts"] = expected_counts()
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="ascii")
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
