"""Workload names and sizes, shared by ``run.py`` (which imports no package
code) and ``bench.py``.

Per size: verify k, alternation k, number of parity configurations (None:
the whole pool).  "standard" is what a benchmark run measures: ops of one
to two seconds, so a run holds a dozen or more of them and its median
shrugs off the bursts of slowness of a shared machine.  "paper" is the
paper's headline run (verify -k 5, 15 s an op; alternation --k 7), for
reproducing its exact counts; "tiny" is for the smoke test.
"""

SIZES = {
    "standard": {"verify_moment": 4, "alternation_census": 6, "parity_random": None},
    "paper": {"verify_moment": 5, "alternation_census": 7, "parity_random": None},
    "tiny": {"verify_moment": 2, "alternation_census": 3, "parity_random": 3},
}
WORKLOADS = tuple(SIZES["standard"])
# The package's --workers; the benchmark passes it explicitly, so that a
# LINKPARITY_WORKERS in the environment cannot start a process pool.
WORKERS = 1
