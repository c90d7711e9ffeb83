"""Command-line front end.

Subcommands
-----------
verify       check the even-dimensional no-linked-pair configuration for a given k
parity       linked-count parity over a point file or random configurations
alternation  alternating-subset count table (closed form vs brute force)
witness      separating hyperplane or intersection witness for two label sets
sample       draw a random general-position configuration and write it to a file
plot         SVG picture of a 5-point planar configuration and its segment parities

Exit codes: 0 success, 2 verification failure (an odd count, a closed-form
mismatch, or a configuration with no intersecting disjoint pair), 3
degeneracy or sampling failure, 64 usage error.  ``main`` alone maps
failures to exit codes: ``ValueError`` (``ContractError`` and malformed
text included) and ``OSError`` exit 64 with ``error: ...``;
``DegeneracyError`` exits 3 with ``degeneracy: ... (offending subset: ...)``;
``SamplingError`` exits 3 with ``sampling failed: ...``.  The handlers
return 0 or 2 and raise everything else.

Reports are computed serially: ``--workers`` (default 1) is validated, must
be at least 1, and is otherwise ignored.  Output contains no timestamps or
worker counts, so identical inputs give byte-identical reports and stdout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

from . import __version__
from .combinatorics import (
    _require_report_rows,
    alternates,
    alternating_count_bruteforce,
    alternating_count_closed_form,
    combinations_colex,
)
from .configuration import (
    Configuration,
    _check_sampling,
    load_points,
    moment_curve,
    sample_random_configuration,
    save_points,
)
from .errors import ContractError, DegeneracyError, SamplingError
from .intersection import intersect_complementary, separating_hyperplane_moment
from .linking import (
    _require_linking_shape,
    counterexample_document,
    dumps_canonical,
    link_report_document,
    total_linked_parity,
    verify_counterexample,
)
from .ratmat import format_rational, parse_rational

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_DEGENERACY = 3
EXIT_USAGE = 64


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _manifest(command: str, parameters: dict, seeds=(), inputs=()) -> dict:
    """Everything needed to reproduce a run bit-for-bit."""
    return {
        "command": command,
        "parameters": parameters,
        "seeds": list(seeds),
        "tool_version": __version__,
        "input_hashes": {path: _hash_file(path) for path in inputs},
    }


def _parse_labels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ContractError(f"expected comma-separated integers, got {text!r}")


def _load(path: str) -> Configuration:
    try:
        return load_points(path)
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot read point set {path}: {exc}") from exc


def _resolve_workers(value: int) -> int:
    if value < 1:
        raise ContractError(f"--workers must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linkparity", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the no-linked-pair configuration")
    p_verify.add_argument("-k", "--k", type=int, required=True, dest="k")
    p_verify.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p_verify.add_argument("--workers", type=int, default=1)

    p_parity = sub.add_parser("parity", help="linked-count parity check")
    p_parity.add_argument("--input", metavar="PATH", help="point-set file")
    p_parity.add_argument("--random", nargs=2, type=int, metavar=("N", "D"))
    p_parity.add_argument("--trials", type=int, default=1)
    p_parity.add_argument("--seed", type=int, default=0)
    p_parity.add_argument("--bound", type=int, default=1000)
    p_parity.add_argument("--json", metavar="PATH")
    p_parity.add_argument("--workers", type=int, default=1)

    p_alt = sub.add_parser("alternation", help="alternating-count table")
    p_alt.add_argument("--k", type=int, default=None)
    p_alt.add_argument("--subset", metavar="I", help="comma-separated labels")
    p_alt.add_argument("--n", type=int, default=None, help="universe size for --subset")
    p_alt.add_argument("--csv", metavar="PATH", help="write CSV here (default stdout)")

    p_wit = sub.add_parser("witness", help="separating hyperplane or intersection witness")
    p_wit.add_argument("--P", required=True, metavar="LABELS")
    p_wit.add_argument("--Q", required=True, metavar="LABELS")
    p_wit.add_argument("--d", type=int, required=True)
    p_wit.add_argument("--params", metavar="RATIONALS",
                       help="comma-separated curve parameters (default 1..n)")

    p_sample = sub.add_parser("sample", help="sample a random configuration to a file")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--d", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--bound", type=int, default=1000)
    p_sample.add_argument("--out", required=True, metavar="PATH")

    p_plot = sub.add_parser("plot", help="SVG for the planar 5-point case")
    p_plot.add_argument("--input", metavar="PATH")
    p_plot.add_argument("--k", type=int, default=None, help="use the moment-curve configuration (k=1)")
    p_plot.add_argument("--out", required=True, metavar="PATH")

    return parser


# --------------------------------- verify ----------------------------------


def cmd_verify(args) -> int:
    workers = _resolve_workers(args.workers)
    manifest = _manifest("verify", {"k": args.k})
    result = verify_counterexample(args.k, workers=workers)
    report = result.report
    print(
        f"k={args.k}: n={report.n} points in R^{report.dimension}, "
        f"{len(report.per_subset)} subsets, total linked = {report.total_linked}"
    )
    status = "PASS" if result.ok else "FAIL"
    print(f"all counts even and n1=n2=n3=n4: {status}")
    for failure in result.failures:
        print(f"  failure: {failure}", file=sys.stderr)
    if args.json:
        document = counterexample_document(result, manifest=manifest)
        with open(args.json, "w", encoding="ascii") as handle:
            handle.write(dumps_canonical(document))
        print(f"report written to {args.json}")
    return EXIT_OK if result.ok else EXIT_VERIFY_FAIL


# --------------------------------- parity ----------------------------------


def cmd_parity(args) -> int:
    if (args.input is None) == (args.random is None):
        raise ContractError("exactly one of --input or --random is required")
    workers = _resolve_workers(args.workers)
    if args.input is not None:
        manifest = partial(_manifest, "parity", {"input": args.input}, inputs=[args.input])
        configs = [(args.input, _load(args.input))]
    else:
        n, d = args.random
        if args.trials < 1:
            raise ContractError(f"--trials must be >= 1, got {args.trials}")
        # a wrong shape, a shape the sampler refuses or an oversized report
        # is rejected before any attempt is drawn and certified
        k = _require_linking_shape(d, n)
        _check_sampling(n, d, args.bound)
        _require_report_rows(k)
        seeds = range(args.seed, args.seed + args.trials)
        manifest = partial(
            _manifest,
            "parity",
            {"n": n, "d": d, "trials": args.trials, "seed": args.seed, "bound": args.bound},
            seeds=seeds,
        )
        # sampled one trial at a time, and the manifest's seed list is built
        # only for --json, so memory does not grow with --trials
        configs = (
            (f"seed={seed}", sample_random_configuration(n, d, seed, args.bound))
            for seed in seeds
        )

    documents = []
    ok = True
    for name, config in configs:
        report = total_linked_parity(config, workers=workers)
        total = report.total_linked
        even = total % 2 == 0
        ok = ok and even
        print(f"{name}: total linked = {total} ({'even' if even else 'ODD'})")
        # claim (b): some two disjoint (k+1)-subsets have intersecting hulls
        if not any(row.n3 for row in report.per_subset):
            print(f"{name}: no intersecting disjoint pair", file=sys.stderr)
            ok = False
        if args.json:
            documents.append(link_report_document(report))
    if args.json:
        payload = {"command": "parity", "reports": documents, "manifest": manifest()}
        with open(args.json, "w", encoding="ascii") as handle:
            handle.write(dumps_canonical(payload))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ------------------------------- alternation --------------------------------


def _breakdown_row(subset, n) -> tuple[list, bool]:
    breakdown = alternating_count_closed_form(subset, n)
    brute = alternating_count_bruteforce(subset, n)
    ok = breakdown.count == brute and brute % 2 == 0
    blocks = " ".join(str(b) for b in breakdown.block_sizes) if breakdown.block_sizes else ""
    row = [
        " ".join(str(v) for v in subset),
        breakdown.case_tag.value,
        blocks,
        breakdown.count,
    ]
    return row, ok


def cmd_alternation(args) -> int:
    if (args.k is None) == (args.subset is None):
        raise ContractError("exactly one of --k or --subset is required")
    if args.k is not None:
        if args.k < 1:
            raise ContractError(f"--k must be >= 1, got {args.k}")
        _require_report_rows(args.k)
        n = 2 * args.k + 3
        # made one at a time as they are written
        rows = (
            _breakdown_row(subset, n)
            for subset in combinations_colex(tuple(range(1, n + 1)), args.k + 1)
        )
    else:
        if args.n is None:
            raise ContractError("--subset requires --n")
        # made before anything is written, since a bad subset is refused here
        rows = (_breakdown_row(_parse_labels(args.subset), args.n),)

    all_ok = True
    with (open(args.csv, "w", encoding="ascii", newline="") if args.csv
          else nullcontext(sys.stdout)) as handle:
        writer = csv.writer(handle)
        writer.writerow(["I", "case", "block_sizes", "count"])
        for row, ok in rows:
            writer.writerow(row)
            all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


# --------------------------------- witness ----------------------------------


def cmd_witness(args) -> int:
    p_labels = _parse_labels(args.P)
    q_labels = _parse_labels(args.Q)
    d = args.d
    p_names, q_names = sorted(p_labels), sorted(q_labels)
    crossing = alternates(p_labels, q_labels)
    if args.params is None:
        # the default t_i = i is built for P ∪ Q only, relabeled 1..|P|+|Q| in
        # order, so the cost does not grow with the largest label
        merged = sorted(p_labels + q_labels)
        params = tuple(Fraction(label) for label in merged)
        rank = {label: i for i, label in enumerate(merged, start=1)}
        p_labels = tuple(rank[label] for label in p_labels)
        q_labels = tuple(rank[label] for label in q_labels)
    else:
        params = tuple(parse_rational(tok) for tok in args.params.split(","))

    if crossing:
        # intersect_complementary checks this too, but only after moment_curve
        # has built d coordinates per point, which a huge --d makes unbounded
        if len(p_labels) + len(q_labels) != d + 2:
            raise ContractError(
                f"|P| + |Q| must be d + 2 = {d + 2}, got {len(p_labels) + len(q_labels)}"
            )
        config = moment_curve(len(params), d, params)
        result = intersect_complementary(config, p_labels, q_labels)
        assert result.intersects
        print(f"P={p_names} and Q={q_names} alternate; hulls intersect at:")
        print("  point: " + " ".join(format_rational(x) for x in result.point))
        print("  coeffs over P: " + " ".join(format_rational(c) for c in result.coeffs_first))
        print("  coeffs over Q: " + " ".join(format_rational(c) for c in result.coeffs_second))
        return EXIT_OK

    witness = separating_hyperplane_moment(p_labels, q_labels, params, d)
    print(f"separating hyperplane for P={p_names} vs Q={q_names} (d={d}):")
    print("  coefficients: " + " ".join(format_rational(c) for c in witness.coefficients))
    print(f"  offset: {format_rational(witness.offset)}")
    print("  midpoint roots: " + " ".join(format_rational(r) for r in witness.midpoint_roots))
    print("  filler roots: " + (" ".join(format_rational(r) for r in witness.filler_roots) or "(none)"))
    print(f"  bicolored gaps: {witness.bicolored_count}")
    for label in sorted(p_labels + q_labels):
        side = "P" if label in p_labels else "Q"
        value = witness.value_at(params[label - 1])
        print(f"  p({format_rational(params[label - 1])}) = {format_rational(value)}  [{side}]")
    return EXIT_OK


# ---------------------------------- sample ----------------------------------


def cmd_sample(args) -> int:
    config = sample_random_configuration(args.n, args.d, args.seed, args.bound)
    save_points(config, args.out)
    print(f"wrote {args.out}: {config.provenance.describe()}")
    return EXIT_OK


# ----------------------------------- plot -----------------------------------


def _svg_document(config: Configuration, linked: set) -> str:
    width = height = 640
    margin = 60.0
    xs = [float(p[0]) for p in config.points]
    ys = [float(p[1]) for p in config.points]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)

    def place(point):
        x = margin + (float(point[0]) - min(xs)) * scale
        y = height - margin - (float(point[1]) - min(ys)) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for first, second in combinations_colex(tuple(config.labels), 2):
        color = "#c0392b" if (first, second) in linked else "#27ae60"
        swidth = 3 if (first, second) in linked else 1
        x1, y1 = place(config.point(first))
        x2, y2 = place(config.point(second))
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{swidth}"/>'
        )
    for label in config.labels:
        x, y = place(config.point(label))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="#2c3e50"/>')
        parts.append(
            f'<text x="{x + 10:.2f}" y="{y - 10:.2f}" font-size="18" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append(
        f'<text x="{margin}" y="{height - 15}" font-size="14" font-family="sans-serif">'
        f"{len(linked)} linked segment(s); red = linked, green = unlinked</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    if (args.input is None) == (args.k is None):
        raise ContractError("exactly one of --input or --k is required")
    if args.k is not None:
        if args.k != 1:
            raise ContractError("plotting is implemented for the planar case only (k=1)")
        config = moment_curve(5, 2)
    else:
        config = _load(args.input)
    if config.dimension != 2 or config.n != 5:
        raise ContractError("plot needs 5 points in the plane")
    report = total_linked_parity(config)
    with open(args.out, "w", encoding="ascii") as handle:
        handle.write(_svg_document(config, set(report.linked_subsets)))
    print(f"wrote {args.out}: total linked = {report.total_linked}")
    return EXIT_OK


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "verify": cmd_verify,
        "parity": cmd_parity,
        "alternation": cmd_alternation,
        "witness": cmd_witness,
        "sample": cmd_sample,
        "plot": cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneracyError as exc:
        print(f"degeneracy: {exc} (offending subset: {exc.labels})", file=sys.stderr)
        return EXIT_DEGENERACY
    except SamplingError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY


if __name__ == "__main__":
    sys.exit(main())
