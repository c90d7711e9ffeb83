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
A point file is read once; a manifest records the SHA-256 of the bytes parsed.
An empty output path is refused by the parser, exit 64, before any work.
Every output file (``--json``, ``--csv``, ``--out``) is written by ``_replacing``
to a temporary sibling and moved into place at the end, so a failed run leaves
no file and an old file untouched; a device or FIFO is written directly.
A command whose output file is its own stdout (``--json /dev/stdout``)
writes it through stdout's descriptor, so ``>>`` keeps what the file held,
and prints its summary lines on stderr, so stdout carries the file alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import cache, partial
from itertools import count
from math import comb

from . import __version__
from .combinatorics import (
    _HAS_ADJACENT,
    _closed_form,
    _require_report_rows,
    alternates,
    alternating_count_bruteforce,
    alternating_count_closed_form,
    alternating_counts,
    colex_rows,
    combinations_colex,
    spread_subsets,
)
from .configuration import (
    Configuration,
    _check_sampling,
    _read_point_file,
    moment_curve,
    read_points_text,
    sample_random_configuration,
    write_points_text,
)
from .errors import ContractError, DegeneracyError, SamplingError
from .intersection import intersect_complementary, separating_hyperplane_moment
# dumps_canonical is not called here; perfbench's span tracer wraps it under
# this module's name
from .linking import (
    _require_linking_shape,
    counterexample_document,
    dumps_canonical,  # noqa: F401
    link_report_document,
    total_linked_parity,
    verify_counterexample,
    write_canonical,
)
from .ratmat import format_rational, parse_integer, parse_rational

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_DEGENERACY = 3
EXIT_USAGE = 64


def _manifest(command: str, parameters: dict, seeds=(), input_hashes=()) -> dict:
    """Everything needed to reproduce a run bit-for-bit; ``input_hashes`` come from ``_load``."""
    return {
        "command": command,
        "parameters": parameters,
        # an iterator, which the writer streams, so a run of 10^6 trials holds no
        # list of its seeds; no seeds, a list, as json.dumps writes one
        "seeds": iter(seeds) if seeds else [],
        "tool_version": __version__,
        "input_hashes": dict(input_hashes),
    }


def _parse_labels(text: str) -> tuple[int, ...]:
    return tuple(map(parse_integer, text.split(",")))


def _load(path: str) -> tuple[Configuration, str]:
    """A point file's configuration and the SHA-256 of the bytes parsed, from one read."""
    try:
        data = _read_point_file(path)
        return read_points_text(data.decode("ascii")), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot read point set {path}: {exc}") from exc


@contextmanager
def _replacing(path: str):
    """The text handle of every file the CLI writes; it replaces ``path`` if the block completes.

    When ``path`` is the process's own stdout (``/dev/stdout``), the text is
    written through a copy of stdout's descriptor, after ``sys.stdout`` is
    flushed, so it lands where stdout writes: after what a file opened for
    append already holds, and never over a file that stdout names.  When
    ``path`` is missing or names a regular file (through any symlinks), the
    text goes to a new temporary sibling of that file, which takes an old
    file's mode, is moved over it at the end and is deleted on any
    exception, so a failed run leaves no file and an old one untouched.  Any
    other existing ``path`` (``/dev/null``, a FIFO, a pipe, which ``realpath``
    would name ``pipe:[N]``) is opened and written directly.  Either way
    newlines are written untranslated (``newline=""``).
    """
    if _is_stdout(path):
        sys.stdout.flush()
        with os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="ascii", newline="") as handle:
            yield handle
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    if mode is not None:
        open(target, "a").close()  # an old file must be writable, as for open(path, "w")
    # a run killed mid-write leaves its temporary file behind, and a later
    # run may get the same pid: such a file is passed over, not touched
    temporary = stem = f"{target}.tmp{os.getpid()}"
    for attempt in count(1):
        try:
            handle = open(temporary, "x", encoding="ascii", newline="")
            break
        except FileExistsError:
            temporary = f"{stem}.{attempt}"
    try:
        with handle:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def _is_stdout(path: str) -> bool:
    """Whether ``path`` names the file behind ``sys.stdout``'s descriptor.

    That is the same device and inode, as ``/dev/stdout`` has.  A stdout
    with no descriptor is never a match.
    """
    try:
        target, stdout = os.stat(path), os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        return False
    return (target.st_dev, target.st_ino) == (stdout.st_dev, stdout.st_ino)


def _summary_stream(path: str | None):
    """Where a command's summary lines go: ``sys.stderr`` when ``path`` is stdout.

    A report written to the process's own stdout so reaches the stream alone.
    """
    return sys.stderr if path is not None and _is_stdout(path) else sys.stdout


def _resolve_workers(value: int) -> int:
    if value < 1:
        raise ContractError(f"--workers must be >= 1, got {value}")
    return value


def _output_path(text: str) -> str:
    """The ``type`` of ``--json``, ``--csv`` and ``--out``: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("the output path is empty")
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="linkparity", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the no-linked-pair configuration")
    p_verify.add_argument("-k", "--k", type=int, required=True, dest="k")
    p_verify.add_argument("--json", type=_output_path, metavar="PATH",
                          help="write the JSON report here")
    p_verify.add_argument("--workers", type=int, default=1)

    p_parity = sub.add_parser("parity", help="linked-count parity check")
    p_parity.add_argument("--input", metavar="PATH", help="point-set file")
    p_parity.add_argument("--random", nargs=2, type=int, metavar=("N", "D"))
    # None when absent, so that --input can refuse them; --random reads 1, 0, 1000
    p_parity.add_argument("--trials", type=int)
    p_parity.add_argument("--seed", type=int)
    p_parity.add_argument("--bound", type=int)
    p_parity.add_argument("--json", type=_output_path, metavar="PATH")
    p_parity.add_argument("--workers", type=int, default=1)

    p_alt = sub.add_parser("alternation", help="alternating-count table")
    p_alt.add_argument("--k", type=int, default=None)
    p_alt.add_argument("--subset", metavar="I", help="comma-separated labels")
    p_alt.add_argument("--n", type=int, default=None, help="universe size for --subset")
    p_alt.add_argument("--csv", type=_output_path, metavar="PATH",
                       help="write CSV here (default stdout)")

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
    p_sample.add_argument("--out", type=_output_path, required=True, metavar="PATH")

    p_plot = sub.add_parser("plot", help="SVG for the planar 5-point case")
    p_plot.add_argument("--input", metavar="PATH")
    p_plot.add_argument("--k", type=int, default=None, help="use the moment-curve configuration (k=1)")
    p_plot.add_argument("--out", type=_output_path, required=True, metavar="PATH")

    return parser


# --------------------------------- verify ----------------------------------


def cmd_verify(args) -> int:
    workers = _resolve_workers(args.workers)
    manifest = _manifest("verify", {"k": args.k})
    result = verify_counterexample(args.k, workers=workers)
    report = result.report
    summary = _summary_stream(args.json)
    print(
        f"k={args.k}: n={report.config.n} points in R^{report.config.dimension}, "
        f"{comb(report.config.n, report.k + 1)} subsets, total linked = {report.total_linked}",
        file=summary,
    )
    status = "PASS" if result.ok else "FAIL"
    print(f"all counts even and n1=n2=n3=n4: {status}", file=summary)
    for failure in result.failures:
        print(f"  failure: {failure}", file=sys.stderr)
    if args.json:
        with _replacing(args.json) as handle:
            write_canonical(handle, counterexample_document(result, manifest=manifest))
        print(f"report written to {args.json}", file=summary)
    return EXIT_OK if result.ok else EXIT_VERIFY_FAIL


# --------------------------------- parity ----------------------------------


def cmd_parity(args) -> int:
    if (args.input is None) == (args.random is None):
        raise ContractError("exactly one of --input or --random is required")
    workers = _resolve_workers(args.workers)
    if args.input is not None:
        if (args.trials, args.seed, args.bound) != (None, None, None):
            raise ContractError("--trials, --seed and --bound are read only with --random")
        config, digest = _load(args.input)
        manifest = partial(_manifest, "parity", {"input": args.input},
                           input_hashes={args.input: digest})
        configs = [(args.input, config)]
    else:
        n, d = args.random
        trials = 1 if args.trials is None else args.trials
        first_seed = 0 if args.seed is None else args.seed
        bound = 1000 if args.bound is None else args.bound
        if trials < 1:
            raise ContractError(f"--trials must be >= 1, got {trials}")
        # a wrong shape, a shape the sampler refuses or an oversized report
        # is rejected before any attempt is drawn and certified
        k = _require_linking_shape(d, n)
        _check_sampling(n, d, bound)
        _require_report_rows(k)
        seeds = range(first_seed, first_seed + trials)
        manifest = partial(
            _manifest,
            "parity",
            {"n": n, "d": d, "trials": trials, "seed": first_seed, "bound": bound},
            seeds=seeds,
        )
        # sampled one trial at a time, as the manifest writes its seeds
        configs = (
            (f"seed={seed}", sample_random_configuration(n, d, seed, bound))
            for seed in seeds
        )

    ok = True
    summary = _summary_stream(args.json)

    def reports():
        nonlocal ok
        for name, config in configs:
            report = total_linked_parity(config, workers=workers)
            ok = ok and report.parity_ok
            print(f"{name}: total linked = {report.total_linked} "
                  f"({'even' if report.parity_ok else 'ODD'})", file=summary)
            # claim (b): some two disjoint (k+1)-subsets have intersecting hulls
            if not any(row.n3 for row in report.support.values()):
                print(f"{name}: no intersecting disjoint pair", file=sys.stderr)
                ok = False
            yield report

    if args.json:
        # each report is written as it is computed and then dropped, so
        # memory does not grow with --trials; a failed trial leaves no file
        payload = {
            "command": "parity",
            "reports": map(link_report_document, reports()),
            "manifest": manifest(),
        }
        with _replacing(args.json) as handle:
            write_canonical(handle, payload)
    else:
        for _ in reports():
            pass
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ------------------------------- alternation --------------------------------


def _row_tail(breakdown) -> str:
    """A table row after its ``I`` field, ``,case,block_sizes,count\\r\\n``, as csv wrote it."""
    blocks = " ".join(map(str, breakdown.block_sizes or ()))
    return f",{breakdown.case_tag.value},{blocks},{breakdown.count}\r\n"


def cmd_alternation(args) -> int:
    if (args.k is None) == (args.subset is None):
        raise ContractError("exactly one of --k or --subset is required")
    if args.k is not None:
        if args.n is not None:
            raise ContractError("--n is read only with --subset; --k uses n = 2k + 3")
        if args.k < 1:
            raise ContractError(f"--k must be >= 1, got {args.k}")
        _require_report_rows(args.k)
        n, size = 2 * args.k + 3, args.k + 1
        # every nonzero enumerated count at once, from the n unions I ∪ J
        counts = alternating_counts(n, size)
        # every subset with two adjacent labels is has_adjacent, count 0, so
        # only the C(k + 3, 2) others and a subset counted nonzero can
        # mismatch or write another row; colex subsets are never re-validated
        subsets = sorted(set(spread_subsets(n, size)) | counts.keys(), key=lambda s: s[::-1])
        rows = [(subset, _closed_form(subset, n), counts.get(subset, 0)) for subset in subsets]
    else:
        if args.n is None:
            raise ContractError("--subset requires --n")
        # the closed form refuses a bad subset first, before any candidate is enumerated
        subset = _parse_labels(args.subset)
        breakdown = alternating_count_closed_form(subset, args.n)
        brute = alternating_count_bruteforce(subset, args.n)
        # written sorted, as every --k row is, however the labels were given
        rows = [(tuple(sorted(subset)), breakdown, brute)]

    # in colex order, so the first is the table's first mismatching row
    mismatched = [subset for subset, breakdown, brute in rows
                  if breakdown.count != brute or brute % 2]
    tails = {subset: _row_tail(breakdown) for subset, breakdown, _ in rows}
    with _replacing(args.csv) if args.csv else nullcontext(sys.stdout) as handle:
        handle.write("I,case,block_sizes,count\r\n")
        if args.k is None:
            handle.writelines(" ".join(map(str, subset)) + tail for subset, tail in tails.items())
        else:
            handle.writelines(colex_rows(n, size, " ", "", tails, _row_tail(_HAS_ADJACENT)))
    if mismatched:
        print(f"closed-form mismatch on {len(mismatched)} row(s), first at I={mismatched[0]}",
              file=sys.stderr)
    return EXIT_VERIFY_FAIL if mismatched else EXIT_OK


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
    with _replacing(args.out) as handle:
        handle.write(write_points_text(config))
    print(f"wrote {args.out}: {config.provenance.describe()}", file=_summary_stream(args.out))
    return EXIT_OK


# ----------------------------------- plot -----------------------------------


def _svg_document(config: Configuration, linked: set) -> str:
    width = height = 640
    margin = 60.0
    xs = [p[0] for p in config.points]
    ys = [p[1] for p in config.points]
    # exact until the final pixel: a coordinate may lie beyond float range
    scale = min(Fraction(width - 2 * margin) / (max(xs) - min(xs) or 1),
                Fraction(height - 2 * margin) / (max(ys) - min(ys) or 1))

    def place(point):
        x = margin + float((point[0] - min(xs)) * scale)
        y = height - margin - float((point[1] - min(ys)) * scale)
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
        config, _ = _load(args.input)
    if config.dimension != 2 or config.n != 5:
        raise ContractError("plot needs 5 points in the plane")
    report = total_linked_parity(config)
    with _replacing(args.out) as handle:
        handle.write(_svg_document(config, set(report.linked_subsets)))
    print(f"wrote {args.out}: total linked = {report.total_linked}",
          file=_summary_stream(args.out))
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
