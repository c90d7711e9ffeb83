"""Reports stay byte-identical: SHA-256 digests pinned from earlier output.

The digests for k <= 4 were taken from the code before the Radon table
moved to integer arithmetic, and those for k = 5 and 6 from the code that
still wrote JSON through ``json.dumps(indent=2)``, so any change in a sign,
a Radon point or the JSON layout of these reports shows up here.  The
rational cases exercise points with denominators other than 1, which the
CLI runs never produce.  The alternation digest was taken from the code that
built the whole CSV in memory before writing it, and covers csv's \\r\\n.
"""

import hashlib

import pytest

from linkparity.cli import main
from linkparity.linking import (
    dumps_canonical,
    find_intersecting_pair,
    link_report_document,
    total_linked_parity,
)
from linkparity.ratmat import format_rational
from test_linking import _rational_cases

VERIFY_DIGESTS = {
    1: "b50218f1a20ef87af0bc0bc0bf80ff9f874322adb3330fed431e4f9a916b8ad0",
    2: "db3ec2b9b0b47a941b1c4b01055ac14ebe5fa3aea37028dd832a4a7bff09a554",
    3: "3c0978526a944cdc2cbd482eeeee76521b9dd112617dd7a92e0ef733fa8519b4",
    4: "9587d4be681f1a3a52f52f9f2d4b3da3f9961f18f5dd957a913d7a2da10e60b3",
    5: "c19befa94e66aa8f98de12adefb35008446d9a02489ae61628eedcfd485c805a",
    6: "6ffa2c23f559c9b276637e676f5a6c36850ae5f21a3c8af217add56433a37315",
}
PARITY_RANDOM_DIGEST = "fa34c4d465180490b081a6ea2699d55ea5a8974bb6f14d9c2efaf7da1ab97deb"
RATIONAL_CASES_DIGEST = "c61c9b1deb80f108b7591d000f7ed0d08afa5ef0483e2d03a7f78e61ca7c33fa"
ALTERNATION_K5_DIGEST = "82856978c75b3db874163ab41a982a2eda61c7f1cd65c099e41a4702795521ea"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("k", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(k, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "-k", str(k), "--json", str(out)]) == 0
    assert _sha256(out.read_bytes()) == VERIFY_DIGESTS[k]


def test_parity_random_report_digest(tmp_path):
    out = tmp_path / "parity.json"
    assert main(["parity", "--random", "7", "4", "--trials", "20", "--json", str(out)]) == 0
    assert _sha256(out.read_bytes()) == PARITY_RANDOM_DIGEST


def test_alternation_table_digest(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["alternation", "--k", "5", "--csv", str(out)]) == 0
    assert _sha256(out.read_bytes()) == ALTERNATION_K5_DIGEST
    assert main(["alternation", "--k", "5"]) == 0
    assert _sha256(capsys.readouterr().out.encode("ascii")) == ALTERNATION_K5_DIGEST


def _rational_cases_text() -> str:
    """Each rational case's canonical report, then its first intersecting pair."""
    parts = []
    for config in _rational_cases():
        parts.append(dumps_canonical(link_report_document(total_linked_parity(config))))
        first, second, result = find_intersecting_pair(config)
        parts.append(dumps_canonical({
            "first": list(first),
            "second": list(second),
            "point": [format_rational(x) for x in result.point],
            "coeffs_first": [format_rational(x) for x in result.coeffs_first],
            "coeffs_second": [format_rational(x) for x in result.coeffs_second],
        }))
    return "".join(parts)


def test_rational_case_reports_digest():
    assert _sha256(_rational_cases_text().encode("ascii")) == RATIONAL_CASES_DIGEST
