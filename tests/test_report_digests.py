"""Byte-identity of the reports on the bundled fixtures.

Every report of `spectral`, `spectral --cohomology`,
`hochschild --max-n 3 --cohomology`, `partial-homology` and `build-crossed`
on each bundled fixture must hash, without its `timing_seconds` field, to
the sha256 pinned in tests/data/report_digests.json.  A change that means
to alter a report re-records the file and says so:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from parhox.cli import main
from parhox.problems import bundled_fixtures, fixture_dir

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "report_digests.json")

COMMANDS = {
    "spectral": ["spectral"],
    "spectral-cohomology": ["spectral", "--cohomology"],
    "hochschild": ["hochschild", "--max-n", "3", "--cohomology"],
    "partial-homology": ["partial-homology"],
    "build-crossed": ["build-crossed"],
}


def report_digest(argv):
    """sha256 of the JSON report of `parhox argv` without its timing."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    # spectral prints its page table after the report
    doc, _ = json.JSONDecoder().raw_decode(buf.getvalue())
    doc.pop("timing_seconds", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def cases():
    return [(f"{key} {name}", argv + [os.path.join(fixture_dir(), name)])
            for name in bundled_fixtures() for key, argv in COMMANDS.items()]


def test_every_report_is_pinned():
    with open(DIGESTS) as fh:
        assert sorted(json.load(fh)) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key, argv", cases(), ids=[k for k, _ in cases()])
def test_report_digest(key, argv):
    with open(DIGESTS) as fh:
        assert report_digest(argv) == json.load(fh)[key]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w") as fh:
        json.dump({key: report_digest(argv) for key, argv in cases()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
