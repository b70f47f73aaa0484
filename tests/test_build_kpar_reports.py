"""Byte-identity of the `parhox build-kpar` reports.

Each report's text, without its `timing_seconds` line, must hash to the
sha256 pinned in PINS: kappa_par S3, and kappa_par^sigma S3 for the twists
of tests/data/s3_twists.json (global coboundaries over Q and F_7, the
idempotent twist of S3 acting on {0, 1, 2} restricted to {0, 1}, and its
products with those coboundaries, whose monomials partly vanish).  A
change that means to alter a report re-records PINS from the lines

    PYTHONPATH=src python tests/test_build_kpar_reports.py

prints, and says so.
"""

import contextlib
import hashlib
import io
import json
import os
import re

import pytest

from parhox.cli import main
from parhox.problems import fixture_dir

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
S3 = os.path.join(fixture_dir(), "groups", "s3.json")
F7 = '{"kind":"Fp","p":7}'

# twist name in s3_twists.json -> the --field flag
TWISTS = {"global_q": None, "global_f7": F7, "idempotent_q": None,
          "partial_q": None, "partial_f7": F7}

PINS = {
    "universal S3":
        "d869168aab29b9d0f118dbf8c91cf5359275f78d3e597b0e2784949dedb2620c",
    "global_q":
        "f07b14ce7aeec732cbf9694fb3aeba12c9d67ee54dcc2212666c337f3057e8fc",
    "global_f7":
        "baebbeef1daadcb13054ca1fc652a0819f24e5c5cffa80b814bf5af966997171",
    "idempotent_q":
        "a48b17943d0d561436b84331836458c077800636c9cca5f1a1eb032e5824ad6b",
    "partial_q":
        "b3d58ed31eb41fae559700c343f39796b1ac6698fe0c6487009cb14ecd4b2a43",
    "partial_f7":
        "688c02400103b704563026a1996732eb3424b9bb5ec92c02ea8e386b082f7887",
}


def cases(tmp_dir):
    """(name, argv) of every pinned report; the sigma files go to tmp_dir."""
    with open(os.path.join(DATA, "s3_twists.json")) as fh:
        twists = json.load(fh)
    out = [("universal S3", ["build-kpar", S3])]
    for name, field in TWISTS.items():
        path = os.path.join(tmp_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(twists[name], fh)
        argv = ["build-kpar", S3, "--sigma", path]
        out.append((name, argv + (["--field", field] if field else [])))
    return out


def report_text(argv):
    """The text `parhox argv` prints, with its timing line removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return re.sub(r'\n "timing_seconds": [^\n]*', "", buf.getvalue())


def report_sha(argv):
    return hashlib.sha256(report_text(argv).encode()).hexdigest()


def test_every_report_is_pinned(tmp_path):
    assert sorted(PINS) == sorted(name for name, _ in cases(tmp_path))


@pytest.mark.parametrize("name", sorted(PINS))
def test_build_kpar_report(name, tmp_path):
    text = report_text(dict(cases(tmp_path))[name])
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name]
    # the idempotent and partial twists kill monomials; the others keep
    # all 112
    doc = json.loads(text)["result"]
    assert doc["dim"] + len(doc["vanished"]) == 112
    assert (doc["dim"] < 112) == name.startswith(("idempotent", "partial"))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases(tmp):
            print(f'    "{name}":\n        "{report_sha(argv)}",')
