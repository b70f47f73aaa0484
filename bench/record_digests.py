"""Recompute bench/digests.json, the expected spectral report of every
bundled fixture (sha256 of the report without `timing_seconds`).

    PYTHONPATH=src python3 bench/record_digests.py

Run it only in a change whose purpose is to alter parhox's reports, and say
so in that change.
"""

import json
import os
import sys

import gen
import worker
from parhox.problems import fixture_dir


def main():
    runner = worker.Runner(digests={})
    digests = {}
    for name in sorted([gen.V4_FIXTURE] + gen.SMALL_FIXTURES):
        doc, seconds = runner.cli_call(
            ["spectral", os.path.join(fixture_dir(), name + ".json")])
        digests[name] = worker.report_digest(doc)
        print(f"{name}: {seconds:.1f}s {digests[name]}", file=sys.stderr)
    with open(worker.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
