"""Tests of the benchmark itself: seeded inputs reproduce byte for byte, and
different seeds pass the same output checks.

Only items that take well under a second are run here; the S3 global twist
over Q (about 9 s) is left to the benchmark.
"""

import os
import random
import sys

import pytest

import gen
import worker
from tracer import Tracer
from parhox.problems import fixture_dir


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["battery-small", "kpar-rewrite",
                                      "hochschild-kpar"])
def test_same_seed_same_bytes(tmp_path, workload):
    a = gen.generate(workload, 7, str(tmp_path / "a"), fixture_dir())
    b = gen.generate(workload, 7, str(tmp_path / "b"), fixture_dir())
    assert [i["name"] for i in a] == [i["name"] for i in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seeds_change_the_twists(tmp_path):
    gen.generate("kpar-rewrite", 1, str(tmp_path / "a"), fixture_dir())
    gen.generate("kpar-rewrite", 2, str(tmp_path / "b"), fixture_dir())
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a["sigma_global_q.json"] != b["sigma_global_q.json"]
    assert a["sigma_partial_f7.json"] != b["sigma_partial_f7.json"]


def test_coboundary_values_are_normalized():
    for field in (gen.FIELD_Q, gen.field_fp(7)):
        f = gen.coboundary_values(random.Random(3), 6, field)
        assert f[0] == 1 and all(f)
        sigma = gen.coboundary(gen.s3_cayley(), f, field)
        assert sigma[0] == [1] * 6 and [row[0] for row in sigma] == [1] * 6


CHEAP = {"kpar-rewrite": lambda i: i["name"] != "global_q",
         "battery-small": lambda i: i["name"] in ("z2_trivial_f2",
                                                  "z2_twist4_f7")}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_seeds_pass_the_output_checks(tmp_path, workload, seed):
    items = [i for i in gen.generate(workload, seed, str(tmp_path),
                                     fixture_dir()) if CHEAP[workload](i)]
    runner = worker.Runner()
    iterations, attempted, failed = worker.run_iterations(runner, items, 0,
                                                          60)
    assert (attempted, failed) == (len(items), 0)
    assert iterations[0]["wall_s"] > 0


def test_a_wrong_answer_fails_the_item(tmp_path):
    items = [i for i in gen.generate("kpar-rewrite", 1, str(tmp_path),
                                     fixture_dir())
             if i["name"] == "partial_f7"]
    items[0]["twist"] = "global"         # expects dim 112, parhox gives 37
    _, attempted, failed = worker.run_iterations(worker.Runner(), items, 0,
                                                 60)
    assert (attempted, failed) == (1, 1)


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    spectral = sys.modules["parhox.spectral"]
    homology = sys.modules["parhox.homology"]
    original = homology.free_resolution
    items = [i for i in gen.generate("battery-small", 1, str(tmp_path),
                                     fixture_dir())
             if i["name"] == "z2_trivial_f2"]
    tracer = Tracer()
    tracer.install()
    try:
        assert spectral.free_resolution is homology.free_resolution
        assert spectral.free_resolution is not original
        runner = worker.Runner(tracer)
        iterations, _, failed = worker.run_iterations(runner, items, 0, 60)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert spectral.free_resolution is original
    assert homology.free_resolution is original
    layers = iterations[0]["layers"]
    assert layers["homology.free_resolution"][1] > 0
    assert layers["other"][1] == 1
    # self times partition the root span: they sum to the traced wall time
    total = sum(seconds for seconds, _ in layers.values())
    assert abs(total - iterations[0]["wall_s"]) < 0.05 * total
    assert iterations[0]["counts"]["homology.free_resolution.rank_sum"] > 0
