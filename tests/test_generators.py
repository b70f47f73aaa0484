"""StructureAlgebra.generators, and the free resolutions, whose generators'
images span their submodules, against breadth-first closures under the
full action table."""

from functools import lru_cache

import pytest

from conftest import bfs_resolution, unit_closure_dim
from parhox.algebras import enveloping
from parhox.homology import env_resolution, free_resolution
from parhox.problems import build_instance, bundled_fixtures, load_fixture

STYLES = ["greedy", "greedy_reversed", "fat"]


@lru_cache(maxsize=None)
def instance(fixture):
    return build_instance(load_fixture(fixture))


def algebras(inst):
    """Lambda, A, k_par G, k_par^{sigma''} G, Omega and B^sigma."""
    return {"Lambda": inst.lam.algebra, "A": inst.theta.algebra,
            "kpar": inst.kpar.algebra, "ksdd": inst.ksdd.algebra,
            "Omega": inst.omega.algebra, "Bsigma": inst.bsig.algebra}


def assert_generate(R):
    gens = R.generators
    assert all(type(i) is int for i in gens)
    assert gens == sorted(set(gens)) and set(gens) <= set(range(R.dim))
    assert unit_closure_dim(R, gens) == R.dim


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_generators_span_the_algebra(fixture):
    for R in algebras(instance(fixture)).values():
        assert_generate(R)
        assert_generate(enveloping(R))


def test_generator_counts_v4():
    inst = instance("v4_partial_q.json")
    assert len(inst.kpar.algebra.generators) == 6
    assert len(enveloping(inst.lam.algebra).generators) == 11
    assert len(inst.ksdd.algebra.generators) == 4


def resolutions(inst, style, length=2):
    """The resolutions of the battery: Lambda and A over their enveloping
    algebras, B and Omega over k_par G, B^sigma over k_par^{sigma''} G."""
    B_left, B_right = inst.b_over_kpar
    bs_right = inst.bsig_modules_over_ksdd[1]
    om = inst.omega_right_over_kpar
    out = [env_resolution(inst.lam.algebra, length, style=style)[1],
           env_resolution(inst.theta.algebra, length, style=style)[1]]
    for mod, side in ((B_right, "right"), (B_left, "left"),
                      (bs_right, "right"), (om, "right")):
        out.append(free_resolution(mod.algebra, mod, side, length,
                                   style=style))
    return out


def assert_matches_closure(res, style):
    assert (res.ranks, res.gen_images) == bfs_resolution(
        res.R, res.module, res.side, len(res.ranks) - 1, style)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_resolutions_match_full_table_closure(fixture, style):
    for res in resolutions(instance(fixture), style):
        assert_matches_closure(res, style)


# the battery resolves Lambda and A of v4_partial_q over their enveloping
# algebras to length 4 (greedy); `fat` keeps every kernel vector and is
# over the default cap there (94 500 generators at degree 4), so it stops
# at length 3
@pytest.mark.parametrize("style, length", [("greedy", 4),
                                           ("greedy_reversed", 4),
                                           ("fat", 3)])
def test_v4_enveloping_resolutions_match_at_battery_length(style, length):
    inst = instance("v4_partial_q.json")
    for R in (inst.lam.algebra, inst.theta.algebra):
        assert_matches_closure(env_resolution(R, length, style=style)[1],
                               style)
