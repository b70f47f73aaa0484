"""StructureAlgebra.generators and its two uses: the submodule closures of
free resolutions and ModuleData.validate, against the full action table."""

from functools import lru_cache

import pytest

from conftest import unit_closure_dim, whole_basis_generators
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


def resolutions(inst, style):
    """The resolutions of the battery, each to length 2: Lambda and A over
    their enveloping algebras, B and Omega over k_par G, B^sigma over
    k_par^{sigma''} G."""
    B_left, B_right = inst.b_over_kpar
    bs_right = inst.bsig_modules_over_ksdd[1]
    om = inst.omega_right_over_kpar
    out = [env_resolution(inst.lam.algebra, 2, style=style)[1],
           env_resolution(inst.theta.algebra, 2, style=style)[1]]
    for mod, side in ((B_right, "right"), (B_left, "left"),
                      (bs_right, "right"), (om, "right")):
        out.append(free_resolution(mod.algebra, mod, side, 2, style=style))
    return [(res.ranks, res.gen_images) for res in out]


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_resolutions_match_full_table_closure(fixture, style, monkeypatch):
    inst = instance(fixture)
    got = resolutions(inst, style)
    whole_basis_generators(monkeypatch)
    assert resolutions(inst, style) == got
