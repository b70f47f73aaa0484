"""StructureAlgebra.generators, and the free resolutions, whose generators'
images span their submodules, against breadth-first closures under the
full action table; and the structures decided over the generators against
the same structures decided over every basis element."""

from functools import lru_cache

import pytest

from conftest import bfs_resolution, unit_closure_dim
from parhox.algebras import (bimodule_hom, bimodule_tensor,
                             commutator_quotient, enveloping,
                             hom_over_algebra, regular_bimodule,
                             separability_idempotent, tensor_over_algebra)
from parhox.homology import env_resolution, free_resolution
from parhox.problems import build_instance, bundled_fixtures, load_fixture
from parhox.spectral import module_tower

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
    """The generators span R, and none of them is generated by the rest."""
    gens = R.generators
    assert all(type(i) is int for i in gens)
    assert gens == sorted(set(gens)) and set(gens) <= set(range(R.dim))
    assert unit_closure_dim(R, gens) == R.dim
    for s in gens:
        assert unit_closure_dim(R, [t for t in gens if t != s]) < R.dim


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_generators_span_the_algebra(fixture):
    for R in algebras(instance(fixture)).values():
        assert_generate(R)
        assert_generate(enveloping(R))


def test_generator_counts_v4():
    inst = instance("v4_partial_q.json")
    assert len(inst.kpar.algebra.generators) == 3
    assert len(enveloping(inst.lam.algebra).generators) == 8
    assert len(inst.ksdd.algebra.generators) == 2


def over_every_basis_element(algs, build):
    """build(), with every basis index of each algebra in algs standing in
    for its generators."""
    saved = [R.generators for R in algs]
    for R in algs:
        R.generators = list(range(R.dim))
    try:
        return build()
    finally:
        for R, gens in zip(algs, saved):
            R.generators = gens


def decided_structures(inst):
    """The balanced tensors, Hom spaces, commutator quotient and
    separability idempotent that the battery decides over generators,
    each as the data read off its reduced echelon form."""
    kpar, ksdd, lam = inst.kpar.algebra, inst.ksdd.algebra, inst.lam.algebra
    B_left, B_right = inst.b_over_kpar
    bs_right = inst.bsig_modules_over_ksdd[1]
    _, tower = module_tower(inst, 0)
    _, X_kpar, X_ksdd = tower[0]
    M = inst.M

    def tensor(T):
        return T.relations.ech.rref(), T.quotient.free

    def quotient(Q):
        return Q.sub.ech.rref(), Q.free

    return {
        "B (x) X": tensor(tensor_over_algebra(kpar, B_right, X_kpar)),
        "Omega (x) X": tensor(tensor_over_algebra(
            kpar, inst.omega_right_over_kpar, X_kpar)),
        "B^sigma (x) X": tensor(tensor_over_algebra(ksdd, bs_right, X_ksdd)),
        "Lambda (x) M": tensor(bimodule_tensor(regular_bimodule(lam), M)),
        "Hom(B, X)": hom_over_algebra(kpar, B_left, X_kpar),
        "Hom(X, X)": hom_over_algebra(kpar, X_kpar, X_kpar),
        "Hom(M, M)": bimodule_hom(M, M),
        "M/[Lambda, M]": quotient(commutator_quotient(M)),
        "separability of kpar": separability_idempotent(kpar,
                                                        inst.chain_cap),
    }


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_structures_do_not_depend_on_the_generating_set(fixture):
    # one span has one reduced echelon form, so the relation rows, the
    # quotient coordinates, the Hom bases and the solution of the
    # separability system are those of every basis element
    inst = instance(fixture)
    want = decided_structures(inst)
    algs = (inst.kpar.algebra, inst.ksdd.algebra, inst.lam.algebra)
    assert over_every_basis_element(
        algs, lambda: decided_structures(inst)) == want


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
