import os
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (absolute_diagonal_action, absolute_hochschild_dims,
                      boundary_matrix, bump, dense_map_on_quotient, densify,
                      dual_numbers, matrix_algebra, product_field_algebra,
                      rank, sp_kron, transpose, z2_universal,
                      z3_kappa2_action, z2_dual_numbers, zeros)
from parhox.fields import QQ, PrimeField
from parhox.algebras import (ModuleData, bimodule_hom, commutator_quotient,
                             dual_bimodule, orthogonalize_idempotents,
                             regular_bimodule, restrict_along_hom,
                             hom_over_algebra, separability_idempotent,
                             tensor_over_algebra)
from parhox.factor_sets import (EquivalenceWitness, trivial_factor_set,
                                xi_sigma_double_prime, PartialFactorSet)
from parhox.errors import (EquivarianceFailure, InvalidInput, SizeLimit,
                           ValidationFailure)
from parhox.groups import cyclic_group
from parhox import homology, spectral
from parhox.homology import (DEFAULT_CHAIN_CAP, ChainComplex,
                             FreeResolution, GModuleOnChains,
                             SplitResolution, _crossed_action_matrices,
                             check_splitting_idempotent, diagonal_action,
                             env_resolution, free_resolution,
                             hochschild_homology_bar,
                             hochschild_homology_resolution,
                             hochschild_homology_separable,
                             hom_A_module_structure, homology_data,
                             induced_action_on_homology,
                             m_as_a_bimodule, relative_bar_complex,
                             splitting_idempotent, tor_dims)
from parhox.linalg import (_rank_of, _sp_identity, _sp_matmul, _sp_sum,
                           _sp_transpose, _sparse, _sparse_matrix)
from parhox.partial_actions import build_crossed_product
from parhox.problems import (build_instance, bundled_fixtures, load_fixture,
                             parse_spec_file)
from parhox.partial_algebras import (b_sigma_module_structures,
                                     build_B_sigma_omega, build_kpar,
                                     build_kpar_idempotent, build_kpar_sigma,
                                     monomial_projection_hom)


def F(x, y=1):
    return Fraction(x, y)


def dual_numbers_periodic_oracle(field, max_n):
    """Independent oracle for H_*(k[x]/x^2, k[x]/x^2): homology of the
    2-periodic complex A <-0- A <-2x- A <-0- ..."""
    A = dual_numbers(field)
    two_x = A.left_mult_matrix(_sparse(field, [field.zero,
                                               field.add(field.one, field.one)]))
    zero_map = [{}, {}]
    # d_n = 0 for n odd, multiplication by 2x for n even (n >= 1)
    cc = ChainComplex(field, [2] * (max_n + 2),
                      {n: two_x if n % 2 == 0 else zero_map
                       for n in range(1, max_n + 2)})
    return [homology_data(cc, n).dim for n in range(max_n + 1)]


def test_h0_is_commutator_quotient():
    for A in (matrix_algebra(QQ, 2), product_field_algebra(QQ, 3),
              dual_numbers(QQ)):
        M = regular_bimodule(A)
        dims = hochschild_homology_bar(A, M, 0)
        assert dims[0] == commutator_quotient(M).dim


def test_hochschild_of_base_field():
    A = product_field_algebra(QQ, 1)
    M = regular_bimodule(A)
    assert hochschild_homology_bar(A, M, 3) == [1, 0, 0, 0]
    # dim H^q(A, M) = dim H_q(A, M*)
    assert hochschild_homology_bar(A, dual_bimodule(M), 3) == [1, 0, 0, 0]


def test_hochschild_matrix_algebra():
    A = matrix_algebra(QQ, 2)
    M = regular_bimodule(A)
    assert hochschild_homology_bar(A, M, 2) == [1, 0, 0]
    assert hochschild_homology_resolution(A, M, 2) == [1, 0, 0]
    assert hochschild_homology_bar(A, dual_bimodule(M), 2) == [1, 0, 0]
    assert hochschild_homology_resolution(A, dual_bimodule(M), 2) == \
        [1, 0, 0]


def test_hochschild_separable_product():
    A = product_field_algebra(QQ, 2)
    M = regular_bimodule(A)
    assert hochschild_homology_bar(A, M, 3) == [2, 0, 0, 0]
    assert hochschild_homology_resolution(A, M, 3) == [2, 0, 0, 0]


def test_hochschild_dual_numbers_oracle():
    # frozen against the independent 2-periodic resolution oracle
    for field, expected in ((QQ, [2, 1, 1, 1]), (PrimeField(2), [2, 2, 2, 2])):
        oracle = dual_numbers_periodic_oracle(field, 3)
        assert oracle == expected
        A = dual_numbers(field)
        M = regular_bimodule(A)
        assert hochschild_homology_bar(A, M, 3) == expected
        assert hochschild_homology_resolution(A, M, 3) == expected


def test_normalized_vs_full_bar():
    # the relative complex over S = k.1 against the absolute normalized and
    # full complexes of tests/conftest.py
    for A in (product_field_algebra(QQ, 2), dual_numbers(QQ),
              dual_numbers(PrimeField(2))):
        M = regular_bimodule(A)
        for X in (M, dual_bimodule(M)):
            assert hochschild_homology_bar(A, X, 2) == \
                absolute_hochschild_dims(A, X, 2, normalized=True) == \
                absolute_hochschild_dims(A, X, 2, normalized=False)


def test_cohomology_h0_is_centralizer():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    dims = hochschild_homology_bar(A, dual_bimodule(M), 0)
    assert dims[0] == 2                        # commutative: center = A
    M2 = matrix_algebra(QQ, 2)
    assert hochschild_homology_bar(
        M2, dual_bimodule(regular_bimodule(M2)), 0)[0] == 1


def test_tor_basics():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    R = kp.algebra
    reg = regular_bimodule(R)
    X = ModuleData(R, R.dim, right=reg.right)
    Y = ModuleData(R, R.dim, left=reg.left)
    # Tor(R, Y) = Y in degree 0
    assert tor_dims(R, X, Y, 2) == [R.dim, 0, 0]
    # Tor_0 = X (x)_R Y
    T = tensor_over_algebra(R, X, Y)
    assert tor_dims(R, X, Y, 0)[0] == T.dim


def _dual_right(Y):
    """Y* = Hom_k(Y, k) for a left module Y, as the right module
    (f.r)(y) = f(r.y): in the dual basis r acts by the transpose of its
    left matrix on Y.  Ext^n_R(X, Y) = Tor_n^R(Y*, X)^* for finite
    dimensional modules, so Ext dims are Tor dims of the dual."""
    return ModuleData(Y.algebra, Y.dim,
                      right=[_sp_transpose(L, Y.dim) for L in Y.left])


def test_ext_basics():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    R = kp.algebra
    reg = regular_bimodule(R)
    X = ModuleData(R, R.dim, left=reg.left)
    assert tor_dims(R, _dual_right(X), X, 2) == [R.dim, 0, 0]
    assert tor_dims(R, _dual_right(X), X, 0)[0] == \
        len(hom_over_algebra(R, X, X))


def _b_modules(kp):
    """B as right and left kappa_par G-module (untwisted tower)."""
    G = kp.group
    K = kp.field
    xi = EquivalenceWitness(G, K, [K.one] * G.n)
    return b_sigma_module_structures(kp, kp, xi)


def _trivial_module(kp):
    K = kp.field
    ones = {kp.position[kp.monoid.gen(g)]: [{0: 1}] for g in range(kp.group.n)}
    from parhox.algebras import module_from_generator_actions
    return module_from_generator_actions(kp.algebra, 1, ones, side="left")


def test_partial_homology_trivial_group():
    G = cyclic_group(1)
    kp = build_kpar(G, QQ)
    left, right = _b_modules(kp)
    X = _trivial_module(kp)
    dims = tor_dims(kp.algebra,
                    ModuleData(kp.algebra, right.dim, right=right.right),
                    X, 2)
    assert dims == [1, 0, 0]


def test_partial_homology_z2_pinned():
    # frozen regression values; the two resolution styles must agree
    for field, expected in ((QQ, [1, 0, 0]), (PrimeField(2), [1, 1, 1])):
        kp = build_kpar(cyclic_group(2), field)
        left, right = _b_modules(kp)
        B_right = ModuleData(kp.algebra, right.dim, right=right.right)
        X = _trivial_module(kp)
        for style in ("greedy", "fat", "greedy_reversed"):
            assert tor_dims(kp.algebra, B_right, X, 2,
                            style=style) == expected


def test_partial_homology_degree_zero_is_tensor():
    kp = build_kpar(cyclic_group(3), QQ)
    left, right = _b_modules(kp)
    B_right = ModuleData(kp.algebra, right.dim, right=right.right)
    X = _trivial_module(kp)
    T = tensor_over_algebra(kp.algebra, B_right, X)
    assert tor_dims(kp.algebra, B_right, X, 0)[0] == T.dim


def test_partial_cohomology_z2_pinned():
    for field, expected in ((QQ, [1, 0, 0]), (PrimeField(2), [1, 1, 1])):
        kp = build_kpar(cyclic_group(2), field)
        left, right = _b_modules(kp)
        B_left = ModuleData(kp.algebra, left.dim, left=left.left)
        X = _trivial_module(kp)
        assert tor_dims(kp.algebra, _dual_right(X), B_left, 2) == expected


def test_tor_resolution_independence():
    sigma = PartialFactorSet(cyclic_group(3), QQ,
                             [[QQ.one] * 3, [QQ.one, QQ.zero, QQ.one],
                              [QQ.one, QQ.one, QQ.zero]])
    ks = build_kpar_sigma(sigma)
    kp = build_kpar(cyclic_group(3), QQ, monoid=ks.monoid)
    left, right = _b_modules(kp)
    B_right = ModuleData(kp.algebra, right.dim, right=right.right)
    X = _trivial_module(kp)
    d1 = tor_dims(kp.algebra, B_right, X, 2, style="greedy")
    d2 = tor_dims(kp.algebra, B_right, X, 2, style="fat")
    d3 = tor_dims(kp.algebra, B_right, X, 2, style="greedy_reversed")
    assert d1 == d2 == d3


def test_omega_flatness_spot_check():
    # Tor_1(Omega, X) = 0 for sample modules X
    G = cyclic_group(3)
    sigma = PartialFactorSet(G, QQ, [[QQ.one] * 3, [QQ.one, QQ.zero, QQ.one],
                                     [QQ.one, QQ.one, QQ.zero]])
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(sigma, monoid=kp.monoid)
    from parhox.factor_sets import sigma_prime
    ksdd = build_kpar_idempotent(sigma_prime(sigma), monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks, ksdd=ksdd)
    om_reg = regular_bimodule(omega.algebra)
    om_kpar = restrict_along_hom(omega.projection, om_reg)
    Om_right = ModuleData(kp.algebra, om_kpar.dim, right=om_kpar.right)
    left, right = _b_modules(kp)
    B_left = ModuleData(kp.algebra, left.dim, left=left.left)
    X2 = _trivial_module(kp)
    for X in (B_left, X2):
        dims = tor_dims(kp.algebra, Om_right, X, 1)
        assert dims[1] == 0


def test_free_resolution_exactness_gate():
    kp = build_kpar(cyclic_group(2), PrimeField(2))
    left, right = _b_modules(kp)
    B_right = ModuleData(kp.algebra, right.dim, right=right.right)
    res = free_resolution(kp.algebra, B_right, "right", 3)
    K = kp.field

    def rank_at(q):
        return _rank_of(K, boundary_matrix(res, q))

    assert rank_at(0) == B_right.dim
    for q in range(1, 4):
        assert rank_at(q) == res.ranks[q - 1] * kp.algebra.dim - rank_at(q - 1)


def test_env_resolution_ranks_are_pinned():
    # Lambda^e-resolutions of Lambda (dim 4) for the dual-numbers fixture:
    # the greedy and the reversed style give different, fixed ranks
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    assert env_resolution(lam, 3)[1].ranks == [1, 2, 3, 4]
    assert env_resolution(lam, 3, style="greedy_reversed")[1].ranks == \
        [2, 4, 7, 10]
    lam2 = build_instance(load_fixture("z2_trivial_f2.json")).lam.algebra
    assert env_resolution(lam2, 3)[1].ranks == [1, 2, 4, 7]


# the fixtures whose Lambda, resp. A, has no separability idempotent
NOT_SEPARABLE = {"lam": {"z2_dual_f2.json", "z2_dual_q.json",
                         "z2_trivial_f2.json"},
                 "A": {"z2_dual_f2.json", "z2_dual_q.json"}}


@pytest.mark.parametrize("fixture", bundled_fixtures() + ["m2_z2_q.json"])
def test_separable_route_matches_the_free_route(fixture):
    # the length-0 resolution through the separability idempotent against
    # the free Lambda^e- (A^e-) resolution, called explicitly, on M and M*
    path = os.path.join(os.path.dirname(__file__), "data", fixture)
    inst = build_instance(parse_spec_file(path) if os.path.exists(path)
                          else load_fixture(fixture))
    for side, R, e in [("lam", inst.lam.algebra, inst.lam_separability),
                       ("A", inst.theta.algebra, inst.separability)]:
        assert (e is None) == (fixture in NOT_SEPARABLE[side])
        if e is None:
            continue
        env_res = env_resolution(R, 4)
        M = inst.M if side == "lam" else inst.m_over_a
        for X in (M, dual_bimodule(M)):
            dims = hochschild_homology_separable(R, e, X, 3)
            assert dims == hochschild_homology_resolution(R, X, 3,
                                                          env_res=env_res)
            assert dims[1:] == [0, 0, 0]


class _Unread:
    """A bimodule stand-in that fails when the route reads it."""
    name, dim = "unread", 4

    def __getattr__(self, attr):
        raise AssertionError(f"M.{attr} was read")


@pytest.mark.parametrize("algebra", ["lam", "A"])
def test_a_changed_separability_idempotent_is_rejected_unused(algebra):
    # every single-entry change of e, zero entries included, is caught by
    # the re-verification before pi_M is formed
    inst = build_instance(load_fixture("v4_partial_q.json"))
    R = inst.lam.algebra if algebra == "lam" else inst.theta.algebra
    e = separability_idempotent(R, DEFAULT_CHAIN_CAP)
    reg = regular_bimodule(R)
    assert hochschild_homology_separable(R, e, reg, 1) == \
        hochschild_homology_bar(R, reg, 1)
    for r in range(R.dim):
        for c in range(R.dim):
            bad = [dict(row) for row in e]
            bump(R.field, bad, r, c)
            with pytest.raises(ValidationFailure,
                               match="separability idempotent"):
                hochschild_homology_separable(R, bad, _Unread(), 3)


def test_pi_m_of_a_non_bimodule_is_rejected():
    # Lambda of z3_kappa2_q is noncommutative, so its left multiplications
    # taken as a right action do not commute with the left one, and
    # pi_M o pi_M = pi_M fails
    R = build_instance(load_fixture("z3_kappa2_q.json")).lam.algebra
    reg = regular_bimodule(R)
    bad = ModuleData(R, R.dim, left=reg.left, right=reg.left, name="bad")
    with pytest.raises(ValidationFailure,
                       match="pi_M of bad is not idempotent"):
        hochschild_homology_separable(
            R, separability_idempotent(R, DEFAULT_CHAIN_CAP), bad, 1)


def test_the_oracle_rejects_a_changed_separability_idempotent():
    inst = build_instance(load_fixture("z2_trivial_q.json"))
    e = [dict(row) for row in inst.lam_separability]
    bump(inst.field, e, 0, 0)
    inst.lam_separability = e
    report = spectral.SpectralCheckReport(inst.name)
    with pytest.raises(ValidationFailure, match="mult\\(e\\) != 1"):
        spectral.hochschild_oracle_check(inst, report)


class _Unbuilt:
    """An algebra stand-in with a dimension and a name only."""
    name, dim = "R", 4


def test_separability_system_is_checked_against_the_cap():
    with pytest.raises(SizeLimit, match="separability idempotent of R: "
                       "4 x 4 = 16 unknowns exceed cap 15"):
        separability_idempotent(_Unbuilt(), cap=15)
    inst = build_instance(load_fixture("v4_partial_q.json"))
    assert separability_idempotent(inst.lam.algebra, cap=16) is not None
    inst.chain_cap = 15
    with pytest.raises(SizeLimit, match="16 unknowns exceed cap 15"):
        inst.lam_separability


# the modules of the battery that split (X = eR for a splitting idempotent
# e), per fixture; the others take the free route
SPLIT_ROUTES = {
    "v4_partial_q.json": {"B", "Omega", "Bsigma"},
    "z2_dual_f2.json": {"Omega"},
    "z2_dual_q.json": {"B", "Omega", "Bsigma"},
    "z2_trivial_f2.json": {"Omega"},
    "z2_trivial_q.json": {"B", "Omega", "Bsigma"},
    "z2_twist2_q.json": {"B", "Omega", "Bsigma"},
    "z2_twist4_f7.json": {"B", "Omega", "Bsigma"},
    "z2_twist_third_q.json": {"B", "Omega", "Bsigma"},
    "z3_kappa2_f3.json": {"Omega", "Bsigma"},
    "z3_kappa2_q.json": {"B", "Omega", "Bsigma"},
    "z3_unnormalized_q.json": {"B", "Omega", "Bsigma"},
}


def right_modules(inst):
    """The right modules the battery resolves: B and Omega over kappa_par
    G, B^sigma over kappa_par^{sigma''} G."""
    return {"B": inst.b_over_kpar[1], "Omega": inst.omega_right_over_kpar,
            "Bsigma": inst.bsig_modules_over_ksdd[1]}


def test_split_routes_are_pinned():
    assert sorted(SPLIT_ROUTES) == bundled_fixtures()
    for fixture, split in SPLIT_ROUTES.items():
        inst = build_instance(load_fixture(fixture))
        routes = {label: spectral.resolution_start(inst, X)
                  for label, X in right_modules(inst).items()}
        assert {label for label, res in routes.items()
                if isinstance(res, SplitResolution)} == split, fixture
        for label, res in routes.items():
            if label not in split:
                # the free route continues the resolution the splitting
                # attempt began, built to degree 1 with one generator
                assert isinstance(res, FreeResolution)
                assert res.ranks[0] == 1 and len(res.ranks) == 2
                X = res.module
                assert spectral.right_resolution(inst, X, 3) is res
                assert len(res.ranks) == 4


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_split_route_matches_every_free_style(fixture, monkeypatch):
    # every Tor that the battery reads off a split resolution, against the
    # greedy, greedy_reversed and fat free resolutions of the same module;
    # fat to Tor_1 only where R has dim > 8 (on v4_partial_q its length-3
    # resolution of B has 4 332 generators)
    calls = []
    original = spectral.tor_dims

    def recorded(R, X, Y, max_n, **kwargs):
        calls.append((R, X, Y, max_n, kwargs.get("resolution")))
        return original(R, X, Y, max_n, **kwargs)

    monkeypatch.setattr(spectral, "tor_dims", recorded)
    inst = build_instance(load_fixture(fixture))
    report, _, _ = spectral.run_all_checks(inst)
    assert report.ok
    split = [call for call in calls if isinstance(call[4], SplitResolution)]
    assert {id(X) for _, X, _, _, _ in split} == {
        id(right_modules(inst)[label]) for label in SPLIT_ROUTES[fixture]}
    for R, X, Y, max_n, res in split:
        dims = res.tor_dims(Y, max_n)
        assert dims[1:] == [0] * max_n
        for style in ("greedy", "greedy_reversed", "fat"):
            n = 1 if style == "fat" and R.dim > 8 else max_n
            assert tor_dims(R, X, Y, n, style=style) == dims[:n + 1], style


@pytest.mark.parametrize("fixture", ["z2_trivial_q.json", "v4_partial_q.json",
                                     "z2_twist4_f7.json"])
def test_a_changed_splitting_idempotent_is_rejected(fixture, monkeypatch):
    # every single-entry change of e, zero entries included, fails the
    # re-verification on R's own products: it raises, and never falls back
    # to the free route
    inst = build_instance(load_fixture(fixture))
    splits = []
    for X in right_modules(inst).values():
        begun = FreeResolution(X.algebra, X, "right").extend(1)
        e = splitting_idempotent(begun, DEFAULT_CHAIN_CAP)
        assert check_splitting_idempotent(begun, e).ok
        splits.append((begun, e))
    for begun, e in splits:
        R = begun.R
        for k in range(R.dim):
            bad = [dict(e)]
            bump(R.field, bad, 0, k)
            monkeypatch.setattr(homology, "solve",
                                lambda *args, _bad=bad[0]: _bad)
            with pytest.raises(ValidationFailure,
                               match="splitting idempotent of"):
                splitting_idempotent(begun, DEFAULT_CHAIN_CAP)


def test_non_projective_and_two_generator_modules_take_the_free_route():
    # B over kappa_par Z2 over F_2 and over kappa_par Z3 over F_3 is not
    # projective: the splitting system has no solution; B + B needs two
    # generators, so no system is set up
    for fixture in ("z2_trivial_f2.json", "z3_kappa2_f3.json"):
        inst = build_instance(load_fixture(fixture))
        _, B = inst.b_over_kpar
        begun = FreeResolution(B.algebra, B, "right").extend(1)
        assert begun.ranks[0] == 1
        assert splitting_idempotent(begun, DEFAULT_CHAIN_CAP) is None
        assert isinstance(spectral.resolution_start(inst, B), FreeResolution)
    inst = build_instance(load_fixture("z2_trivial_q.json"))
    B_left, B = inst.b_over_kpar
    m = B.dim
    BB = ModuleData(B.algebra, 2 * m, right=[
        mat + [{c + m: a for c, a in row.items()} for row in mat]
        for mat in B.right], name="B + B")
    BB.validate().raise_if_failed()
    res = spectral.resolution_start(inst, BB)
    assert isinstance(res, FreeResolution) and res.ranks[0] == 2
    assert tor_dims(B.algebra, BB, B_left, 2,
                    resolution=spectral.right_resolution(inst, BB, 3)) == \
        [2 * d for d in spectral.right_resolution(inst, B, 3).tor_dims(
            B_left, 2)]


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_the_battery_resolves_no_split_module_freely(fixture, monkeypatch):
    # free_resolution is called on the modules without a splitting
    # idempotent only, once each, continuing the begun resolution
    called = []
    original = spectral.free_resolution

    def recorded(R, module, side, length, **kwargs):
        called.append((module, kwargs.get("begun")))
        return original(R, module, side, length, **kwargs)

    monkeypatch.setattr(spectral, "free_resolution", recorded)
    inst = build_instance(load_fixture(fixture))
    assert spectral.run_all_checks(inst)[0].ok
    modules = right_modules(inst)
    free = [modules[label] for label in sorted(modules)
            if label not in SPLIT_ROUTES[fixture]]
    assert sorted(map(id, (X for X, _ in called))) == sorted(map(id, free))
    assert all(begun is spectral.resolution_start(inst, X)
               for X, begun in called)


@pytest.mark.parametrize("style", ["greedy", "greedy_reversed", "fat"])
def test_a_resumed_resolution_equals_one_built_at_once(style):
    # continued from degree 0 and from degree 1, the columns of the last
    # degree are formed again from its generators; left and right modules
    inst = build_instance(load_fixture("z3_kappa2_f3.json"))
    _, B = inst.b_over_kpar
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    env, whole = env_resolution(lam, 3, style=style)
    for R, X, side, want in [
            (B.algebra, B, "right",
             free_resolution(B.algebra, B, "right", 3, style=style)),
            (env, whole.module, "left", whole)]:
        for first in (0, 1):
            res = free_resolution(R, X, side, first, style=style)
            assert free_resolution(R, X, side, 3, begun=res) is res
            assert (res.ranks, res.gen_images) == \
                (want.ranks, want.gen_images)


def test_splitting_system_is_checked_against_the_cap():
    # B over kappa_par Z2 (dim 3): one generator of dim 2 and one kappa
    inst = build_instance(load_fixture("z2_dual_q.json"))
    _, B = inst.b_over_kpar
    begun = FreeResolution(B.algebra, B, "right").extend(1)
    assert splitting_idempotent(begun, 5) is not None
    with pytest.raises(SizeLimit) as err:
        splitting_idempotent(begun, 4)
    assert str(err.value) == ("splitting idempotent of module over kpar(Z2): "
                              "2 + 1 x 3 = 5 equations exceed cap 4")


def _add_a_non_cycle(images_of, gens, cols):
    return gens + [{0: 1}], cols + images_of({0: 1})


def _drop_the_last_generator(images_of, gens, cols):
    return gens[:-1], cols[:-len(images_of(gens[-1]))]


@pytest.mark.parametrize("corrupt, message", [
    (_add_a_non_cycle, "d.d != 0 at degree 1"),
    (_drop_the_last_generator, "resolution not exact at degree 1"),
], ids=["not-a-cycle", "missing-generator"])
def test_free_resolution_gates_reject_corrupted_generators(
        monkeypatch, corrupt, message):
    # the generators of F_1 and their columns of d_1 are corrupted as they
    # leave the selection (its second call; the first picks F_0)
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    original = homology._select_generators
    calls = []

    def select(candidates, images_of, *args, **kw):
        gens, cols = original(candidates, images_of, *args, **kw)
        calls.append(candidates)
        if len(calls) == 2:
            return corrupt(images_of, gens, cols)
        return gens, cols

    monkeypatch.setattr(homology, "_select_generators", select)
    with pytest.raises(InvalidInput, match=message):
        env_resolution(lam, 2)
    assert len(calls) == 2


def test_free_resolution_rejects_a_module_whose_unit_acts_as_zero():
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    zero = ModuleData(lam, 2, left=[[{}, {}] for _ in range(lam.dim)])
    with pytest.raises(InvalidInput, match="augmentation not surjective"):
        free_resolution(lam, zero, "left", 1)


def test_free_resolution_rejects_an_unknown_style():
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    with pytest.raises(InvalidInput, match=r"unknown resolution style "
                       r"'fatt': expected one of greedy, greedy_reversed, "
                       r"fat"):
        env_resolution(lam, 1, style="fatt")


def test_free_resolution_size_budget(monkeypatch):
    lam = build_instance(load_fixture("z2_dual_q.json")).lam.algebra
    # F_1 = (Lambda^e)^2 has dim 2 * 16 = 32
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 32)
    env_resolution(lam, 1)
    monkeypatch.setattr(homology, "DEFAULT_CHAIN_CAP", 31)
    with pytest.raises(SizeLimit, match="degree 1: 2 generators x dim 16"):
        env_resolution(lam, 1)


def test_kron():
    # the Kronecker product behind the absolute reference T_g, on kernel rows
    A = [{0: 1, 1: 2}, {1: 1}]
    B = [{0: 3}]
    assert sp_kron(A, B, 1, 0) == [{0: 3, 1: 6}, {1: 3}]
    I2 = _sp_identity(2)
    assert sp_kron(I2, I2, 2, 0) == _sp_identity(4)


def _atoms(lam):
    """The atoms of the 1_g in the base algebra A of lam."""
    return orthogonalize_idempotents(lam.theta.algebra, lam.theta.one)


def _chain_action(lam, M, xi, sdd, max_q):
    """The gated chain-level action on A's relative complex over the atoms
    of the 1_g, with coefficients in M."""
    bar = relative_bar_complex(lam.theta.algebra, m_as_a_bimodule(lam, M),
                               _atoms(lam), max_q)
    return diagonal_action(bar, _crossed_action_matrices(lam, M, xi), sdd,
                           max_q)


def _z3_tower():
    G, theta = z3_kappa2_action()
    lam = build_crossed_product(theta)
    sigma = theta.sigma
    xi, sdd = xi_sigma_double_prime(sigma)
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(sigma, monoid=kp.monoid)
    ksdd = build_kpar_idempotent(sdd, monoid=kp.monoid)
    return G, theta, lam, sigma, xi, sdd, kp, ks, ksdd


def test_diagonal_chain_action_gates():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod = _chain_action(lam, M, xi, sdd, 2)
    assert gmod.complex.validate().ok


def test_diagonal_chain_action_universal_instances():
    for lam_val in (None, F(2)):
        G, theta = z2_universal(lam_val)
        lam = build_crossed_product(theta)
        sigma = theta.sigma
        xi, sdd = xi_sigma_double_prime(sigma)
        M = regular_bimodule(lam.algebra)
        gmod = _chain_action(lam, M, xi, sdd, 2)


def test_diagonal_action_global_case_classical():
    # global action, sigma = 1: T_g is the classical diagonal action
    G, theta = z2_dual_numbers()
    lam = build_crossed_product(theta)
    xi = EquivalenceWitness(G, QQ, [QQ.one, QQ.one])
    sdd = trivial_factor_set(G, QQ)
    M = regular_bimodule(lam.algebra)
    gmod = _chain_action(lam, M, xi, sdd, 2)
    # T_t must be invertible in the global case (it is a group action)
    for q in range(3):
        T = gmod.action[1][q]
        assert len(T) == gmod.complex.dims[q]
        assert _rank_of(QQ, [dict(row) for row in T]) == len(T)


def test_induced_action_on_homology_z3():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod = _chain_action(lam, M, xi, sdd, 2)
    bsig, omega = build_B_sigma_omega(kp, ks, ksdd=ksdd)
    # annihilators: dead idempotent monomials of kpar, as kpar vectors
    ann = []
    B_positions = kp.idempotent_positions()
    for kv in bsig.ker_zeta_basis:
        ann.append({B_positions[i]: c for i, c in kv.items()})
    assert ann                                  # the Z3 instance has ker zeta
    for q in (0, 1):
        hd, mod = induced_action_on_homology(gmod, q, kp,
                                             annihilator_vectors=ann)
        assert mod.validate().ok
        # [1] acts as the identity
        assert mod.left_matrix_of(kp.algebra.unit) == _sp_identity(hd.dim)
    # degree 0: H_0 = M/[A, M]; the action must match the quotient action
    MA = m_as_a_bimodule(lam, M)
    hd0, mod0 = induced_action_on_homology(gmod, 0, kp)
    assert hd0.dim == commutator_quotient(MA).dim


def test_degree_zero_matches_tensor_formula():
    # [g].(a (x) m) = [g].a (x) [g].m on A (x)_{A^e} M agrees with the
    # induced degree-0 action on M/[A,M]
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod = _chain_action(lam, M, xi, sdd, 1)
    from parhox.algebras import enveloping
    A = theta.algebra
    MA = m_as_a_bimodule(lam, M)
    env = enveloping(A)
    # the reference is built over A^e itself: A as right A^e-module,
    # a.(b (x) c) = c a b, and M as left one, (b (x) c).m = b m c
    K = QQ
    right, left = [], []
    for i in range(A.dim):
        for j in range(A.dim):
            Lj = A.left_mult_matrix(A.basis_vector(j))
            Ri = A.right_mult_matrix(A.basis_vector(i))
            right.append(_sp_matmul(Lj, Ri, 0))
            left.append(_sp_matmul(MA.left[i], MA.right[j], 0))
    T = tensor_over_algebra(env, ModuleData(env, A.dim, right=right),
                            ModuleData(env, M.dim, left=left))
    hd0, mod0 = induced_action_on_homology(gmod, 0, kp)
    assert T.dim == hd0.dim
    # comparison iso phi0: a (x) m -> class(a.m)
    my = M.dim
    pure_images = []
    for ia in range(A.dim):
        row = []
        avec = A.basis_vector(ia)
        for im in range(M.dim):
            row.append(hd0.express(gmod.basis.project_c0(
                MA.act_left(avec, {im: 1}))))
        pure_images.append(row)
    phi0 = T.map_from(pure_images, hd0.dim)
    assert rank(K, densify(K, phi0, T.dim)) == hd0.dim
    AG, MG = _crossed_action_matrices(lam, M, xi)
    AGd = [densify(K, X, A.dim) for X in AG]
    MGd = [densify(K, X, M.dim) for X in MG]
    for g in range(G.n):
        def amb_map(vec, g=g):
            out = [K.zero] * len(vec)
            for idx, c in enumerate(vec):
                if c == K.zero:
                    continue
                ia, im = idx // my, idx % my
                ga = [AGd[g][r][ia] for r in range(A.dim)]
                gm = [MGd[g][r][im] for r in range(M.dim)]
                for r, a in enumerate(ga):
                    if a == K.zero:
                        continue
                    for s, b in enumerate(gm):
                        if b != K.zero:
                            out[r * my + s] = K.add(out[r * my + s],
                                                    K.mul(c, K.mul(a, b)))
            return out
        Tg_tensor = T.tensor_map(AG[g], MG[g])
        # the hand-written ambient map is the dense reference
        assert densify(K, Tg_tensor, T.dim) == \
            dense_map_on_quotient(T, amb_map)
        Tg_h0 = mod0.left_matrix_of(kp.monomial_vector(kp.monoid.gen(g)))
        assert _sp_matmul(phi0, Tg_tensor, 0) == _sp_matmul(Tg_h0, phi0, 0)


def test_diagonal_cochain_action_gates():
    # the cochain action with coefficients in M is the transposed chain
    # action with coefficients in M*; d.d = 0 and the gate run at
    # construction
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = dual_bimodule(regular_bimodule(lam.algebra))
    gmod = _chain_action(lam, M, xi, sdd, 2)
    assert gmod.gate(G).ok


def test_hom_A_module_structure():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    carrier, mod = hom_A_module_structure(
        regular_bimodule(theta.algebra), m_as_a_bimodule(lam, M),
        _crossed_action_matrices(lam, M, xi), ksdd)
    assert mod.validate().ok
    assert mod.left_matrix_of(ksdd.algebra.unit) == _sp_identity(len(carrier))
    # carrier = centralizer of A in M
    A = theta.algebra
    MA = m_as_a_bimodule(lam, M)
    K = QQ
    cent = 0
    rows = []
    for i in range(A.dim):
        L = densify(K, MA.left[i], M.dim)
        R = densify(K, MA.right[i], M.dim)
        rows.append([[K.sub(L[r][c], R[r][c]) for c in range(M.dim)]
                     for r in range(M.dim)])
    flat = []
    for mat in rows:
        flat.extend(mat)
    cent = M.dim - rank(K, transpose(flat))
    assert len(carrier) == cent


def test_hom_A_classical_case():
    G, theta = z2_dual_numbers()
    lam = build_crossed_product(theta)
    xi = EquivalenceWitness(G, QQ, [QQ.one, QQ.one])
    kp = build_kpar(G, QQ)
    M = regular_bimodule(lam.algebra)
    carrier, mod = hom_A_module_structure(
        regular_bimodule(theta.algebra), m_as_a_bimodule(lam, M),
        _crossed_action_matrices(lam, M, xi), kp)
    assert mod.validate().ok


# -- the face-table bar builder against a per-column reference --------------

def ref_bar_differentials(R, M, atoms, max_q):
    """The relative bar differentials built column by column, every face
    recomputed from R.mul and the module actions on the lifted chain and
    read in the block coordinates of the basis."""
    K = R.field
    bb = homology._BarBasis(R, M, atoms)
    bb.build(max_q)
    w, mb = bb.w, bb.mb
    dims = [len(chains) for chains in bb.chains]
    diffs = {}
    for q in range(1, max_q + 1):
        index = bb.index[q - 1]
        mat = zeros(K, dims[q - 1], dims[q])
        for col, (k, *xs) in enumerate(bb.chains[q]):
            mvec = mb.lift[k]
            lifted = [w.lift[x] for x in xs]
            face = M.act_right(mvec, lifted[0])
            for j, c in mb.coords(mb.src[k], w.tgt[xs[0]], face).items():
                r = index[(j, *xs[1:])]
                mat[r][col] = K.add(mat[r][col], c)
            sign = K.one
            for i in range(q - 1):
                sign = K.neg(sign)
                prod = w.coords(w.src[xs[i]], w.tgt[xs[i + 1]],
                                R.mul(lifted[i], lifted[i + 1]))
                for y, c in prod.items():
                    r = index[(k, *xs[:i], y, *xs[i + 2:])]
                    mat[r][col] = K.add(mat[r][col], K.mul(sign, c))
            sign = K.one if q % 2 == 0 else K.neg(K.one)
            face = M.act_left(lifted[-1], mvec)
            for j, c in mb.coords(w.src[xs[-1]], mb.tgt[k], face).items():
                r = index[(j, *xs[:-1])]
                mat[r][col] = K.add(mat[r][col], K.mul(sign, c))
        diffs[q] = mat
    return diffs


def _same_entries(K, cc, want):
    """cc.d densifies to the reference tables and its kernel rows are
    normalized (no stored zeros, residues in [0, p) over F_p)."""
    assert cc.d.keys() == want.keys()
    for q in want:
        ncols = cc.dims[q]
        assert densify(K, cc.d[q], ncols) == want[q], q
        assert cc.d[q] == _sparse_matrix(K, want[q]), q


@pytest.mark.parametrize("fixture", ["z2_dual_q.json", "z3_kappa2_f3.json",
                                     "v4_partial_q.json",
                                     "z2_trivial_f2.json"])
def test_face_tables_match_per_column_builders(fixture):
    inst = build_instance(load_fixture(fixture))
    A, MA = inst.theta.algebra, inst.m_over_a
    Lam = inst.lam.algebra
    K = A.field
    for R, M, atoms, max_q in ((A, MA, inst.a_atoms, 3),
                               (A, MA, [A.unit], 3),
                               (Lam, inst.M, inst.lam_atoms, 3),
                               (Lam, inst.M, [Lam.unit], 2)):
        cc, _ = relative_bar_complex(R, M, atoms, max_q)
        _same_entries(K, cc, ref_bar_differentials(R, M, atoms, max_q))


def test_bar_basis_has_no_tuples_when_the_reduced_basis_is_empty():
    # the base field over S = k.1: Rbar = R / k.1 = 0, so C_q = 0 for q >= 1
    A = product_field_algebra(QQ, 1)
    bb = homology._BarBasis(A, regular_bimodule(A), [A.unit])
    assert bb.w.dim == 0 and bb.dims(2) == [1, 0, 0]
    bb.build(2)
    assert bb.chains == [[(0,)], [], []]
    cc, _ = relative_bar_complex(A, regular_bimodule(A), [A.unit], 2)
    assert cc.dims == [1, 0, 0]


def test_bar_gate_rejects_a_non_bimodule_on_both_sides():
    # one changed entry of m -> m.x over Q[x]/(x^2): no longer a bimodule,
    # so d.d != 0 on the bar complex of it and of its dual, the complex
    # that the cohomology side reads
    A = dual_numbers(QQ)
    reg = regular_bimodule(A)
    right = [[dict(row) for row in R] for R in reg.right]
    right[1][0][0] = 1
    bad = ModuleData(A, reg.dim, left=reg.left, right=right)
    for M in (bad, dual_bimodule(bad)):
        with pytest.raises(ValidationFailure, match="d.d != 0"):
            relative_bar_complex(A, M, [A.unit], 2)


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_dual_bimodule_is_an_involution(fixture):
    inst = build_instance(load_fixture(fixture))
    K = inst.field
    for M in (inst.M, inst.m_over_a):
        n = M.dim
        dual = dual_bimodule(M)
        assert dual.validate().ok
        assert [densify(K, L, n) for L in dual.left] == \
            [transpose(densify(K, R, n)) for R in M.right]
        twice = dual_bimodule(dual)
        assert (twice.left, twice.right) == (M.left, M.right)


@pytest.mark.parametrize("fixture", bundled_fixtures())
def test_base_algebra_cohomology_routes_agree(fixture):
    # the tower of M* lives on A with M*|A; the battery compares the two
    # cohomology routes on Lambda only.  dim H^q(A, M) is read as
    # dim H_q(A, M*) on both routes, and in degree 0 it is
    # dim Hom_{A^e}(A, M)
    inst = build_instance(load_fixture(fixture))
    A, MA = inst.theta.algebra, inst.m_over_a
    dual = dual_bimodule(MA)
    bar = hochschild_homology_bar(A, dual, 2)
    assert bar == hochschild_homology_resolution(A, dual, 2)
    assert bar[0] == len(bimodule_hom(inst.a_regular, MA))
    if fixture == "z2_dual_q.json":
        assert bar == [3, 2, 2]


# -- the chain-action gate rejects corrupted actions -----------------------

def _violations(gmod, group):
    return {v[0] for v in gmod.gate(group).violations}


def _coefficient(lam, dual):
    """The regular bimodule of lam, or its dual M*."""
    M = regular_bimodule(lam.algebra)
    return dual_bimodule(M) if dual else M


# dual: the coefficient is M* (the cohomology side) rather than M
@pytest.mark.parametrize("dual", [False, True])
def test_chain_action_gate_rejects_a_changed_entry(dual):
    # on the absolute tower of tests/conftest.py: the relative C_1 of this
    # instance is 0
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = _coefficient(lam, dual)
    gmod = absolute_diagonal_action(lam, M, m_as_a_bimodule(lam, M), xi, sdd,
                                    2)
    assert _violations(gmod, G) == set()
    # one entry of T_t on C_1, in a column that the differential out of
    # C_1 does not kill
    d = gmod.complex.d[1]
    r = min(c for row in d for c in row)
    action = [[[dict(row) for row in T] for T in mats]
              for mats in gmod.action]
    bump(QQ, action[1][1], r, r)
    bad = GModuleOnChains(gmod.complex, action, sdd)
    names = _violations(bad, G)
    assert "equivariance" in names
    assert {"left relation", "right relation"} <= names


def test_chain_action_gate_rejects_a_changed_sigma_pattern():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod = _chain_action(lam, M, xi, sdd, 2)
    t, t2 = 1, G.inv(1)
    assert sdd(t, t2) != QQ.zero

    def pattern(g, h):
        return QQ.zero if (g, h) == (t, t2) else sdd(g, h)

    bad = GModuleOnChains(gmod.complex, gmod.action, pattern)
    names = _violations(bad, G)
    # T_{t^2} T_1 = T_{t^2} is not zero, so the zero relation fails too
    assert {"left relation", "right relation", "zero relation"} <= names
    assert "equivariance" not in names


# the cochain action with coefficients in M is the transposed chain action
# with coefficients in M*, so the second case runs on M*
@pytest.mark.parametrize("dual", [False, True],
                         ids=["diagonal_chain_action",
                              "diagonal_cochain_action"])
def test_diagonal_action_with_a_wrong_xi_is_rejected(dual):
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = _coefficient(lam, dual)
    wrong = EquivalenceWitness(G, QQ, [QQ.one, xi(1) * 2, xi(2)])
    with pytest.raises(EquivarianceFailure):
        _chain_action(lam, M, wrong, sdd, 2)


# -- the S-relative bar complexes against the absolute references ----------

PROBLEMS = bundled_fixtures() + ["m2_z2_q.json"]
# the largest absolute chain space the reference may build
ABSOLUTE_BUDGET = 10000


@lru_cache(maxsize=None)
def problem(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return build_instance(parse_spec_file(path) if os.path.exists(path)
                          else load_fixture(name))


def bar_routes(inst):
    """(label, R, M, atoms): every algebra a bar route of the battery runs
    on, with the atoms it takes, and with M and M*."""
    routes = []
    for dual in (False, True):
        M, MA = inst.coefficient(dual)
        routes += [("Lambda", inst.lam.algebra, M, inst.lam_atoms),
                   ("A", inst.theta.algebra, MA, inst.a_atoms)]
    for label, ktw in (("kpar", inst.kpar), ("kpar^sigma", inst.ks)):
        reg = regular_bimodule(ktw.algebra)
        atoms = spectral._e_atoms(ktw)
        routes += [(label, ktw.algebra, X, atoms)
                   for X in (reg, dual_bimodule(reg))]
    return routes


@pytest.mark.parametrize("name", PROBLEMS)
def test_relative_homology_equals_absolute_homology(name):
    # H_q for q <= 3, or as far as the absolute normalized complex stays
    # within ABSOLUTE_BUDGET; Q, F_2, F_3 and F_7 all occur
    inst = problem(name)
    for label, R, M, atoms in bar_routes(inst):
        n = max(n for n in range(4)
                if M.dim * (R.dim - 1) ** (n + 1) <= ABSOLUTE_BUDGET)
        rel = hochschild_homology_bar(R, M, n, atoms=atoms)
        assert rel == absolute_hochschild_dims(R, M, n), (label, M.name)
        cc, _ = relative_bar_complex(R, M, atoms, n + 1)
        # the relative complex is never larger than the absolute one
        assert all(d <= M.dim * (R.dim - 1) ** q
                   for q, d in enumerate(cc.dims))


@pytest.mark.parametrize("name", PROBLEMS)
def test_relative_tower_matches_the_absolute_tower(name):
    # the same H_q, q <= 1, and the same Tor dims of the induced modules
    # against every resolution style
    inst = problem(name)
    G, kpar = inst.group, inst.kpar
    _, B_right = inst.b_over_kpar
    styles = ["greedy", "greedy_reversed"] + (["fat"] if kpar.dim <= 8
                                              else [])
    resolutions = [free_resolution(kpar.algebra, B_right, "right", 3,
                                   style=s) for s in styles]
    ann = inst.ker_zeta_in_kpar()
    for dual in (False, True):
        M, MA = inst.coefficient(dual)
        absolute = absolute_diagonal_action(inst.lam, M, MA, inst.xi,
                                            inst.sigma_dd, 2)
        assert absolute.gate(G).ok
        _, tower = spectral.module_tower(inst, 1, dual)
        for q in range(2):
            hd, mod, _ = tower[q]
            hd_abs, mod_abs = induced_action_on_homology(
                absolute, q, kpar, annihilator_vectors=ann)
            assert hd.dim == hd_abs.dim
            for res in resolutions:
                assert tor_dims(kpar.algebra, B_right, mod, 2,
                                resolution=res) == \
                    tor_dims(kpar.algebra, B_right, mod_abs, 2,
                             resolution=res)


def _coarsened(R, atoms, labels):
    """The sums of the atoms that share a label, one per label."""
    return [_sp_sum([(1, e) for e, l in zip(atoms, labels) if l == label],
                    R.p) for label in sorted(set(labels))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_coarsening_of_the_atoms_gives_the_same_homology(data):
    name = data.draw(st.sampled_from(["z3_kappa2_f3.json", "v4_partial_q.json",
                                      "z2_twist4_f7.json",
                                      "z2_trivial_f2.json", "m2_z2_q.json"]))
    inst = problem(name)
    dual = data.draw(st.booleans())
    M, MA = inst.coefficient(dual)
    label, R, X, atoms = data.draw(st.sampled_from(
        [("Lambda", inst.lam.algebra, M, inst.lam_atoms),
         ("A", inst.theta.algebra, MA, inst.a_atoms)]))
    labels = data.draw(st.lists(st.integers(0, len(atoms) - 1),
                                min_size=len(atoms), max_size=len(atoms)))
    want = hochschild_homology_bar(R, X, 2, atoms=atoms)
    # one label for all is S = k.1
    assert hochschild_homology_bar(
        R, X, 2, atoms=_coarsened(R, atoms, labels)) == want


def test_relative_bar_complex_rechecks_its_idempotents():
    A = product_field_algebra(QQ, 2)
    M = regular_bimodule(A)
    e0, e1 = {0: 1}, {1: 1}
    assert hochschild_homology_bar(A, M, 2, atoms=[e0, e1]) == [2, 0, 0]
    for bad in ([], [e0], [A.unit, e0], [{0: 2}, {0: -1, 1: 1}],
                [e0, e1, {}]):
        with pytest.raises(ValidationFailure, match="idempotents of"):
            relative_bar_complex(A, M, bad, 2)


def test_relative_size_limit_names_its_stage():
    inst = problem("z3_kappa2_q.json")
    with pytest.raises(SizeLimit) as err:
        relative_bar_complex(inst.lam.algebra, inst.M, inst.lam_atoms, 4,
                             cap=1)
    assert str(err.value) == (
        "relative bar complex of A*Z3 with A*Z3 regular over 2 idempotents: "
        "dims [2, 2, 2, 2, 2] exceed cap 1")


def test_degree_zero_inclusion_and_projection():
    # C_0 = sum_i e_i M e_i: the projection m -> sum_i e_i m e_i is the
    # identity on the included C_0, and m minus it lies in [A, M]
    inst = problem("v4_partial_q.json")
    gmod, tower = spectral.module_tower(inst, 0)
    c0 = gmod.basis
    MA = inst.m_over_a
    n = gmod.complex.dims[0]
    for r in range(n):
        assert c0.project_c0(c0.include_c0({r: 1})) == {r: 1}
    comm = commutator_quotient(MA)
    for m in range(MA.dim):
        diff = _sp_sum([(1, {m: 1}),
                        (-1, c0.include_c0(c0.project_c0({m: 1})))],
                       MA.algebra.p)
        assert not comm.project(diff)
