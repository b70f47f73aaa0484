"""The sparse module-axiom and chain-action gates against the dense loops
they replaced, kept here as references (run on densified copies of the
kernel rows): same `violations` (content and order) and same `ok`, on valid
and corrupted inputs over Q, F_2, F_3, F_7."""

import json
import os
from functools import lru_cache

import pytest

from conftest import (absolute_diagonal_action, assert_kernel_rows, bump,
                      dense_row, densify, dual_numbers, sidedness)
from parhox.algebras import (ModuleData, StructureAlgebra, ValidationReport,
                             regular_bimodule)
from parhox.fields import QQ, PrimeField
from parhox.homology import GModuleOnChains
from parhox.linalg import _char, _sp_sum, _sparse_matrix
from parhox.problems import (build_instance, bundled_fixtures, fixture_dir,
                             load_fixture, parse_spec)
from parhox.spectral import module_tower

FIXTURES = ["z2_dual_q.json", "z3_kappa2_q.json", "v4_partial_q.json",
            "z2_dual_f2.json", "z2_trivial_f2.json", "z3_kappa2_f3.json",
            "z2_twist4_f7.json"]
# one fixture per field, small enough for the dense references
SMALL = ["z2_dual_q.json", "z2_dual_f2.json", "z3_kappa2_f3.json",
         "z2_twist4_f7.json"]
FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


# -- the dense references ---------------------------------------------------

def dense_matmul(K, A, B):
    """Row-by-column product of dense matrices over K (zero terms
    skipped)."""
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    n = len(B[0])
    out = []
    for row in A:
        new = [K.zero] * n
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        new[j] = K.add(new[j], K.mul(a, b))
        out.append(new)
    return out


def dense_identity(K, n):
    return [[K.one if r == s else K.zero for s in range(n)] for r in range(n)]


def dense_matrix_of(K, mats, a_vec, n):
    M = [[K.zero] * n for _ in range(n)]
    for i, c in enumerate(a_vec):
        if c:
            for r in range(n):
                row = mats[i][r]
                M[r] = [K.add(M[r][s], K.mul(c, row[s])) for s in range(n)]
    return M


def dense_module_validate(mod):
    """The dense ModuleData.validate loop: full products, right-hand sides
    built cell by cell."""
    rep = ValidationReport(f"module {mod.name} over {mod.algebra.name}")
    A = mod.algebra
    K = A.field
    d, n = A.dim, mod.dim
    idm = dense_identity(K, n)

    def dense(mats):
        return None if mats is None else [densify(K, X, n) for X in mats]

    left, right = dense(mod.left), dense(mod.right)
    for side, mats in (("left", left), ("right", right)):
        if mats is None:
            continue
        if dense_matrix_of(K, mats, dense_row(K, A.unit, d), n) != idm:
            rep.fail(f"{side} unit")
        for i in range(d):
            for j in range(d):
                lhs = dense_matmul(K, mats[i], mats[j]) if side == "left" \
                    else dense_matmul(K, mats[j], mats[i])
                rhs = [[K.zero] * n for _ in range(n)]
                for k, c in A.mul_basis(i, j):
                    for r in range(n):
                        rowk = mats[k][r]
                        rhs[r] = [K.add(rhs[r][s], K.mul(c, rowk[s]))
                                  for s in range(n)]
                if lhs != rhs:
                    rep.fail(f"{side} action", i, j)
    if left is not None and right is not None:
        for i in range(d):
            for j in range(d):
                if dense_matmul(K, left[i], right[j]) != \
                   dense_matmul(K, right[j], left[i]):
                    rep.fail("actions do not commute", i, j)
    return rep


def dense_gate(gmod, group):
    """The dense GModuleOnChains.gate loop, on dense copies of the kernel
    rows of every d[q] and T_g."""
    cc = gmod.complex
    K = cc.field
    dims = cc.dims
    d = {q: densify(K, rows, dims[q]) for q, rows in cc.d.items()}
    action = [[densify(K, T, dims[q]) for q, T in enumerate(mats)]
              for mats in gmod.action]
    rep = ValidationReport("chain-level diagonal action")
    top = len(action[0]) - 1

    def scale(c, X):
        return [[K.mul(c, a) for a in row] for row in X]

    def is_zero(X):
        return all(a == K.zero for row in X for a in row)

    for g in range(len(action)):
        for q in range(1, top + 1):
            if dense_matmul(K, d[q], action[g][q]) != \
               dense_matmul(K, action[g][q - 1], d[q]):
                rep.fail("equivariance", g, q)
    for q in range(top + 1):
        if action[0][q] != dense_identity(K, dims[q]):
            rep.fail("unit action", q)
        for g in range(group.n):
            Tg = action[g][q]
            Tgi = action[group.inv(g)][q]
            for h in range(group.n):
                Th = action[h][q]
                Tgh = action[group.mul(g, h)][q]
                Thi = action[group.inv(h)][q]
                s = gmod.sigma_pattern(g, h)
                TgTh = dense_matmul(K, Tg, Th)
                TgiTgh = dense_matmul(K, Tgi, Tgh)
                TghThi = dense_matmul(K, Tgh, Thi)
                if dense_matmul(K, Tgi, TgTh) != scale(s, TgiTgh):
                    rep.fail("left relation", g, h, q)
                if dense_matmul(K, TgTh, Thi) != scale(s, TghThi):
                    rep.fail("right relation", g, h, q)
                if s == K.zero and not (is_zero(TgiTgh) and is_zero(TghThi)):
                    rep.fail("zero relation", g, h, q)
    return rep


# -- the modules and actions under test --------------------------------------

@lru_cache(maxsize=None)
def instance(fixture):
    return build_instance(load_fixture(fixture))


def fixture_modules(fixture):
    """Valid modules and bimodules that the battery validates."""
    inst = instance(fixture)
    bs_left, bs_right, _ = inst.bsig_modules_over_ksdd
    mods = [bs_left, bs_right, *inst.b_over_kpar, inst.M, inst.m_over_a]
    for dual in (False, True):
        for _, mod_kpar, mod_ksdd in module_tower(inst, 1, dual)[1]:
            mods += [m for m in (mod_kpar, mod_ksdd) if m is not None]
    return mods


def copy_of(mod, right=None, algebra=None):
    def copied(mats):
        return None if mats is None else [[dict(row) for row in M]
                                          for M in mats]
    return ModuleData(algebra or mod.algebra, mod.dim, left=copied(mod.left),
                      right=copied(right or mod.right), name=mod.name)


def changed_entry(mod, i):
    """mod with 1 added to one entry of left[i] (or right[i])."""
    bad = copy_of(mod)
    K = mod.algebra.field
    mats = bad.left if bad.left is not None else bad.right
    bump(K, mats[i], 0, mod.dim - 1)
    return bad


def wrong_unit(mod):
    """mod over the same algebra with the unit vector doubled (the zero
    vector over F_2): every product axiom holds, the unit axioms fail."""
    A = mod.algebra
    K = A.field
    unit = _sp_sum([(2, A.unit)], _char(K))
    return copy_of(mod, algebra=StructureAlgebra(K, A.dim, A.sc, unit,
                                                 name=A.name))


def conjugated_right(mod):
    """mod with its right action conjugated by P = 1 + E_{0,n-1}: still a
    right action, which in general no longer commutes with the left one."""
    K = mod.algebra.field
    n = mod.dim
    P = dense_identity(K, n)
    P[0][n - 1] = K.one
    Pinv = dense_identity(K, n)
    Pinv[0][n - 1] = K.neg(K.one)
    right = [_sparse_matrix(K, dense_matmul(K, P, dense_matmul(
        K, densify(K, R, n), Pinv))) for R in mod.right]
    return copy_of(mod, right=right)


def assert_same(got, want):
    assert got.violations == want.violations
    assert got.ok == want.ok


def universal_z4():
    """Z4 with no action over F_3: Lambda = kappa_par Z4, of dim 20."""
    with open(os.path.join(fixture_dir(), "groups", "z4.json")) as fh:
        return build_instance(parse_spec({"field": {"kind": "Fp", "p": 3},
                                          "group": json.load(fh)}))


# -- the storage format ------------------------------------------------------

@pytest.mark.parametrize("fixture", bundled_fixtures() + ["universal Z4"])
def test_instance_modules_and_homs_hold_kernel_rows(fixture):
    inst = universal_z4() if fixture == "universal Z4" else instance(fixture)
    K = inst.field
    bs_left, bs_right, iota = inst.bsig_modules_over_ksdd
    modules = [inst.M, inst.m_over_a, *inst.b_over_kpar, bs_left, bs_right,
               inst.omega_right_over_kpar, inst.omega.left_module,
               inst.omega.right_module, inst.lambda_as_bsdd[1]]
    homs = [iota, inst.kpar_to_ksdd, inst.bsig.zeta, inst.omega.projection]
    homs += [h for h in (inst.phi, inst.psi) if h is not None]
    assert (inst.phi is not None) == inst.universal
    for mod in modules:
        assert mod.left is not None or mod.right is not None
        for mats in (mod.left, mod.right):
            if mats is not None:
                assert len(mats) == mod.algebra.dim
                for X in mats:
                    assert_kernel_rows(K, X, mod.dim, mod.dim)
    for hom in homs:
        assert_kernel_rows(K, hom.images, hom.source.dim, hom.target.dim)
    # algebra elements: units, generators, the partial action, the crossed
    # product's deltas and representations, B^sigma data, homology
    # representatives
    G = inst.group
    A, lam = inst.theta.algebra, inst.lam
    elements = [(R.unit, R.dim) for R in (
        A, lam.algebra, inst.kpar.algebra, inst.ks.algebra, inst.ksdd.algebra,
        inst.bsig.algebra, inst.omega.algebra, inst.bsig.zeta.source)]
    for ktw in (inst.kpar, inst.ks, inst.ksdd):
        elements += [(v, ktw.dim) for v in ktw.gens + ktw.e_vectors]
    elements += [(v, A.dim) for v in inst.theta.one]
    elements += [(v, A.dim) for g in range(G.n)
                 for v in lam.dg_bases[g]]
    elements += [(lam.one_delta(g), lam.dim) for g in range(G.n)]
    elements += [(v, inst.bsig.algebra.dim) for v in inst.bsig.e_coords]
    elements += [(v, inst.kpar.dim) for v in inst.ker_zeta_in_kpar()]
    for dual in (False, True):
        for hd, _, _ in module_tower(inst, 1, dual)[1]:
            elements += [(v, hd.dim_space) for v in hd.reps]
    for v, n in elements:
        assert_kernel_rows(K, [v], 1, n)
    for g in range(G.n):
        assert_kernel_rows(K, inst.theta.action.theta[g], A.dim, A.dim)


# -- ModuleData.validate ------------------------------------------------------

@pytest.mark.parametrize("fixture", FIXTURES)
def test_module_validate_matches_dense_reference(fixture):
    for mod in fixture_modules(fixture):
        rep = mod.validate()
        assert rep.ok
        assert_same(rep, dense_module_validate(mod))


@pytest.mark.parametrize("fixture", SMALL)
def test_module_validate_corruptions_match_dense_reference(fixture):
    seen = set()
    for mod in fixture_modules(fixture):
        if mod.dim == 0:
            continue
        bad = [changed_entry(mod, i) for i in range(mod.algebra.dim)]
        bad.append(wrong_unit(mod))
        if sidedness(mod) == "bi" and mod.dim > 1:
            bad.append(conjugated_right(mod))
        for b in bad:
            rep = b.validate()
            assert_same(rep, dense_module_validate(b))
            seen |= {v[0] for v in rep.violations}
    # between them the corruptions reach every kind of violation
    assert {"left action", "right action", "left unit", "right unit",
            "actions do not commute"} <= seen


@pytest.mark.parametrize("fixture", SMALL + ["v4_partial_q.json"])
def test_module_validate_catches_a_non_generator_corruption(fixture):
    # only the generators' products are checked when all is well; a
    # changed matrix of any other basis element still fails one of them
    seen = 0
    for mod in fixture_modules(fixture):
        others = [i for i in range(mod.algebra.dim)
                  if i not in mod.algebra.generators]
        if mod.dim == 0 or not others:
            continue
        bad = changed_entry(mod, others[-1])
        rep = bad.validate()
        assert not rep.ok
        assert_same(rep, dense_module_validate(bad))
        seen += 1
    assert seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_validate_violations_are_exact(field):
    A = dual_numbers(field)
    M = regular_bimodule(A)
    assert M.validate().ok
    # the unit vector doubled: only the two unit axioms fail
    rep = wrong_unit(M).validate()
    assert rep.violations == [("left unit",), ("right unit",)]
    # x acts on the right through P R_x P^-1: a right action, which no
    # longer commutes with the left action of x
    rep = conjugated_right(M).validate()
    assert rep.violations == [("actions do not commute", 1, 1)]
    assert_same(rep, dense_module_validate(conjugated_right(M)))
    # a changed entry of L_x: x . x = 0 and 1 . x = x . 1 = x
    rep = changed_entry(M, 1).validate()
    assert ("left action", 1, 1) in rep.violations
    assert_same(rep, dense_module_validate(changed_entry(M, 1)))


def test_module_validate_dim_zero():
    for field in FIELDS:
        A = dual_numbers(field)
        empty = [[] for _ in range(A.dim)]
        for mod in (ModuleData(A, 0, left=empty),
                    ModuleData(A, 0, right=empty),
                    ModuleData(A, 0, left=empty, right=empty)):
            rep = mod.validate()
            assert rep.ok
            assert_same(rep, dense_module_validate(mod))


# -- GModuleOnChains.gate ----------------------------------------------------

def chain_actions(fixture):
    """The battery's relative chain actions on H_*(A, M) and H_*(A, M*),
    to degree 2, then the absolute ones of tests/conftest.py."""
    inst = instance(fixture)
    gmods = [module_tower(inst, 1, dual)[0] for dual in (False, True)]
    for dual in (False, True):
        M, MA = inst.coefficient(dual)
        gmods.append(absolute_diagonal_action(inst.lam, M, MA, inst.xi,
                                              inst.sigma_dd, 2))
    return inst, gmods


def detectable_entry(gmod):
    """An r such that adding 1 to T_g at (r, r) on C_1 breaks equivariance:
    column r of d_1 or row r of d_2 is nonzero.  None when there is none;
    a change of T_g on C_1 may then leave a valid action (on the relative
    complex of z2_dual_f2 every d_q is 0, and T_t = 1 + E_rc is again an
    involution)."""
    d = gmod.complex.d
    hit = {c for row in d[1] for c in row}
    hit |= {r for r, row in enumerate(d[2]) if row}
    return min(hit, default=None)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_gate_matches_dense_reference(fixture):
    inst, gmods = chain_actions(fixture)
    for gmod in gmods:
        rep = gmod.gate(inst.group)
        assert rep.ok
        assert_same(rep, dense_gate(gmod, inst.group))


@pytest.mark.parametrize("fixture", SMALL)
def test_gate_corruptions_match_dense_reference(fixture):
    inst, gmods = chain_actions(fixture)
    G = inst.group
    changed = []
    for t, gmod in enumerate(gmods):
        K = gmod.complex.field
        # one changed entry of T_g on C_1, for every g, where the gate can
        # see it
        r = detectable_entry(gmod)
        for g in range(G.n if r is not None else 0):
            action = [[[dict(row) for row in T] for T in mats]
                      for mats in gmod.action]
            bump(K, action[g][1], r, r)
            bad = GModuleOnChains(gmod.complex, action, gmod.sigma_pattern)
            rep = bad.gate(G)
            assert not rep.ok
            assert_same(rep, dense_gate(bad, G))
            changed.append(t)
        # one nonzero sigma(g, h), g, h != 1, replaced by 0 and by twice
        # its value
        pair = next((g, h) for g in range(1, G.n) for h in range(1, G.n)
                    if gmod.sigma_pattern(g, h) != K.zero)
        for change in (lambda s: K.zero, lambda s: K.add(s, s)):
            def pattern(g, h, change=change):
                s = gmod.sigma_pattern(g, h)
                return change(s) if (g, h) == pair else s
            bad = GModuleOnChains(gmod.complex, gmod.action, pattern)
            rep = bad.gate(G)
            assert not rep.ok
            assert_same(rep, dense_gate(bad, G))
    # every absolute tower takes the changed entries; the relative ones
    # where their C_1 is seen by a differential (z2_dual_q)
    assert {2, 3} <= set(changed)
    if fixture == "z2_dual_q.json":
        assert {0, 1} <= set(changed)
