import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bump, completion_loop, dense_map_on_quotient, densify,
                      hom_matrix, product_field_algebra, r4_vanishing, rank,
                      z2_universal, z3_kappa2_action,
                      z2xz2_partial_idempotent)
from parhox.errors import (AssociativityFailure, IsomorphismFailure,
                           ValidationFailure)
from parhox.fields import QQ, PrimeField
from parhox.algebras import (AlgebraHom, ModuleData, StructureAlgebra,
                             regular_bimodule, restrict_along_hom, subalgebra_generated,
                             tensor_over_algebra)
from parhox.factor_sets import (PartialFactorSet, involution_star,
                                sigma_prime, trivial_factor_set,
                                validate_monoid_factor_set,
                                derive_sigma_from_monoid,
                                xi_sigma_double_prime)
from parhox.groups import (cyclic_group, direct_product, enumerate_exel,
                           group_from_permutations, symmetric_group)
from parhox.linalg import _char, _sp_identity, _sp_matmul, _sp_sum
from parhox import cli, partial_algebras
from parhox.problems import fixture_dir
from parhox.partial_actions import (PartialProjRepresentation,
                                    build_crossed_product, gamma_sigma)
from parhox.partial_algebras import (TwistedPartialGroupAlgebra,
                                     _associativity_defect, _build_table,
                                     _close_vanishing, _cocycle_seeds,
                                     _light_generators, _table_defect,
                                     b_sigma_module_structures, build_B_sigma_omega,
                                     build_kpar, build_kpar_idempotent,
                                     build_kpar_sigma, check_defining_relations,
                                     lambda_as_bsdd_module,
                                     monoid_factor_set_from_twisted,
                                     monomial_projection_hom, opposite_iso,
                                     phi_psi_crossed_iso, universal_hom)


def F(x, y=1):
    return Fraction(x, y)


def z2_twist(lam, field=QQ):
    G = cyclic_group(2)
    return PartialFactorSet(G, field, [[field.one, field.one],
                                       [field.one, lam]], name="lam")


def z3_partial_sigma():
    G = cyclic_group(3)
    o, z = QQ.one, QQ.zero
    return PartialFactorSet(G, QQ, [[o, o, o], [o, z, o], [o, o, z]],
                            name="z3partial")


def test_build_kpar_dims():
    assert build_kpar(cyclic_group(2), QQ).dim == 3
    assert build_kpar(cyclic_group(3), QQ).dim == 8
    assert build_kpar(cyclic_group(1), QQ).dim == 1
    kp = build_kpar(cyclic_group(3), QQ)
    assert len(kp.idempotent_positions()) == 4


def test_kpar_sigma_trivial_matches_kpar():
    for G in (cyclic_group(2), cyclic_group(3)):
        kp = build_kpar(G, QQ)
        ks = build_kpar_sigma(trivial_factor_set(G, QQ), monoid=kp.monoid)
        assert ks.surviving == kp.surviving
        assert ks.algebra.sc == kp.algebra.sc


def test_kpar_sigma_trivial_matches_kpar_d4():
    # the first nonabelian order-8 case: |S(D4)| = 576, 2.65M triples in
    # Light's test
    D4 = group_from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]], name="D4")
    K = PrimeField(3)
    kp = build_kpar(D4, K)
    ks = build_kpar_sigma(trivial_factor_set(D4, K), monoid=kp.monoid)
    assert kp.dim == 576 and ks.vanished == set()
    assert ks.surviving == kp.surviving
    assert ks.algebra.sc == kp.algebra.sc


def test_kpar_sigma_z2_twist():
    ks = build_kpar_sigma(z2_twist(F(5)))
    assert ks.dim == 3
    t = ks.gen_vector(1)
    e = ks.e_vector(1)
    lam_e = {k: 5 * c for k, c in e.items()}
    assert ks.algebra.mul(t, t) == lam_e            # [t]^2 = lam e_t
    assert ks.algebra.mul(e, t) == t                # e_t [t] = [t]
    assert check_defining_relations(ks).ok


def test_kpar_sigma_z3_partial():
    ks = build_kpar_sigma(z3_partial_sigma())
    assert ks.dim == 5
    assert check_defining_relations(ks).ok
    # canonical representation has sigma as factor set
    can = ks.canonical_representation()
    assert can.validate(factor_set_property=True).ok
    assert can.zero_pattern_equivalences().ok


def test_kpar_sigma_dead_letters():
    # sigma(t, t) = 0 on Z2 kills [t] entirely
    G = cyclic_group(2)
    sigma = PartialFactorSet(G, QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])
    ks = build_kpar_sigma(sigma)
    assert ks.dim == 1


def test_kpar_idempotent_oracle():
    # idempotent route and rewrite route agree exactly
    cases = []
    G3 = cyclic_group(3)
    cases.append(z3_partial_sigma())
    _, theta = z2xz2_partial_idempotent()
    cases.append(theta.sigma)
    cases.append(trivial_factor_set(cyclic_group(2), QQ))
    for sigma in cases:
        a = build_kpar_sigma(sigma)
        b = build_kpar_idempotent(sigma)
        assert a.surviving == b.surviving
        assert a.algebra.sc == b.algebra.sc


def test_kpar_idempotent_v4_dim():
    _, theta = z2xz2_partial_idempotent()
    ks = build_kpar_idempotent(theta.sigma)
    assert ks.dim == 5


def test_defining_relations_exhaustive():
    for sigma in (z2_twist(F(2)), z2_twist(F(1, 3)), z3_partial_sigma(),
                  z2_twist(4, field=PrimeField(7))):
        ks = build_kpar_sigma(sigma)
        assert check_defining_relations(ks).ok


def _changed(ks, sc=None, table=None):
    """ks with its structure constants or its sigma table replaced, the
    monomial basis kept."""
    alg = ks.algebra
    sigma = ks.sigma if table is None else \
        PartialFactorSet(ks.group, ks.field, table)
    changed = StructureAlgebra(ks.field, alg.dim, sc or alg.sc, alg.unit,
                               labels=alg.labels)
    return TwistedPartialGroupAlgebra(ks.group, ks.field, sigma, ks.monoid,
                                      ks.surviving, ks.vanished, changed)


def test_defining_relations_name_what_a_change_breaks():
    # kappa_par^sigma Z2 with sigma(t, t) = 5: basis [1], e_t, [t]
    ks = build_kpar_sigma(z2_twist(F(5)))
    (t,), (one,) = ks.gen_vector(1), ks.algebra.unit
    assert check_defining_relations(ks).violations == []
    # one structure constant: [t][1] = 2[t]
    sc = dict(ks.algebra.sc)
    sc[(t, one)] = [(t, 2)]
    assert check_defining_relations(_changed(ks, sc=sc)).violations == [
        ("left absorption", 1, 0), ("right absorption", 1, 0),
        ("left absorption", 1, 1), ("unit relation", 1)]
    # one sigma value: sigma(t, t) = 0, while [t][t] = 5 e_t and [t] != 0
    table = [list(row) for row in ks.sigma.table]
    table[1][1] = QQ.zero
    assert check_defining_relations(_changed(ks, table=table)).violations == [
        ("left absorption", 1, 1), ("right absorption", 1, 1),
        ("zero relation left", 1, 1), ("zero relation right", 1, 1),
        ("factor set property", 1, 1), ("generator zero pattern", 1)]


def test_universal_hom_identity():
    ks = build_kpar_sigma(z2_twist(F(2)))
    can = ks.canonical_representation()
    hom = universal_hom(ks, can)
    assert hom.images == _sp_identity(ks.dim)


def test_universal_hom_to_crossed_product():
    G, theta = z3_kappa2_action()
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    ks = build_kpar_sigma(theta.sigma)
    hom = universal_hom(ks, rep)
    assert hom.verify().ok
    for g in range(G.n):
        assert hom.apply(ks.gen_vector(g)) == lam.one_delta(g)


def test_universal_hom_trivial_rep():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    R = product_field_algebra(QQ, 1)
    rep = PartialProjRepresentation(R, [R.unit, R.unit],
                                    trivial_factor_set(G, QQ))
    hom = universal_hom(kp, rep)
    assert hom.verify().ok
    assert hom.images == [{0: 1}] * kp.dim


def test_opposite_iso_untwisted():
    G = cyclic_group(3)
    kp = build_kpar(G, QQ)
    hom = opposite_iso(kp, kp)       # sigma = 1 is self-star
    assert hom.is_bijective()
    for g in range(G.n):
        assert hom.apply(kp.gen_vector(g)) == kp.gen_vector(G.inv(g))


def test_opposite_iso_twisted():
    sigma = z3_partial_sigma()
    star = involution_star(sigma)
    ks = build_kpar_sigma(sigma)
    ks_star = build_kpar_sigma(star, monoid=ks.monoid)
    assert ks_star.dim == ks.dim
    hom = opposite_iso(ks_star, ks)
    assert hom.is_bijective()


def test_opposite_iso_sigma_prime_self():
    sigma = z2_twist(F(3))
    sp = sigma_prime(sigma)
    assert involution_star(sp).table == sp.table
    ks = build_kpar_sigma(sp)
    hom = opposite_iso(ks, ks)
    assert hom.is_bijective()


def test_B_sigma_omega_trivial():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(trivial_factor_set(G, QQ), monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks)
    assert bsig.algebra.dim == 2
    assert not bsig.ker_zeta_basis                   # ker zeta = 0
    assert omega.algebra.dim == kp.dim               # Omega = kpar


def test_B_sigma_omega_z3():
    G = cyclic_group(3)
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(z3_partial_sigma(), monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks)
    assert bsig.algebra.dim == 3                     # 1, e_t, e_{t^2}
    assert len(bsig.ker_zeta_basis) == 1             # e_t e_{t^2}
    assert omega.algebra.dim == 5


def test_B_sigma_z2_twist():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(z2_twist(F(7)), monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks)
    assert bsig.algebra.dim == 2


def test_extract_matches_subalgebra_generated():
    ks = build_kpar_sigma(z3_partial_sigma())
    alg, positions = ks.idempotent_subalgebra
    sub = subalgebra_generated(ks.algebra,
                               [ks.e_vector(g) for g in range(3)])
    assert sub.algebra.dim == alg.dim
    assert [ks.algebra.labels[p] for p in positions] == alg.labels


def test_phi_psi_z2_trivial():
    G = cyclic_group(2)
    ks = build_kpar_sigma(trivial_factor_set(G, QQ))
    lam, phi, psi, subres, act = phi_psi_crossed_iso(ks)
    assert ks.dim == 3 and lam.algebra.dim == 3      # dims 3 = 2 + 1
    assert subres.algebra.dim == 2


def test_phi_psi_z2_twists():
    for lam_val, field in ((F(1), QQ), (F(2), QQ), (F(1, 3), QQ),
                           (4, PrimeField(7))):
        ks = build_kpar_sigma(z2_twist(lam_val, field=field))
        lam, phi, psi, subres, act = phi_psi_crossed_iso(ks)
        K = field
        et_dt = lam.one_delta(1)
        sq = lam.algebra.mul(et_dt, et_dt)
        want = lam.delta(0, _sp_sum([(lam_val, lam.theta.one[1])], _char(K)))
        assert sq == want                            # (e_t d_t)^2 = lam e_t d_1


def test_phi_psi_z3_partial_and_v4():
    for sigma in (z3_partial_sigma(), z2xz2_partial_idempotent()[1].sigma):
        ks = build_kpar_sigma(sigma)
        lam, phi, psi, subres, act = phi_psi_crossed_iso(ks)
        assert lam.algebra.dim == ks.dim


@pytest.mark.parametrize("sigma", [
    z3_partial_sigma, lambda: z2_twist(4, field=PrimeField(7))],
    ids=["z3-partial-Q", "z2-twist-F7"])
def test_phi_psi_rejects_every_changed_entry_of_psi(sigma, monkeypatch):
    # Psi is checked only as the inverse of the verified Phi: 1 added to
    # any one entry of its matrix fails the mutual-inverse check
    ks = build_kpar_sigma(sigma())
    field = ks.field
    _, _, psi, _, _ = phi_psi_crossed_iso(ks)
    real = partial_algebras.AlgebraHom
    for j in range(psi.source.dim):
        for k in range(psi.target.dim):
            def changed(source, target, images, name=""):
                if name == "Psi":
                    images = [dict(col) for col in images]
                    bump(field, images, j, k)
                return real(source, target, images, name=name)
            monkeypatch.setattr(partial_algebras, "AlgebraHom", changed)
            with pytest.raises(IsomorphismFailure, match="mutually inverse"):
                phi_psi_crossed_iso(ks)


def test_phi_psi_trivial_group():
    G = cyclic_group(1)
    ks = build_kpar_sigma(trivial_factor_set(G, QQ))
    lam, phi, psi, _, _ = phi_psi_crossed_iso(ks)
    assert ks.dim == 1 and phi.images == _sp_identity(1)


def test_monomial_projection_and_epi():
    G = cyclic_group(3)
    kp = build_kpar(G, QQ)
    sigma = z3_partial_sigma()
    _, sdd = xi_sigma_double_prime(sigma)
    ksdd = build_kpar_idempotent(sdd, monoid=kp.monoid)
    epi = monomial_projection_hom(kp, ksdd)          # kpar ->> kpar^{sigma''}
    assert epi.verify().ok
    assert rank(QQ, hom_matrix(epi)) == ksdd.dim     # surjective


def test_b_sigma_module_structures():
    G = cyclic_group(2)
    sigma = z2_twist(F(5))
    xi, sdd = xi_sigma_double_prime(sigma)
    ks = build_kpar_sigma(sigma)
    ksdd = build_kpar_idempotent(sdd, monoid=ks.monoid)
    left, right = b_sigma_module_structures(ks, ksdd, xi)
    assert left.validate().ok and right.validate().ok
    # e_g^{sigma''} . w = e_g^sigma w  (check on w = 1)
    bsig_alg, positions = ks.idempotent_subalgebra
    one_b = bsig_alg.unit
    eg_dd = ksdd.e_vector(1)
    got = left.act_left(eg_dd, one_b)
    # e_t^sigma in B^sigma coords: it is a basis monomial
    et_pos = positions.index(ks.position[ks.monoid.e(1)])
    assert got == {et_pos: 1}
    # [1] acts as the identity
    assert left.left_matrix_of(ksdd.algebra.unit) == _sp_identity(bsig_alg.dim)


def test_b_module_conjugation_pattern_untwisted():
    # sigma = 1: [g].e_A = e_{gA + g} on the idempotent basis
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    from parhox.factor_sets import EquivalenceWitness
    xi = EquivalenceWitness(G, QQ, [QQ.one, QQ.one])
    left, right = b_sigma_module_structures(kp, kp, xi)
    B_alg, positions = kp.idempotent_subalgebra
    one_b = B_alg.unit
    t_gen = kp.monomial_vector(kp.monoid.gen(1))
    got = left.act_left(t_gen, one_b)                # [t].1 = e_t
    et_pos = positions.index(kp.position[kp.monoid.e(1)])
    assert got == {et_pos: 1}


def test_lemma_B_tensor_omega_is_B_sigma():
    # B (x)_{kpar} Omega = B^sigma as right kpar-modules, via an explicit
    # verified module isomorphism
    G = cyclic_group(3)
    sigma = z3_partial_sigma()
    kp = build_kpar(G, QQ)
    ks = build_kpar_sigma(sigma, monoid=kp.monoid)
    _, sdd = xi_sigma_double_prime(sigma)
    ksdd = build_kpar_idempotent(sdd, monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks)
    from parhox.factor_sets import EquivalenceWitness
    xi = EquivalenceWitness(G, QQ, [QQ.one] * 3)
    # B as a right kpar module (sigma = 1 tower over kpar itself)
    B_left, B_right = b_sigma_module_structures(kp, kp, xi)
    # Omega as a left kpar module via the projection
    om_reg = regular_bimodule(omega.algebra)
    om_as_kpar = restrict_along_hom(omega.projection, om_reg)
    T = tensor_over_algebra(kp.algebra,
                            ModuleData(kp.algebra, B_right.dim, right=B_right.right),
                            ModuleData(kp.algebra, om_as_kpar.dim,
                                       left=om_as_kpar.left))
    assert T.dim == bsig.algebra.dim
    # explicit map b (x) x -> zeta(b) . x, with the right kpar action on B^sigma
    bs_left, bs_right = b_sigma_module_structures(ks, ksdd, xi)
    epi = monomial_projection_hom(kp, ksdd)
    bs_right_kpar = restrict_along_hom(
        epi, ModuleData(ksdd.algebra, bs_right.dim, right=bs_right.right))
    B_alg = bsig.zeta.source
    pure_images = []
    for ib in range(B_alg.dim):
        zb = bsig.zeta.apply(B_alg.basis_vector(ib))
        row = []
        for io in range(omega.algebra.dim):
            m = omega.surviving[io]
            x_in_kpar = kp.monomial_vector(m)
            row.append(bs_right_kpar.act_right(zb, x_in_kpar))
        pure_images.append(row)
    M = T.map_from(pure_images, bsig.algebra.dim)
    assert rank(QQ, densify(QQ, M, T.dim)) == bsig.algebra.dim   # bijective
    # right kpar-module map: M . act_T(r) = act_B(r) . M for every basis r
    for r in range(kp.dim):
        rv = kp.algebra.basis_vector(r)
        act_T = T.tensor_map(None, om_as_kpar.right_matrix_of(rv))
        # the hand-written ambient map is the dense reference
        assert densify(QQ, act_T, T.dim) == dense_map_on_quotient(
            T, lambda amb, rv=rv: _amb_right(T, om_reg, omega, kp, amb, rv))
        lhs = _sp_matmul(M, act_T, 0)
        rhs = _sp_matmul(bs_right_kpar.right_matrix_of(rv), M, 0)
        assert lhs == rhs


def _amb_right(T, om_reg, omega, kp, amb, rv):
    """Right action of r on the ambient B (x) Omega: b (x) (x . r)."""
    K = QQ
    my = T.Y.dim
    out = [K.zero] * len(amb)
    act = densify(K, restrict_along_hom(omega.projection,
                                        om_reg).right_matrix_of(rv), my)
    for idx, c in enumerate(amb):
        if c != K.zero:
            ib, io = idx // my, idx % my
            col = [act[r][io] for r in range(my)]
            for r, a in enumerate(col):
                if a != K.zero:
                    out[ib * my + r] = K.add(out[ib * my + r], K.mul(c, a))
    return out


def test_monoid_factor_set_round_trip():
    for sigma in (z2_twist(F(3)), z3_partial_sigma()):
        ks = build_kpar_sigma(sigma)
        rho = monoid_factor_set_from_twisted(ks)
        assert validate_monoid_factor_set(rho).ok
        back = derive_sigma_from_monoid(rho)
        # recovers sigma on the whole table
        assert back.table == sigma.table


def test_kpar_s3_untwisted():
    G = symmetric_group(3)
    kp = build_kpar(G, QQ)
    assert kp.dim == 112
    ks = build_kpar_sigma(trivial_factor_set(G, QQ), monoid=kp.monoid)
    assert ks.algebra.sc == kp.algebra.sc


def test_pm_closure_star_and_product_revalidate():
    # star and product of validated twists revalidate against the supports
    # induced by their own constructed algebras
    from parhox.factor_sets import validate_twist
    from parhox.partial_algebras import supports_from_twisted
    for base in (z2_twist(F(3)), z3_partial_sigma()):
        for sigma in (involution_star(base), sigma_prime(base)):
            ks = build_kpar_sigma(sigma)
            sup, tsup = supports_from_twisted(ks)
            assert validate_twist(sigma, sup, tsup).ok


def test_kpar_idempotent_all_zero():
    # sigma''(g, h) = 0 off the identity kills every generator: dim 1
    G = cyclic_group(2)
    z, o = QQ.zero, QQ.one
    sigma = PartialFactorSet(G, QQ, [[o, z], [z, z]])
    ks = build_kpar_idempotent(sigma)
    assert ks.dim == 1
    ks2 = build_kpar_sigma(sigma, monoid=ks.monoid)
    assert ks2.dim == 1 and ks2.algebra.sc == ks.algebra.sc


# --- the completion loop and Light's associativity test -------------------

SMALL_GROUPS = [cyclic_group(3), direct_product(cyclic_group(2), cyclic_group(2)),
                cyclic_group(4)]
SCALARS = [(QQ, [QQ.zero, QQ.one, F(2), F(-1, 3)]),
           (PrimeField(5), list(range(5)))]


def random_sigma(rng, G, K, values):
    """A random table passing the sigma prechecks (normalized, with
    sigma(g, g^-1) = sigma(g^-1, g)); zeros anywhere else."""
    t = [[rng.choice(values) for _ in range(G.n)] for _ in range(G.n)]
    for g in range(G.n):
        t[g][0] = t[0][g] = K.one
    for g in range(G.n):
        t[G.inv(g)][g] = t[g][G.inv(g)]
    return PartialFactorSet(G, K, t)


def random_sigmas(seed, per_case):
    rng = random.Random(seed)
    for G in SMALL_GROUPS:
        monoid = enumerate_exel(G)
        for K, values in SCALARS:
            for _ in range(per_case):
                yield monoid, random_sigma(rng, G, K, values)


def table_sc(targ, scal):
    n = len(targ)
    return {(a, b): [(targ[a][b], scal[a][b])]
            for a in range(n) for b in range(n) if targ[a][b] >= 0}


# sha256 of the JSON list of the [completion log, surviving monomials] of
# the 150 completions below, in order; the defect each round adds is the
# first of Light's sweep, so this pins which one it is
COMPLETION_LOGS_SHA = \
    "46339a82da166df02cf986a0baa8b380c3ac360d4e0e22fe9cc0dd48bc7abe5b"


def test_completion_from_r4_seeds_reproduces_build():
    # Without the C seeds, the completion loop has to find every
    # vanishing monomial by itself; it must reach the same algebra.
    completed = 0
    logs = []
    for monoid, sigma in random_sigmas(seed=11, per_case=25):
        ks = build_kpar_sigma(sigma, monoid=monoid)
        _, (surviving, _, scal, targ), log = completion_loop(
            monoid, sigma, r4_vanishing(monoid, sigma))
        assert surviving == ks.surviving
        assert table_sc(targ, scal) == ks.algebra.sc
        completed += bool(log)
        logs.append([log, surviving])
    assert completed >= 50      # 99 of the 150 need completion rounds
    blob = json.dumps(logs).encode()
    assert hashlib.sha256(blob).hexdigest() == COMPLETION_LOGS_SHA


def all_sigmas(G, K, values):
    """Every table passing the sigma prechecks with sigma(g, 1) =
    sigma(1, g) = 1 and entries in `values`, zeros allowed."""
    inv = G.inv
    cells = [(g, h) for g in range(1, G.n) for h in range(1, G.n)
             if not (h == inv(g) and h < g)]
    for choice in product(values, repeat=len(cells)):
        t = [[K.one] * G.n for _ in range(G.n)]
        for (g, h), a in zip(cells, choice):
            t[g][h] = a
            if h == inv(g):
                t[h][g] = a
        yield PartialFactorSet(G, K, t)


def zero_pair_seeds(monoid, sigma):
    """For each zero pair sigma(g, h) = 0: E_{g,gh}, and [g^-1][gh] and
    [gh][h^-1] where their own scalars do not vanish."""
    G = sigma.group
    inv, mt, gen = G.inv, monoid.mul_table, monoid.gen
    seeds = set()
    for g in range(G.n):
        for h in range(G.n):
            if sigma.is_zero(g, h):
                gh = G.mul(g, h)
                seeds.add(monoid.idempotent_of_mask((1 << g) | (1 << gh)))
                if not sigma.is_zero(inv(g), gh):
                    seeds.add(mt[gen(inv(g))][gen(gh)])
                if not sigma.is_zero(gh, inv(h)):
                    seeds.add(mt[gen(gh)][gen(inv(h))])
    return seeds


def test_one_pass_is_the_completion_fixpoint_on_every_small_sigma():
    # every sigma of Z2 over F_5, Z3 over F_3 and Z2xZ2 over F_2: the one
    # pass equals the loop started from R4 alone (Lemma 1), and the
    # zero-pair seeds add nothing to the closure of R4 and C (Lemma 2)
    cases = [(cyclic_group(2), PrimeField(5)), (cyclic_group(3), PrimeField(3)),
             (direct_product(cyclic_group(2), cyclic_group(2)), PrimeField(2))]
    tables = completed = 0
    for G, K in cases:
        monoid = enumerate_exel(G)
        for sigma in all_sigmas(G, K, list(range(K.characteristic))):
            ks = build_kpar_sigma(sigma, monoid=monoid)
            r4 = r4_vanishing(monoid, sigma)
            _, (surviving, _, scal, targ), log = completion_loop(
                monoid, sigma, set(r4))
            assert surviving == ks.surviving
            assert table_sc(targ, scal) == ks.algebra.sc
            r4_c = r4 | _cocycle_seeds(monoid, sigma)
            assert _close_vanishing(monoid, sigma, set(r4_c)) == \
                _close_vanishing(monoid, sigma,
                                 r4_c | zero_pair_seeds(monoid, sigma)) == \
                ks.vanished
            tables += 1
            completed += bool(log)
    assert tables == 5 + 27 + 512
    assert completed == 77


def defective_z3_sigma():
    # sigma(1,1) sigma(2,2) = 2 != 1 = sigma(1,0) sigma(1,2): a cocycle
    # defect at (1, 1, 2), no zeros
    G = cyclic_group(3)
    o = QQ.one
    return PartialFactorSet(G, QQ, [[o, o, o], [o, F(2), o], [o, o, o]],
                            name="defective")


def test_light_gate_names_the_defect_when_the_c_seeds_are_withheld(
        monkeypatch):
    sigma = defective_z3_sigma()
    monoid = enumerate_exel(sigma.group)
    K = sigma.field
    # the first defect of the table on the R4 closure alone: the monomial
    # the completion loop adds in its first round, which V holds
    defect = _table_defect(K, monoid, _build_table(
        monoid, sigma, r4_vanishing(monoid, sigma)))
    assert defect is not None
    assert defect in build_kpar_sigma(sigma, monoid=monoid).vanished
    monkeypatch.setattr(partial_algebras, "_cocycle_seeds",
                        lambda monoid, sigma: set())
    with pytest.raises(AssociativityFailure) as exc:
        build_kpar_sigma(sigma, monoid=monoid)
    assert str(exc.value).endswith(f"monomial {monoid.label(defect)}")


def test_cli_build_kpar_reports_the_light_gate(monkeypatch, tmp_path, capsys):
    sigma = defective_z3_sigma()
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[str(a) for a in row] for row in sigma.table]))
    group = os.path.join(fixture_dir(), "groups", "z3.json")
    monkeypatch.setattr(partial_algebras, "_cocycle_seeds",
                        lambda monoid, sigma: set())
    assert cli.main(["build-kpar", group, "--sigma", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "AssociativityFailure"
    assert "does not associate" in error["message"]


def test_identity_gate_raises_when_the_identity_is_seeded(monkeypatch):
    # no sigma passing the precheck vanishes the identity (module
    # docstring); a seed step that returns it must still be caught
    sigma = defective_z3_sigma()
    monoid = enumerate_exel(sigma.group)
    monkeypatch.setattr(partial_algebras, "_cocycle_seeds",
                        lambda monoid, sigma: {monoid.identity})
    with pytest.raises(ValidationFailure,
                       match="the identity monomial vanished"):
        build_kpar_sigma(sigma, monoid=monoid)


def reference_defects(K, surviving, scal, targ):
    """Every monomial a full n^3 sweep flags: for each triple whose two
    bracketings differ as vectors, the left monomial if (xy)z != 0, else the
    right one."""
    n = len(surviving)

    def prod(u, k):
        # u = (target, scalar) or None, times basis element k on the right
        if u is None or targ[u[0]][k] < 0:
            return None
        return targ[u[0]][k], K.mul(u[1], scal[u[0]][k])

    defects = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ij = (targ[i][j], scal[i][j]) if targ[i][j] >= 0 else None
                jk = targ[j][k]
                left = prod(ij, k)
                right = None
                if jk >= 0 and targ[i][jk] >= 0:
                    right = targ[i][jk], K.mul(scal[j][k], scal[i][jk])
                if left != right:
                    defects.add(surviving[(left or right)[0]])
    return defects


def light_defect(K, monoid, table):
    surviving, pos, scal, targ = table
    gens = [pos[m] for m in (monoid.gen(g) for g in range(monoid.group.n))
            if m in pos]
    return _associativity_defect(K, surviving, scal, targ,
                                 _light_generators(targ, gens))


def changed_cell(rows, a, b, value):
    """rows with the cell (a, b) set to value in a copy of row a; the other
    rows stay the same objects, shared ones included, so the change stays
    one cell."""
    rows = list(rows)
    rows[a] = list(rows[a])
    rows[a][b] = value
    return rows


def corruptions(rng, K, table):
    """The table with one scalar changed, and with one target changed."""
    surviving, pos, scal, targ = table
    cells = [(a, b) for a in range(len(targ)) for b in range(len(targ))
             if targ[a][b] >= 0]
    a, b = rng.choice(cells)
    yield surviving, pos, changed_cell(
        scal, a, b, K.add(scal[a][b], K.one) or K.add(K.one, K.one)), targ
    a, b = rng.choice(cells)
    yield surviving, pos, scal, changed_cell(
        targ, a, b, rng.choice([t for t in range(len(targ))
                                if t != targ[a][b]]))


def test_light_test_matches_full_sweep():
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for monoid, sigma in random_sigmas(seed=3, per_case=4):
        K = sigma.field
        tables = [_build_table(monoid, sigma, r4_vanishing(monoid, sigma))]
        ks = build_kpar_sigma(sigma, monoid=monoid)
        final = _build_table(monoid, sigma, ks.vanished)
        if len(final[0]) > 1:
            tables += [final] + list(corruptions(rng, K, final))
        for table in tables:
            want = reference_defects(K, table[0], table[2], table[3])
            got = light_defect(K, monoid, table)
            assert (got is not None) == bool(want)
            assert got is None or got in want
            seen[bool(want)] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def test_light_generators_keep_unreachable_monomials():
    # [1] is the only generator; u and v are unreachable from it.  The table
    # fails associativity only at triples with u in the middle:
    # (u u) u = v u = v but u (u u) = u v = 0.
    K = QQ
    surviving = [10, 11, 12]                 # [1], u, v
    o = K.one
    targ = [[0, 1, 2], [1, 2, -1], [2, 2, -1]]
    scal = [[o, o, o], [o, o, None], [o, o, None]]
    middles = _light_generators(targ, [0])
    assert middles == [0, 1, 2]
    assert reference_defects(K, surviving, scal, targ)
    assert _associativity_defect(K, surviving, scal, targ, middles) == 12
    assert _associativity_defect(K, surviving, scal, targ, [0, 2]) is None


def one_triple_table(a, b, c, d):
    """Six monomials x0..x5 with x0 x1 = a x2, x2 x3 = b x4, x1 x3 = c x5,
    x0 x5 = d x4 and every other product 0.  The only triple with a nonzero
    bracketing is (x0, x1, x3): (x0 x1) x3 = ab x4 and x0 (x1 x3) = cd x4,
    so the table associates exactly when ab = cd."""
    targ = [[-1] * 6 for _ in range(6)]
    scal = [[None] * 6 for _ in range(6)]
    for (x, y), t, s in (((0, 1), 2, a), ((2, 3), 4, b), ((1, 3), 5, c),
                         ((0, 5), 4, d)):
        targ[x][y], scal[x][y] = t, s
    return list(range(10, 16)), scal, targ


def triple_defect(K, a, b, c, d):
    surviving, scal, targ = one_triple_table(a, b, c, d)
    return _associativity_defect(K, surviving, scal, targ, range(6))


def test_light_test_compares_scalars_exactly():
    F7 = PrimeField(7)
    # equal only as products: numerators alone give 1 * 4 != 2 * 1
    assert F(1, 2) * 4 == 2 * 1
    assert triple_defect(QQ, F(1, 2), F(4), F(2), F(1)) is None
    # different, with equal numerators: (1/2)(1/3) != (1/3)(1/3)
    assert F(1, 2) * F(1, 3) != F(1, 3) * F(1, 3)
    assert triple_defect(QQ, F(1, 2), F(1, 3), F(1, 3), F(1, 3)) == 14
    # equal only mod p: 3 * 5 = 15 = 1 in F_7
    assert 3 * 5 != 1 * 1 and F7.mul(3, 5) == F7.mul(1, 1)
    assert triple_defect(F7, 3, 5, 1, 1) is None
    assert triple_defect(F7, 3, 5, 1, 2) == 14


def field_quadruples():
    rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    fields = [(QQ, rationals)] + [
        (PrimeField(p), st.integers(0, p - 1)) for p in (2, 3, 7)]
    return st.sampled_from(fields).flatmap(
        lambda kv: st.tuples(st.just(kv[0]), *[kv[1]] * 4))


@settings(max_examples=200, deadline=None)
@given(field_quadruples())
def test_light_test_comparison_matches_field(case):
    K, a, b, c, d = case
    associates = K.mul(a, b) == K.mul(c, d)
    assert (triple_defect(K, a, b, c, d) is None) == associates


def first_reference_defect(K, surviving, scal, targ, middles):
    """The first defect of the plain sweep over the triples (x_i, a, x_k),
    a in middles, in that order, with both bracketings formed by K.mul."""
    n = len(surviving)
    for i in range(n):
        for j in middles:
            for k in range(n):
                left = right = None
                q, r = targ[i][j], targ[j][k]
                if q >= 0 and targ[q][k] >= 0:
                    left = targ[q][k], K.mul(scal[i][j], scal[q][k])
                if r >= 0 and targ[i][r] >= 0:
                    right = targ[i][r], K.mul(scal[j][k], scal[i][r])
                if left != right:
                    return surviving[(left or right)[0]]
    return None


def unit_corruptions(rng, K, monoid, table):
    """The table with a scalar of the unit monomial's row, then of its
    column, changed to 2, and with a target of its row, then of its column,
    changed to a monomial of another grade."""
    surviving, pos, scal, targ = table
    u = pos[monoid.identity]
    grade = [monoid.elements[m][1] for m in surviving]
    n = len(targ)
    others = [x for x in range(n) if x != u]
    for a, b in ((u, rng.choice(others)), (rng.choice(others), u)):
        yield surviving, pos, changed_cell(scal, a, b,
                                           K.add(K.one, K.one)), targ
        t = targ[a][b]
        yield surviving, pos, scal, changed_cell(
            targ, a, b, rng.choice([x for x in range(n)
                                    if grade[x] != grade[t]]))


def table_middles(monoid, table):
    """`_light_generators` of the table, the unit monomial included."""
    surviving, pos, scal, targ = table
    gens = [pos[m] for m in (monoid.gen(g) for g in range(monoid.group.n))
            if m in pos]
    return _light_generators(targ, gens)


def test_light_test_returns_the_first_defect_of_the_sweep():
    # the row comparison, the scalar sweeps shared by equal rows and the
    # unit monomial left out of the middles must not change which defect
    # comes first, so the completion log stays the same; a table of
    # `_build_table` shares its equal scalar rows, and each corruption
    # changes one cell in a copy of its row, so the rows that shared it
    # keep their scalars
    rng = random.Random(7)
    found = shared = 0
    for monoid, sigma in random_sigmas(seed=5, per_case=4):
        K = sigma.field
        tables = [_build_table(monoid, sigma, r4_vanishing(monoid, sigma))]
        ks = build_kpar_sigma(sigma, monoid=monoid)
        final = _build_table(monoid, sigma, ks.vanished)
        if len(final[0]) > 2:
            tables += [final] + list(corruptions(rng, K, final))
        for table in tables:
            surviving, _, scal, targ = table
            want = first_reference_defect(K, surviving, scal, targ,
                                          table_middles(monoid, table))
            assert _table_defect(K, monoid, table) == want
            found += want is not None
            shared += len({id(row) for row in scal}) < len(scal)
    assert found >= 40 and shared >= 20


def s3_twist(name, K):
    """S3 and its twist `name` of tests/data/s3_twists.json over K."""
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "s3_twists.json")) as fh:
        table = json.load(fh)[name]
    S3 = group_from_permutations([[1, 2, 0], [1, 0, 2]])
    return enumerate_exel(S3), PartialFactorSet.from_json(S3, K, table)


@pytest.mark.parametrize("name", ["global_q", "global_f7", "partial_q",
                                  "partial_f7"])
def test_light_test_on_shared_rows_of_s3(name):
    # the final S3 tables, whose 112 (or 37) scalar rows are a few shared
    # lists, and the same tables with one cell changed in a copied row
    K = PrimeField(7) if name.endswith("f7") else QQ
    monoid, sigma = s3_twist(name, K)
    final = _build_table(monoid, sigma,
                         build_kpar_sigma(sigma, monoid=monoid).vanished)
    assert len({id(row) for row in final[2]}) < len(final[2]) // 3
    rng = random.Random(name)
    tables = [final] + list(unit_corruptions(rng, K, monoid, final))
    for _ in range(3):
        tables += corruptions(rng, K, final)
    found = 0
    for table in tables:
        surviving, _, scal, targ = table
        want = first_reference_defect(K, surviving, scal, targ,
                                      table_middles(monoid, table))
        assert _table_defect(K, monoid, table) == want
        found += want is not None
    assert found == len(tables) - 1


# Three tables on which a scalar sweep keyed on two of (row of x_i, row of
# x_i x_j, middle) would be reused where it does not apply: (monomials,
# middles, {(x, y): (target, scalar)} of the present products, groups of
# monomials whose scalar rows are one list, the defect).  Each has one
# failing triple, and reusing the sweep of an associating one hides it.
MEMO_TABLES = {
    # x0 and x1 share a row; x0 x2 = x4 and x1 x2 = x5 have different rows
    "row of x_i x_j": (9, [2], {(0, 2): (4, 1), (0, 6): (7, 1),
                                (1, 2): (5, 1), (1, 6): (8, 1),
                                (4, 3): (7, 1), (5, 3): (8, 2),
                                (2, 3): (6, 1)}, [(0, 1)], 8),
    # x0 x1 = x4 and x0 x2 = x5 share a row; the middles x1, x2 differ
    "middle": (10, [1, 2], {(0, 1): (4, 1), (0, 2): (5, 1), (0, 6): (8, 1),
                            (0, 7): (9, 1), (4, 3): (8, 1), (5, 3): (9, 1),
                            (1, 3): (6, 1), (2, 3): (7, 2)}, [(4, 5)], 9),
    # x0 x2 = x4 and x1 x2 = x5 share a row; the rows of x0, x1 differ
    "row of x_i": (9, [2], {(0, 2): (4, 1), (0, 6): (7, 1), (1, 2): (5, 1),
                            (1, 6): (8, 2), (4, 3): (7, 1), (5, 3): (8, 1),
                            (2, 3): (6, 1)}, [(4, 5)], 8),
}


@pytest.mark.parametrize("name", sorted(MEMO_TABLES))
def test_light_test_sweeps_are_reused_only_where_they_apply(name):
    n, middles, products, shared, defect = MEMO_TABLES[name]
    targ = [[-1] * n for _ in range(n)]
    scal = [[None] * n for _ in range(n)]
    for (x, y), (t, c) in products.items():
        targ[x][y], scal[x][y] = t, F(c)
    for first, other in shared:
        assert scal[other] == scal[first]
        scal[other] = scal[first]
    surviving = list(range(20, 20 + n))
    assert _associativity_defect(QQ, surviving, scal, targ, middles) == \
        first_reference_defect(QQ, surviving, scal, targ, middles) == \
        surviving[defect]


def test_light_test_sweeps_once_per_distinct_row(monkeypatch):
    # S3 with a global coboundary twist over Q: the 112 scalar rows are 6
    # shared lists, one per grade, as every product is present, and the
    # scalar sweep runs once per distinct (row of x_i, row of x_i x_j,
    # middle), 6 x 5 times; one sweep per (x_i, middle) pair would be
    # 112 x 5 = 560
    monoid, sigma = s3_twist("global_q", QQ)
    final = _build_table(monoid, sigma,
                         build_kpar_sigma(sigma, monoid=monoid).vanished)
    scal = final[2]
    assert len(scal) == 112 and len({id(row) for row in scal}) == 6
    middles = table_middles(monoid, final)
    middles.remove(final[1][monoid.identity])
    assert len(middles) == 5
    sweeps = []
    sweep = partial_algebras._scalar_sweep
    monkeypatch.setattr(partial_algebras, "_scalar_sweep",
                        lambda *a: sweeps.append(a) or sweep(*a))
    assert _table_defect(QQ, monoid, final) is None
    assert len(sweeps) == 30


def test_light_test_reports_a_corrupted_unit_row_or_column():
    # the unit monomial leaves the middles only when its row and column
    # are the identity with scalar 1; a changed scalar or target there
    # keeps it, and the defect is found
    rng = random.Random(9)
    checked = 0
    for monoid, sigma in random_sigmas(seed=13, per_case=3):
        K = sigma.field
        final = _build_table(monoid, sigma,
                             build_kpar_sigma(sigma, monoid=monoid).vanished)
        if len({monoid.elements[m][1] for m in final[0]}) < 2:
            continue
        for table in unit_corruptions(rng, K, monoid, final):
            surviving, _, scal, targ = table
            want = first_reference_defect(K, surviving, scal, targ,
                                          table_middles(monoid, table))
            assert want is not None
            assert _table_defect(K, monoid, table) == want
            checked += 1
    assert checked >= 40


# -- the quotients of kappa S(G) associate without a `validate` of their own -

QUOTIENT_GROUPS = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                direct_product(cyclic_group(2), cyclic_group(2)),
                symmetric_group(3)]


@pytest.mark.parametrize("G", QUOTIENT_GROUPS, ids=lambda G: G.name)
def test_exel_monoid_table_associates(G):
    # the monoid law (A, g)(B, h) = (A | gB, gh) associates on every triple,
    # as the lemma of `_monoid_quotient` proves from the group's own law
    mt = enumerate_exel(G).mul_table
    rows = range(len(mt))
    for x in rows:
        mx = mt[x]
        for y in rows:
            xy, my = mt[mx[y]], mt[y]
            assert all(xy[z] == mx[my[z]] for z in rows)


def test_exel_monoid_of_d4_associates_by_lights_test():
    # |S(D4)| = 576: the [g] generate S(G) as a monoid (the closure of the
    # identity under right multiplication by them is all of it), so
    # (x [g]) y = x ([g] y) for every x, y and g is the whole law
    path = os.path.join(os.path.dirname(__file__), "data", "d4.json")
    with open(path) as fh:
        G = group_from_permutations(json.load(fh)["perm_generators"])
    monoid = enumerate_exel(G, size_limit=576)
    mt = monoid.mul_table
    gens = [monoid.gen(g) for g in range(G.n)]
    reached, work = {monoid.identity}, [monoid.identity]
    while work:
        x = work.pop()
        for s in gens:
            if mt[x][s] not in reached:
                reached.add(mt[x][s])
                work.append(mt[x][s])
    assert len(reached) == monoid.size == 576
    rows = range(monoid.size)
    for s in gens:
        ms = mt[s]
        for x in rows:
            xs, mx = mt[mt[x][s]], mt[x]
            assert all(xs[y] == mx[ms[y]] for y in rows)


@pytest.mark.parametrize("K", [QQ, PrimeField(2)], ids=["Q", "F2"])
@pytest.mark.parametrize("G", QUOTIENT_GROUPS, ids=lambda G: G.name)
def test_monoid_quotients_pass_validate(G, K):
    # `_monoid_quotient` runs no `validate`: its table is kappa S(G) modulo
    # a semigroup ideal.  `validate` stays the reference here, on the empty
    # seed set (kappa_par G) and on random seed sets of one to three
    # monomials other than the identity
    monoid = enumerate_exel(G)
    others = [m for m in range(monoid.size) if m != monoid.identity]
    rng = random.Random(G.n)
    seed_sets = [()] + [rng.sample(others, rng.randint(1, 3))
                        for _ in range(4)]
    for seeds in seed_sets:
        vanished, surviving, alg = partial_algebras._monoid_quotient(
            K, monoid, seeds, name="quotient")
        assert vanished.isdisjoint(surviving)
        assert alg.validate().ok, seeds
