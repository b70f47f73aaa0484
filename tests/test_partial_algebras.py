import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (dense_map_on_quotient, densify, hom_matrix,
                      product_field_algebra, rank, z2_universal,
                      z3_kappa2_action, z2xz2_partial_idempotent)
from parhox.errors import ValidationFailure
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
from parhox.partial_actions import (PartialProjRepresentation,
                                    build_crossed_product, gamma_sigma)
from parhox.partial_algebras import (TwistedPartialGroupAlgebra,
                                     _associativity_defect, _build_table,
                                     _close_vanishing, _complete,
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
    # idempotent route and completion route agree exactly
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
    ksdd = build_kpar_idempotent(sigma_prime(z3_partial_sigma()),
                                 monoid=kp.monoid)
    bsig, omega = build_B_sigma_omega(kp, ks, ksdd=ksdd)
    assert bsig.algebra.dim == 3                     # 1, e_t, e_{t^2}
    assert len(bsig.ker_zeta_basis) == 1             # e_t e_{t^2}
    assert omega.algebra.dim == 5
    assert omega.left_module.validate().ok


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
    bsig, omega = build_B_sigma_omega(kp, ks, ksdd=ksdd)
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


def r4_vanishing(monoid, sigma):
    """The closed ideal of the R4 seeds alone: monomials with a dead letter."""
    G = sigma.group
    dead = sum(1 << g for g in range(G.n) if sigma.is_zero(g, G.inv(g)))
    seeds = {m for m, (A, _) in enumerate(monoid.elements) if A & dead}
    return _close_vanishing(monoid, sigma, seeds)


def table_sc(targ, scal):
    n = len(targ)
    return {(a, b): [(targ[a][b], scal[a][b])]
            for a in range(n) for b in range(n) if targ[a][b] >= 0}


def test_completion_from_r4_seeds_reproduces_build():
    # Without the Z and C seeds, the completion loop has to find every
    # vanishing monomial by itself; it must reach the same algebra.
    completed = 0
    for monoid, sigma in random_sigmas(seed=11, per_case=25):
        ks = build_kpar_sigma(sigma, monoid=monoid)
        _, (surviving, _, scal, targ), log = _complete(
            monoid, sigma, r4_vanishing(monoid, sigma))
        assert surviving == ks.surviving
        assert table_sc(targ, scal) == ks.algebra.sc
        completed += bool(log)
    assert completed >= 50      # 99 of the 150 need completion rounds


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


def corruptions(rng, K, table):
    """The table with one scalar changed, and with one target changed."""
    surviving, pos, scal, targ = table
    cells = [(a, b) for a in range(len(targ)) for b in range(len(targ))
             if targ[a][b] >= 0]
    a, b = rng.choice(cells)
    scal2 = [list(row) for row in scal]
    scal2[a][b] = K.add(scal2[a][b], K.one) or K.add(K.one, K.one)
    yield surviving, pos, scal2, targ
    a, b = rng.choice(cells)
    targ2 = [list(row) for row in targ]
    targ2[a][b] = rng.choice([t for t in range(len(targ)) if t != targ[a][b]])
    yield surviving, pos, scal, targ2


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
        scal2 = [list(row) for row in scal]
        scal2[a][b] = K.add(K.one, K.one)
        yield surviving, pos, scal2, targ
        targ2 = [list(row) for row in targ]
        t = targ[a][b]
        targ2[a][b] = rng.choice([x for x in range(n)
                                  if grade[x] != grade[t]])
        yield surviving, pos, scal, targ2


def table_middles(monoid, table):
    """`_light_generators` of the table, the unit monomial included."""
    surviving, pos, scal, targ = table
    gens = [pos[m] for m in (monoid.gen(g) for g in range(monoid.group.n))
            if m in pos]
    return _light_generators(targ, gens)


def test_light_test_returns_the_first_defect_of_the_sweep():
    # the row comparison and the unit monomial left out of the middles
    # must not change which defect comes first, so the completion log
    # stays the same
    rng = random.Random(7)
    found = 0
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
    assert found >= 40


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
