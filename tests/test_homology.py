from fractions import Fraction

import pytest

from conftest import (boundary_matrix, bump, dense_map_on_quotient, densify,
                      rank, transpose, z2_universal, z3_kappa2_action,
                      z2_dual_numbers, zeros)
from parhox.fields import QQ, PrimeField
from parhox.algebras import (ModuleData, commutator_quotient, dual_bimodule,
                             dual_numbers, matrix_algebra, product_field_algebra,
                             regular_bimodule, restrict_along_hom,
                             hom_over_algebra, tensor_over_algebra)
from parhox.factor_sets import (EquivalenceWitness, trivial_factor_set,
                                xi_sigma_double_prime, PartialFactorSet)
from parhox.errors import (EquivarianceFailure, InvalidInput, SizeLimit,
                           ValidationFailure)
from parhox.groups import cyclic_group
from parhox import homology
from parhox.homology import (ChainComplex, GModuleOnChains, bar_complex,
                             cobar_complex, diagonal_action, ext_dims,
                             env_resolution, free_resolution,
                             hochschild_homology_bar,
                             hochschild_homology_resolution, hom_A_carrier,
                             hom_A_module_structure, homology_data,
                             homology_dims_of_complex,
                             induced_action_on_homology,
                             m_as_a_bimodule, tor_dims)
from parhox.linalg import (_rank_of, _sp_identity, _sp_kron, _sp_matmul,
                           _sparse, _sparse_matrix)
from parhox.partial_actions import build_crossed_product
from parhox.problems import build_instance, bundled_fixtures, load_fixture
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
    for A in (product_field_algebra(QQ, 2), dual_numbers(QQ),
              dual_numbers(PrimeField(2))):
        M = regular_bimodule(A)
        assert hochschild_homology_bar(A, M, 2, normalized=True) == \
            hochschild_homology_bar(A, M, 2, normalized=False)
        dual = dual_bimodule(M)
        assert hochschild_homology_bar(A, dual, 2, normalized=True) == \
            hochschild_homology_bar(A, dual, 2, normalized=False)


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


def test_ext_basics():
    G = cyclic_group(2)
    kp = build_kpar(G, QQ)
    R = kp.algebra
    reg = regular_bimodule(R)
    X = ModuleData(R, R.dim, left=reg.left)
    assert ext_dims(R, X, X, 2) == [R.dim, 0, 0]
    assert ext_dims(R, X, X, 0)[0] == len(hom_over_algebra(R, X, X))


def _b_modules(kp):
    """B as right and left kappa_par G-module (untwisted tower)."""
    G = kp.group
    K = kp.field
    xi = EquivalenceWitness(G, K, [K.one] * G.n)
    left, right, _ = b_sigma_module_structures(kp, kp, xi)
    return left, right


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
        assert ext_dims(kp.algebra, B_left, X, 2) == expected


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
    # the Kronecker product behind T_g, on kernel rows
    A = [{0: 1, 1: 2}, {1: 1}]
    B = [{0: 3}]
    assert _sp_kron(A, B, 1, 0) == [{0: 3, 1: 6}, {1: 3}]
    I2 = _sp_identity(2)
    assert _sp_kron(I2, I2, 2, 0) == _sp_identity(4)


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
    gmod, bb = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                               xi, sdd, 2)
    assert gmod.complex.validate().ok


def test_diagonal_chain_action_universal_instances():
    for lam_val in (None, F(2)):
        G, theta = z2_universal(lam_val)
        lam = build_crossed_product(theta)
        sigma = theta.sigma
        xi, sdd = xi_sigma_double_prime(sigma)
        M = regular_bimodule(lam.algebra)
        gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                                  xi, sdd, 2)


def test_diagonal_action_global_case_classical():
    # global action, sigma = 1: T_g is the classical diagonal action
    G, theta = z2_dual_numbers()
    lam = build_crossed_product(theta)
    xi = EquivalenceWitness(G, QQ, [QQ.one, QQ.one])
    sdd = trivial_factor_set(G, QQ)
    M = regular_bimodule(lam.algebra)
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                              xi, sdd, 2)
    # T_t must be invertible in the global case (it is a group action)
    for q in range(3):
        T = gmod.action[1][q]
        assert len(T) == gmod.complex.dims[q]
        assert _rank_of(QQ, [dict(row) for row in T]) == len(T)


def test_induced_action_on_homology_z3():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                              xi, sdd, 2)
    bsig, omega = build_B_sigma_omega(kp, ks, ksdd=ksdd)
    # annihilators: dead idempotent monomials of kpar, as kpar vectors
    ann = []
    B_positions = kp.idempotent_positions()
    for kv in bsig.ker_zeta_basis:
        ann.append({B_positions[i]: c for i, c in kv.items()})
    assert ann                                  # the Z3 instance has ker zeta
    for q in (0, 1):
        hd, mod = induced_action_on_homology(gmod, q, kp, G,
                                             annihilator_vectors=ann)
        assert mod.validate().ok
        # [1] acts as the identity
        assert mod.left_matrix_of(kp.algebra.unit) == _sp_identity(hd.dim)
    # degree 0: H_0 = M/[A, M]; the action must match the quotient action
    MA = m_as_a_bimodule(lam, M)
    hd0, mod0 = induced_action_on_homology(gmod, 0, kp, G)
    assert hd0.dim == commutator_quotient(MA).dim


def test_degree_zero_matches_tensor_formula():
    # [g].(a (x) m) = [g].a (x) [g].m on A (x)_{A^e} M agrees with the
    # induced degree-0 action on M/[A,M]
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                              xi, sdd, 1)
    from parhox.algebras import (bimodule_to_left_env_module,
                                 bimodule_to_right_env_module, enveloping)
    A = theta.algebra
    MA = m_as_a_bimodule(lam, M)
    env = enveloping(A)
    # A as right A^e-module: a.(b (x) c) = b a c
    K = QQ
    right = []
    for i in range(A.dim):
        for j in range(A.dim):
            Li = A.left_mult_matrix(A.basis_vector(i))
            Rj = A.right_mult_matrix(A.basis_vector(j))
            right.append(_sp_matmul(Li, Rj, 0))
    A_right = ModuleData(env, A.dim, right=right)
    M_left = bimodule_to_left_env_module(env, A, MA)
    T = tensor_over_algebra(env, A_right,
                            ModuleData(env, M.dim, left=M_left.left))
    hd0, mod0 = induced_action_on_homology(gmod, 0, kp, G)
    assert T.dim == hd0.dim
    # comparison iso phi0: a (x) m -> class(a.m)
    my = M.dim
    pure_images = []
    for ia in range(A.dim):
        row = []
        avec = A.basis_vector(ia)
        for im in range(M.dim):
            row.append(hd0.express(MA.act_left(avec, {im: 1})))
        pure_images.append(row)
    phi0 = T.map_from(pure_images, hd0.dim)
    assert rank(K, densify(K, phi0, T.dim)) == hd0.dim
    from parhox.homology import _crossed_action_matrices
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
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                              xi, sdd, 2, cochain=True)
    # cochain d.d = 0 was asserted at construction; gate ran in constructor


def test_hom_A_module_structure():
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    carrier, mod = hom_A_module_structure(lam, M, m_as_a_bimodule(lam, M),
                                          xi, ksdd)
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
    carrier, mod = hom_A_module_structure(lam, M, m_as_a_bimodule(lam, M),
                                          xi, kp)
    assert mod.validate().ok


# -- the face-table (co)bar builders against per-column references --------

def ref_bar_differentials(R, M, max_q, normalized):
    """The bar differentials built column by column, every face recomputed
    from R.mul and the module actions."""
    K = R.field
    bb = homology._BarBasis(R, M, normalized)
    dims = [bb.dim_q(q) for q in range(max_q + 1)]
    diffs = {}
    for q in range(1, max_q + 1):
        mat = zeros(K, dims[q - 1], dims[q])
        col = 0
        for im in range(M.dim):
            mvec = {im: 1}
            for tup in bb.tuples(q):
                lifted = [bb.lift(i) for i in tup]
                for jm, c in M.act_right(mvec, lifted[0]).items():
                    r = bb.flat(jm, tup[1:])
                    mat[r][col] = K.add(mat[r][col], c)
                sign = K.one
                for i in range(q - 1):
                    sign = K.neg(sign)
                    prod = bb.project(R.mul(lifted[i], lifted[i + 1]))
                    for jw, c in prod.items():
                        r = bb.flat(im, tup[:i] + (jw,) + tup[i + 2:])
                        mat[r][col] = K.add(mat[r][col], K.mul(sign, c))
                sign = K.one if q % 2 == 0 else K.neg(K.one)
                for jm, c in M.act_left(lifted[-1], mvec).items():
                    r = bb.flat(jm, tup[:-1])
                    mat[r][col] = K.add(mat[r][col], K.mul(sign, c))
                col += 1
        diffs[q] = mat
    return diffs


def ref_cobar_differentials(R, M, max_q, normalized):
    """The cobar differentials built column by column over the elementary
    cochains, every face recomputed from R.mul and the module actions."""
    K = R.field
    bb = homology._BarBasis(R, M, normalized)
    W = bb.wdim
    dims = [W ** q * M.dim for q in range(max_q + 1)]

    def flat_c(tup, im):
        return bb.flat(0, tup) * M.dim + im

    diffs = {}
    for q in range(1, max_q + 1):
        mat = zeros(K, dims[q], dims[q - 1])
        for tau in bb.tuples(q - 1):
            for jm in range(M.dim):
                colv = [K.zero] * dims[q]
                mvec = {jm: 1}
                for j1 in range(W):
                    out = M.act_left(bb.lift(j1), mvec)
                    for km, c in out.items():
                        r = flat_c((j1,) + tau, km)
                        colv[r] = K.add(colv[r], c)
                for i in range(1, q):
                    sign = K.one if i % 2 == 0 else K.neg(K.one)
                    for x in range(W):
                        for y in range(W):
                            prod = bb.project(R.mul(bb.lift(x), bb.lift(y)))
                            c = prod.get(tau[i - 1], K.zero)
                            if c != K.zero:
                                r = flat_c(tau[:i - 1] + (x, y) + tau[i:], jm)
                                colv[r] = K.add(colv[r], K.mul(sign, c))
                sign = K.one if q % 2 == 0 else K.neg(K.one)
                for jq in range(W):
                    out = M.act_right(mvec, bb.lift(jq))
                    for km, c in out.items():
                        r = flat_c(tau + (jq,), km)
                        colv[r] = K.add(colv[r], K.mul(sign, c))
                col = flat_c(tau, jm)
                for r, c in enumerate(colv):
                    if c != K.zero:
                        mat[r][col] = c
        diffs[q] = mat
    return diffs


def _same_entries(K, cc, want):
    """cc.d densifies to the reference tables and its kernel rows are
    normalized (no stored zeros, residues in [0, p) over F_p)."""
    assert cc.d.keys() == want.keys()
    for q in want:
        ncols = cc.dims[cc.ends(q)[0]]
        assert densify(K, cc.d[q], ncols) == want[q], q
        assert cc.d[q] == _sparse_matrix(K, want[q]), q


def _m_major(diffs, dims, mdim):
    """The reference cochain differentials, whose basis is tuple-major
    (flat(tuple) * dim M + m), re-indexed to the M-major basis
    m * W^q + flat(tuple) of cobar_complex."""
    def perm(q):
        span = dims[q] // mdim if mdim else 0
        return [(i % mdim) * span + i // mdim for i in range(dims[q])]
    out = {}
    for q, mat in diffs.items():
        rows, cols = perm(q), perm(q - 1)
        new = [[None] * dims[q - 1] for _ in range(dims[q])]
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                new[rows[r]][cols[c]] = x
        out[q] = new
    return out


@pytest.mark.parametrize("fixture", ["z2_dual_q.json", "z3_kappa2_f3.json",
                                     "v4_partial_q.json",
                                     "z2_trivial_f2.json"])
def test_face_tables_match_per_column_builders(fixture):
    inst = build_instance(load_fixture(fixture))
    A, MA = inst.theta.algebra, inst.m_over_a
    K = A.field
    for R, M, max_q in ((A, MA, 3), (inst.lam.algebra, inst.M, 2)):
        for normalized in (True, False):
            cc, _ = bar_complex(R, M, max_q, normalized=normalized)
            _same_entries(K, cc,
                          ref_bar_differentials(R, M, max_q, normalized))
            cc, _ = cobar_complex(R, M, max_q, normalized=normalized)
            _same_entries(K, cc, _m_major(
                ref_cobar_differentials(R, M, max_q, normalized), cc.dims,
                M.dim))


def test_bar_basis_has_no_tuples_when_the_reduced_basis_is_empty():
    # the base field, normalized: Rbar = R / k.1 = 0, so C_q = 0 for q >= 1
    A = product_field_algebra(QQ, 1)
    bb = homology._BarBasis(A, regular_bimodule(A), normalized=True)
    assert bb.wdim == 0 and bb.dim_q(2) == 0
    assert list(bb.tuples(0)) == [()]
    assert list(bb.tuples(1)) == [] and list(bb.tuples(2)) == []
    cc, _ = bar_complex(A, regular_bimodule(A), 2)
    assert cc.dims == [1, 0, 0]


def test_bar_gate_rejects_a_non_bimodule_on_both_sides():
    # one changed entry of m -> m.x over Q[x]/(x^2): no longer a bimodule,
    # so d.d != 0 on the bar complex and on the cochains built from it
    A = dual_numbers(QQ)
    reg = regular_bimodule(A)
    right = [[dict(row) for row in R] for R in reg.right]
    right[1][0][0] = 1
    bad = ModuleData(A, reg.dim, left=reg.left, right=right)
    for build in (bar_complex, cobar_complex):
        for normalized in (True, False):
            with pytest.raises(ValidationFailure, match="d.d != 0"):
                build(A, bad, 2, normalized=normalized)


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
    # the cochain tower lives on A with M|A; the battery compares the two
    # cohomology routes on Lambda only.  dim H^q(A, M) is read as
    # dim H_q(A, M*) on both routes and agrees with the cochain complex
    inst = build_instance(load_fixture(fixture))
    A, MA = inst.theta.algebra, inst.m_over_a
    dual = dual_bimodule(MA)
    bar = hochschild_homology_bar(A, dual, 2)
    assert bar == hochschild_homology_resolution(A, dual, 2)
    assert bar == homology_dims_of_complex(cobar_complex(A, MA, 3)[0], 2)
    if fixture == "z2_dual_q.json":
        assert bar == [3, 2, 2]


# -- the chain-action gate rejects corrupted actions -----------------------

def _violations(gmod, group):
    return {v[0] for v in gmod.gate(group).violations}


@pytest.mark.parametrize("cochain", [False, True])
def test_chain_action_gate_rejects_a_changed_entry(cochain):
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M), xi, sdd, 2,
                              cochain=cochain)
    assert _violations(gmod, G) == set()
    # one entry of T_t on C_1, in a column that the differential out of
    # C_1 (chains) or into C_2 (cochains) does not kill
    d = gmod.complex.d[2 if cochain else 1]
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
    gmod, _ = diagonal_action(lam, M, m_as_a_bimodule(lam, M),
                              xi, sdd, 2)
    t, t2 = 1, G.inv(1)
    assert sdd(t, t2) != QQ.zero

    def pattern(g, h):
        return QQ.zero if (g, h) == (t, t2) else sdd(g, h)

    bad = GModuleOnChains(gmod.complex, gmod.action, pattern)
    names = _violations(bad, G)
    # T_{t^2} T_1 = T_{t^2} is not zero, so the zero relation fails too
    assert {"left relation", "right relation", "zero relation"} <= names
    assert "equivariance" not in names


@pytest.mark.parametrize("cochain", [False, True],
                         ids=["diagonal_chain_action",
                              "diagonal_cochain_action"])
def test_diagonal_action_with_a_wrong_xi_is_rejected(cochain):
    G, theta, lam, sigma, xi, sdd, kp, ks, ksdd = _z3_tower()
    M = regular_bimodule(lam.algebra)
    wrong = EquivalenceWitness(G, QQ, [QQ.one, xi(1) * 2, xi(2)])
    with pytest.raises(EquivarianceFailure):
        diagonal_action(lam, M, m_as_a_bimodule(lam, M), wrong, sdd, 2,
                        cochain=cochain)
