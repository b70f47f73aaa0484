import random
from fractions import Fraction

import pytest

from conftest import (assert_kernel_rows, dense_kron, dense_map_on_quotient,
                      dense_mult_matrix, dense_row, densify, hom_from_matrix,
                      hom_matrix, identity, matvec, rank, ref_rref,
                      sparse_rows)
from parhox.errors import InvalidInput, SizeLimit
from parhox.fields import QQ, PrimeField
from parhox.algebras import (AlgebraHom, ModuleData, StructureAlgebra,
                             ValidationReport, bimodule_to_left_env_module,
                             commutator_quotient, dual_numbers, enveloping,
                             group_algebra, hom_over_algebra, matrix_algebra,
                             module_from_generator_actions, opposite,
                             orthogonalize_idempotents, product_field_algebra,
                             regular_bimodule, restrict_along_hom,
                             separability_idempotent, subalgebra_generated,
                             tensor_over_algebra)
from parhox.groups import cyclic_group, symmetric_group
from parhox.linalg import Subspace, _sp_identity, _sparse, _sparse_matrix
from parhox.partial_algebras import build_kpar


def F(x):
    return Fraction(x)


def test_validate_stock_algebras():
    for A in (matrix_algebra(QQ, 2), product_field_algebra(QQ, 2),
              dual_numbers(QQ), group_algebra(QQ, cyclic_group(3))):
        assert A.validate().ok


def test_validate_catches_corruption():
    A = matrix_algebra(QQ, 2)
    A.sc[(1, 2)] = [(0, F(1))]     # corrupt E01*E10 = E00 -> E00 + nothing? break it
    A.sc[(1, 2)] = [(3, F(1))]
    rep = A.validate()
    assert not rep.ok
    assert any(v[0] == "associativity" for v in rep.violations)


def dense_validate(A):
    """Reference: associativity and unit law by products (`mul`) of basis
    vectors, over every triple, in the order StructureAlgebra.validate
    uses."""
    rep = ValidationReport(f"algebra {A.name}")
    d = A.dim
    for i in range(d):
        bi = A.basis_vector(i)
        if A.mul(A.unit, bi) != bi or A.mul(bi, A.unit) != bi:
            rep.fail("unit", i)
    b = A.basis_vector
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if A.mul(A.mul(b(i), b(j)), b(k)) != \
                   A.mul(b(i), A.mul(b(j), b(k))):
                    rep.fail("associativity", i, j, k)
    return rep


def corrupted(A, pair, row):
    A.sc[pair] = row
    return A


def coboundary_twisted_group_algebra(K, G, f):
    """K^{delta f}[G]: b_g b_h = f(g) f(h) / f(gh) b_gh, associative because
    delta f is a coboundary; f(0) = 1 keeps b_0 the unit."""
    sc = {(g, h): [(G.mul(g, h), K.div(K.mul(f[g], f[h]), f[G.mul(g, h)]))]
          for g in range(G.n) for h in range(G.n)}
    return StructureAlgebra(K, G.n, sc, {0: 1}, name=f"K^df[{G.name}]")


def test_validate_matches_dense_reference():
    F7 = PrimeField(7)
    G41 = cyclic_group(41)
    # structure constants 1/12, 1/5, ...: a sweep that dropped denominators
    # would report false violations
    twisted = coboundary_twisted_group_algebra(
        QQ, cyclic_group(4), [F(1), Fraction(1, 2), F(3), Fraction(2, 5)])
    assert any(c.denominator != 1 for row in twisted.sc.values()
               for _, c in row)
    # over F_7 the bracketings agree only mod 7: 4 * 1 vs 6 * 3 at (2, 2, 1)
    twisted7 = coboundary_twisted_group_algebra(F7, cyclic_group(4),
                                                [1, 3, 5, 6])
    # b_1 . b_j = 2 b_{1+j} in K[Z41]
    doubled = group_algebra(QQ, G41)
    for j in range(41):
        doubled.sc[(1, j)] = [(G41.mul(1, j), F(2))]
    # b_1 . b_16 = 2 b_17 alone: 158 of the 41^3 triples fail, none of them
    # among 1000 triples drawn by random.Random(0), so a sampled check
    # would pass it
    one_constant = corrupted(group_algebra(QQ, G41), (1, 16),
                             [(17, F(2))])
    algebras = [
        matrix_algebra(QQ, 2), matrix_algebra(F7, 3), dual_numbers(F7),
        product_field_algebra(QQ, 3), group_algebra(QQ, cyclic_group(4)),
        corrupted(dual_numbers(QQ), (1, 0), [(1, F(3))]),
        corrupted(dual_numbers(F7), (0, 1), [(1, 2)]),
        corrupted(matrix_algebra(QQ, 2), (1, 2), [(3, F(1))]),
        corrupted(matrix_algebra(QQ, 2), (0, 0), [(0, F(1)), (1, Fraction(-1, 2))]),
        corrupted(matrix_algebra(F7, 2), (2, 1), [(3, 5)]),
        matrix_algebra(QQ, 7), doubled, one_constant, twisted, twisted7,
    ]
    assert twisted.validate().ok and twisted7.validate().ok
    for A in algebras:
        got, want = A.validate(), dense_validate(A)
        assert got.violations == want.violations, A.name
        assert got.notes == want.notes == []
    assert not doubled.validate().ok
    assert len(one_constant.validate().violations) == 158
    # kappa_par S3 (dim 112) is decided over its 10 generators, exactly
    kp = build_kpar(symmetric_group(3), QQ).algebra
    got = kp.validate()
    assert len(kp.generators) == 10
    assert got.ok and got.notes == []


def dense_verify(hom, unital=True):
    """Reference: AlgebraHom.verify by products (`mul`) of the images of
    basis vectors, recomputed for every pair."""
    rep = ValidationReport(f"hom {hom.name}")
    src, tgt = hom.source, hom.target
    for i in range(src.dim):
        fi = hom.apply(src.basis_vector(i))
        for j in range(src.dim):
            fj = hom.apply(src.basis_vector(j))
            lhs = tgt.mul(fi, fj)
            rhs = hom.apply(src.mul(src.basis_vector(i), src.basis_vector(j)))
            if lhs != rhs:
                rep.fail("multiplicative", i, j)
    if unital and hom.apply(src.unit) != tgt.unit:
        rep.fail("unit")
    return rep


def test_hom_verify_matches_dense_reference():
    F7 = PrimeField(7)
    Z4 = cyclic_group(4)
    f = [F(1), Fraction(1, 2), F(3), Fraction(2, 5)]
    M2 = matrix_algebra(QQ, 2)
    T = [[QQ.zero] * 4 for _ in range(4)]
    for r in range(2):
        for c in range(2):
            T[c * 2 + r][r * 2 + c] = QQ.one
    # b_g -> f(g) b_g: Q^{delta f}[Z4] -> Q[Z4]
    scale = [[f[g] if g == h else QQ.zero for h in range(4)] for g in range(4)]
    # F_7^3 ->> F_7^2, forgetting the last factor
    proj = [[1, 0, 0], [0, 1, 0]]
    homs = [hom_from_matrix(M2, opposite(M2), T, name="transpose"),
            hom_from_matrix(coboundary_twisted_group_algebra(QQ, Z4, f),
                            group_algebra(QQ, Z4), scale, name="rescale"),
            hom_from_matrix(product_field_algebra(F7, 3),
                            product_field_algebra(F7, 2), proj, name="proj")]
    for hom in homs:
        assert hom.verify().ok and dense_verify(hom).ok, hom.name
        K = hom.source.field
        # one entry changed: by 1 on the diagonal, by 1/3 off it
        for (r, c), delta in (((0, 0), K.one),
                              ((1, 2), K.inv(K.from_int(3)))):
            M = hom_matrix(hom)
            M[r][c] = K.add(M[r][c], delta)
            bad = hom_from_matrix(hom.source, hom.target, M, name=hom.name)
            got, want = bad.verify(), dense_verify(bad)
            assert want.violations, (hom.name, r, c)
            assert got.violations == want.violations, (hom.name, r, c)


@pytest.mark.parametrize("K", [QQ, PrimeField(2), PrimeField(3),
                               PrimeField(7)], ids=str)
def test_mult_matrices_match_the_mul_reference(K):
    # the kernel rows read off the structure constants equal the dense
    # construction by `mul` with each basis vector, for basis, unit, zero
    # and random elements, on opposite and enveloping algebras too
    rng = random.Random(7)
    base = [matrix_algebra(K, 2), dual_numbers(K),
            group_algebra(K, cyclic_group(3)), product_field_algebra(K, 3)]
    if K.kind == "Q" or K.characteristic == 7:
        # a twist with fractional structure constants over Q
        f = [K.div(K.from_int(a), K.from_int(b))
             for a, b in ((1, 1), (1, 2), (3, 1), (2, 5))]
        base.append(coboundary_twisted_group_algebra(K, cyclic_group(4), f))
    algebras = base + [opposite(A) for A in base] + \
        [enveloping(A) for A in base[:2]]
    for A in algebras:
        randoms = [_sparse(K, [K.from_int(rng.randint(-2, 2))
                               for _ in range(A.dim)]) for _ in range(3)]
        for v in ([A.basis_vector(i) for i in range(A.dim)]
                  + [A.unit, {}] + randoms):
            for left in (True, False):
                got = A.left_mult_matrix(v) if left else A.right_mult_matrix(v)
                assert_kernel_rows(K, got, A.dim, A.dim)
                assert densify(K, got, A.dim) == dense_mult_matrix(A, v, left)


def test_opposite():
    C = product_field_algebra(QQ, 3)
    assert opposite(C).sc == C.sc
    M2 = matrix_algebra(QQ, 2)
    op = opposite(M2)
    assert op.validate().ok
    # transpose map M2 -> M2^op is an algebra isomorphism
    T = [[QQ.zero] * 4 for _ in range(4)]
    for r in range(2):
        for c in range(2):
            T[c * 2 + r][r * 2 + c] = QQ.one
    hom = hom_from_matrix(M2, op, T)
    assert hom.verify().ok and hom.is_bijective()
    assert opposite(op).sc == M2.sc


def test_enveloping():
    A = product_field_algebra(QQ, 2)
    E = enveloping(A)
    assert E.dim == 4
    assert E.validate().ok
    K1 = product_field_algebra(QQ, 1)
    assert enveloping(K1).dim == 1
    # bimodule <-> left A^e module round trip on the regular bimodule
    M = regular_bimodule(A)
    left_env = bimodule_to_left_env_module(E, A, M)
    assert left_env.validate().ok
    # (a (x) b).m = a.m.b reproduces left-then-right
    for i in range(A.dim):
        for j in range(A.dim):
            got = densify(QQ, left_env.left[i * A.dim + j], M.dim)
            a, b = A.basis_vector(i), A.basis_vector(j)
            want = [[None] * M.dim for _ in range(M.dim)]
            for c in range(M.dim):
                col = dense_row(QQ, M.act_right(M.act_left(a, {c: 1}), b),
                                M.dim)
                for r in range(M.dim):
                    want[r][c] = col[r]
            assert got == want


def test_subalgebra_generated():
    A = product_field_algebra(QQ, 2)
    sub = subalgebra_generated(A, [])
    assert sub.algebra.dim == 1                       # only the unit
    e = {0: 1}
    sub2 = subalgebra_generated(A, [e])
    assert sub2.algebra.dim == 2
    assert sub2.inclusion.verify().ok
    full = subalgebra_generated(matrix_algebra(QQ, 2),
                                [matrix_algebra(QQ, 2).basis_vector(i) for i in range(4)])
    assert full.algebra.dim == 4


def as_set(vectors):
    """Kernel rows in a canonical order."""
    return sorted(sorted(v.items()) for v in vectors)


def test_orthogonalize_idempotents():
    A = product_field_algebra(QQ, 2)
    e = {0: 1}
    atoms = orthogonalize_idempotents(A, [e])
    assert as_set(atoms) == as_set([{0: 1}, {1: 1}])
    assert orthogonalize_idempotents(A, []) == [A.unit]
    # generic pair in a dim-4 commutative algebra: inclusion-exclusion split
    B = product_field_algebra(QQ, 4)
    e1 = {0: 1, 1: 1}
    f1 = {0: 1, 2: 1}
    atoms = orthogonalize_idempotents(B, [e1, f1])
    assert len(atoms) == 4
    assert as_set(atoms) == as_set(_sp_identity(4))


def dense_separability_idempotent(A):
    """Reference: the d + d^3 separability equations as dense rows of
    length d^2, each entry found by a loop over every pair of basis
    elements, solved by textbook Gauss-Jordan; e as a dense d x d matrix
    or None."""
    K = A.field
    d = A.dim
    nvars = d * d
    rows = []
    # multiplication condition: sum_ij e_ij b_i b_j = 1
    unit = dense_row(K, A.unit, d)
    for k in range(d):
        row = [K.zero] * nvars
        for i in range(d):
            for j in range(d):
                for (kk, c) in A.mul_basis(i, j):
                    if kk == k:
                        row[i * d + j] = K.add(row[i * d + j], c)
        rows.append(row + [unit[k]])
    # centrality: for each basis a: sum e_ij (a b_i (x) b_j - b_i (x) b_j a)
    for t in range(d):
        for k in range(d):
            for l in range(d):
                row = [K.zero] * nvars
                for i in range(d):
                    for j in range(d):
                        for (kk, c) in A.mul_basis(t, i):
                            if kk == k and l == j:
                                row[i * d + j] = K.add(row[i * d + j], c)
                        for (ll, c) in A.mul_basis(j, t):
                            if ll == l and k == i:
                                row[i * d + j] = K.sub(row[i * d + j], c)
                rows.append(row + [K.zero])
    red, pivots = ref_rref(K, rows, nvars + 1)
    if nvars in pivots:
        return None
    x = [K.zero] * nvars
    for row, pc in zip(red, pivots):
        x[pc] = row[nvars]
    return [x[i * d:(i + 1) * d] for i in range(d)]


def test_separability_idempotent():
    A = product_field_algebra(QQ, 2)
    e = separability_idempotent(A)
    assert e is not None
    assert e == [{0: 1}, {1: 1}]          # e1(x)e1 + e2(x)e2
    M2 = matrix_algebra(QQ, 2)
    e2 = separability_idempotent(M2)
    assert e2 is not None
    # verify the axioms directly on the returned tensor
    mult = {}
    for i, row in enumerate(e2):
        for j, c in row.items():
            for k, a in M2.mul(M2.basis_vector(i), M2.basis_vector(j)).items():
                mult[k] = mult.get(k, 0) + c * a
    assert {k: a for k, a in mult.items() if a} == M2.unit
    assert separability_idempotent(dual_numbers(QQ)) is None
    assert separability_idempotent(dual_numbers(PrimeField(2))) is None
    # the sparse equations give the dense reference's e, including the
    # choice of the particular solution (free unknowns 0)
    F3, F7 = PrimeField(3), PrimeField(7)
    f = [F(1), Fraction(1, 2), F(3), Fraction(2, 5)]
    for B in (A, M2, dual_numbers(QQ), dual_numbers(F3), matrix_algebra(F7, 2),
              product_field_algebra(F3, 3), group_algebra(QQ, cyclic_group(3)),
              group_algebra(F3, cyclic_group(3)), enveloping(dual_numbers(QQ)),
              coboundary_twisted_group_algebra(QQ, cyclic_group(4), f)):
        got, want = separability_idempotent(B), dense_separability_idempotent(B)
        if want is None:
            assert got is None, B.name
        else:
            assert_kernel_rows(B.field, got, B.dim, B.dim)
            assert densify(B.field, got, B.dim) == want, B.name


def test_tensor_and_hom_basics():
    A = group_algebra(QQ, cyclic_group(2))
    M = regular_bimodule(A)
    # R (x)_R Y = Y
    T = tensor_over_algebra(A, ModuleData(A, A.dim, right=M.right),
                            ModuleData(A, A.dim, left=M.left))
    assert T.dim == A.dim
    # Hom_R(R, Y) = Y
    X = ModuleData(A, A.dim, left=M.left)
    homs = hom_over_algebra(A, X, X)
    assert len(homs) == A.dim
    # dim Hom computed twice: solution-space route vs rank-nullity on an
    # independently assembled constraint matrix
    mx = my = A.dim
    rows = []
    for b in range(A.dim):
        LX = densify(QQ, X.left[b], mx)
        for r in range(my):
            for c in range(mx):
                row = [QQ.zero] * (my * mx)
                for s in range(mx):
                    row[r * mx + s] = QQ.add(row[r * mx + s], LX[s][c])
                for s in range(my):
                    row[s * mx + c] = QQ.sub(row[s * mx + c], LX[r][s])
                rows.append(row)
    assert len(homs) == my * mx - rank(QQ, rows)


def dense_relations(K, X, Y, R):
    """The balancing relations x.b (x) y - x (x) b.y as dense vectors on the
    ambient basis ix * dim Y + iy, one per (b, ix, iy)."""
    mx, my = X.dim, Y.dim
    out = []
    for b in range(R.dim):
        XR, YL = densify(K, X.right[b], mx), densify(K, Y.left[b], my)
        for ix in range(mx):
            for iy in range(my):
                v = [K.zero] * (mx * my)
                for r in range(mx):
                    v[r * my + iy] = K.add(v[r * my + iy], XR[r][ix])
                for r in range(my):
                    v[ix * my + r] = K.sub(v[ix * my + r], YL[r][iy])
                out.append(v)
    return out


def kron_reference(T, P, Q):
    """The dense matrix of P (x) Q on T (P, Q kernel rows or None): column
    i projects kron(P, Q) applied to the lift of the i-th quotient basis
    vector."""
    K = T.K
    mx, my = T.X.dim, T.Y.dim
    PQ = dense_kron(K, densify(K, P, mx) if P is not None else identity(K, mx),
                    densify(K, Q, my) if Q is not None else identity(K, my),
                    (mx, mx), (my, my))
    return dense_map_on_quotient(T, lambda v: matvec(K, PQ, v))


@pytest.mark.parametrize("K", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_tensor_map_matches_kron_reference(K):
    rng = random.Random(11)

    def element(A):
        return _sparse(K, [K.from_int(rng.randint(-2, 2))
                           for _ in range(A.dim)])

    for A in (group_algebra(K, cyclic_group(3)), matrix_algebra(K, 2),
              dual_numbers(K)):
        M = regular_bimodule(A)
        T = tensor_over_algebra(A, M, M)
        # the sparse balancing relations span what the dense ones span
        assert T.relations.basis() == Subspace(
            K, A.dim * A.dim, sparse_rows(K, dense_relations(K, M, M, A))).basis()
        for _ in range(3):
            # a -> u a is a right module map of A_A, a -> a v a left one
            # of _A A
            P = A.left_mult_matrix(element(A))
            Q = A.right_mult_matrix(element(A))
            for f, g in ((P, Q), (P, None), (None, Q), (None, None)):
                assert densify(K, T.tensor_map(f, g), T.dim) == \
                    kron_reference(T, f, g)
        # a dimension-0 factor on either side
        zero_left = module_from_generator_actions(A, 0, {}, side="left")
        zero_right = module_from_generator_actions(A, 0, {}, side="right")
        for T0, f, g in ((tensor_over_algebra(A, M, zero_left), P, []),
                         (tensor_over_algebra(A, zero_right, M), [], Q)):
            assert T0.dim == 0
            assert T0.tensor_map(f, g) == kron_reference(T0, f, g) == []


def test_tensor_map_rejects_a_map_that_does_not_descend():
    # on Q[Z2] (x)_{Q[Z2]} Q[Z2] = Q[Z2], the projection onto the unit is
    # not a module map on either side: 1 (x) g - g (x) 1 goes to 1 (x) g
    A = group_algebra(QQ, cyclic_group(2))
    M = regular_bimodule(A)
    T = tensor_over_algebra(A, M, M)
    P = [{0: 1}, {}]
    for f, g in ((P, None), (None, P)):
        with pytest.raises(InvalidInput, match="does not descend"):
            T.tensor_map(f, g)


def test_module_validation_and_restriction():
    A = product_field_algebra(QQ, 2)
    M = regular_bimodule(A)
    assert M.validate().ok
    sub = subalgebra_generated(A, [])
    R = restrict_along_hom(sub.inclusion, M)
    assert R.validate().ok
    assert R.dim == M.dim


def test_module_from_generator_actions():
    A = group_algebra(QQ, cyclic_group(2))
    # give only the action of the group generator; closure must fill in e
    gen_mat = _sparse_matrix(QQ, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]])
    M = module_from_generator_actions(A, 2, {1: gen_mat}, side="left")
    assert M.validate().ok
    assert M.left[0] == _sp_identity(2)
    with pytest.raises(InvalidInput):
        module_from_generator_actions(A, 2, {}, side="left")


@pytest.mark.parametrize("side", ["left", "right"])
def test_module_closure_multiplies_each_pair_once(side, monkeypatch):
    # B over kappa_par(Z2 x Z2) (dim 20), rebuilt from its generators: the
    # closure multiplies each ordered pair of known elements once (334
    # products; trying every pair again in each round made 362) and gives
    # the same actions
    from parhox.problems import build_instance, load_fixture
    inst = build_instance(load_fixture("v4_partial_q.json"))
    kp = inst.kpar
    mod = inst.b_over_kpar[0 if side == "left" else 1]
    mats = mod.left if side == "left" else mod.right
    gens = [kp.position[kp.monoid.gen(g)] for g in range(inst.group.n)]
    A = kp.algebra
    calls = []
    mul = A.mul

    def counted(u, v):
        calls.append((tuple(sorted(u.items())), tuple(sorted(v.items()))))
        return mul(u, v)

    monkeypatch.setattr(A, "mul", counted)
    out = module_from_generator_actions(A, mod.dim,
                                        {i: mats[i] for i in gens}, side=side)
    assert (out.left if side == "left" else out.right) == mats
    assert len(calls) == len(set(calls)) == 334


def test_commutator_quotient():
    M2 = matrix_algebra(QQ, 2)
    Q = commutator_quotient(regular_bimodule(M2))
    assert Q.dim == 1        # M/[M2,M2] is spanned by the trace
    C = product_field_algebra(QQ, 3)
    assert commutator_quotient(regular_bimodule(C)).dim == 3


def test_enveloping_size_limit():
    big = product_field_algebra(QQ, 10)
    with pytest.raises(SizeLimit):
        enveloping(big, size_limit=50)
