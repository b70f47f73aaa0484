"""Shared construction helpers for the test suite."""

from fractions import Fraction

from parhox.fields import QQ
from parhox.algebras import (AlgebraHom, StructureAlgebra,
                             product_field_algebra, dual_numbers)
from parhox.factor_sets import PartialFactorSet, trivial_factor_set
from parhox.groups import cyclic_group, direct_product
from parhox.linalg import _char, _dense, _sparse, identity, transpose
from parhox.partial_actions import TwistedPartialAction, UnitalPartialAction


def frac(x, y=1):
    return Fraction(x, y)


def z3_kappa2_action(field=QQ):
    """Z3 acting partially on kappa^2: 1_t = e1, 1_{t^2} = e2, theta_t the
    coordinate swap restricted to the ideals."""
    G = cyclic_group(3)
    A = product_field_algebra(field, 2)
    o, z = field.one, field.zero
    one = [[o, o], [o, z], [z, o]]
    theta = [identity(field, 2), [[z, o], [z, z]], [[z, z], [o, z]]]
    sigma = PartialFactorSet(G, field, [[o, o, o], [o, z, o], [o, o, z]],
                             name="z3partial")
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def z2_global_twist(lam, field=QQ):
    """Global (trivial) action of Z2 on the base field with twist lam."""
    G = cyclic_group(2)
    A = product_field_algebra(field, 1)
    one = [[field.one], [field.one]]
    theta = [identity(field, 1), identity(field, 1)]
    sigma = PartialFactorSet(G, field,
                             [[field.one, field.one], [field.one, lam]],
                             name="lam")
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def z2_universal(lam=None, field=QQ):
    """The universal base B = span{1, e} of Z2 with theta_t fixing e; the
    twist is trivial unless lam is given (then sigma(t,t) = lam)."""
    G = cyclic_group(2)
    o, z = field.one, field.zero
    # basis {1, e}; e idempotent
    sc = {(0, 0): [(0, o)], (0, 1): [(1, o)], (1, 0): [(1, o)], (1, 1): [(1, o)]}
    B = StructureAlgebra(field, 2, sc, [o, z], labels=["1", "e"], name="B")
    one = [[o, z], [z, o]]
    theta = [identity(field, 2), [[z, z], [o, o]]]
    table = [[o, o], [o, lam if lam is not None else o]]
    sigma = PartialFactorSet(G, field, table, name="sigma")
    return G, TwistedPartialAction(UnitalPartialAction(B, one, theta), sigma)


def z2_dual_numbers(field=QQ):
    """Global Z2 on the dual numbers, x -> -x, trivial twist."""
    G = cyclic_group(2)
    A = dual_numbers(field)
    o, z = field.one, field.zero
    one = [[o, z], [o, z]]
    theta = [identity(field, 2), [[o, z], [z, field.neg(o)]]]
    sigma = trivial_factor_set(G, field)
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def z2xz2_partial_idempotent(field=QQ):
    """Z2 x Z2 = {1, a, b, c} acting on kappa^2 with 1_a = e1, 1_b = e2,
    1_c = 0; theta_a, theta_b identities on their ideals."""
    G = direct_product(cyclic_group(2), cyclic_group(2))
    A = product_field_algebra(field, 2)
    o, z = field.one, field.zero
    # element order: 1=(0,0)->0, (0,1)->1, (1,0)->2, (1,1)->3
    # pick a = index 1, b = index 2, c = index 3
    one = [[o, o], [o, z], [z, o], [z, z]]
    ze = [[z, z], [z, z]]
    theta = [identity(field, 2), [[o, z], [z, z]], [[z, z], [z, o]], ze]
    table = [[o] * 4 for _ in range(4)]
    for g in range(4):
        for h in range(4):
            gh = G.mul(g, h)
            # sigma(g,h) = 0 iff 1_g 1_{gh} = 0
            og, ogh = one[g], one[gh]
            prod = [field.mul(x, y) for x, y in zip(og, ogh)]
            if all(c == z for c in prod):
                table[g][h] = z
    sigma = PartialFactorSet(G, field, table, name="v4idem")
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def dense_map_on_quotient(T, ambient_map_fn):
    """The matrix on T's quotient coordinates of a map given on ambient
    vectors (index ix * dim Y + iy): project the image of each lifted
    quotient basis vector."""
    K = T.K
    cols = [T.project(ambient_map_fn(T.quotient.lift(
        [K.one if t == i else K.zero for t in range(T.dim)])))
        for i in range(T.dim)]
    return transpose(cols)


def dense_kron(K, A, B, shape_a=None, shape_b=None):
    """Kronecker product of dense matrices on the lexicographic tensor
    basis, every cell computed; the shapes are needed only when a factor
    has no rows."""
    ma, na = shape_a or (len(A), len(A[0]) if A else 0)
    mb, nb = shape_b or (len(B), len(B[0]) if B else 0)
    return [[K.mul(A[i][j], B[k][l]) for j in range(na) for l in range(nb)]
            for i in range(ma) for k in range(mb)]


def densify(K, rows, ncols):
    """Kernel rows as a dense matrix with ncols columns."""
    return [_dense(K, row, ncols) for row in rows]


def assert_kernel_rows(K, rows, nrows, ncols):
    """rows is a matrix of nrows normalized kernel rows with ncols columns:
    dicts without stored zeros, int residues in [1, p) over F_p, ints or
    Fractions over Q."""
    assert isinstance(rows, list) and len(rows) == nrows
    for row in rows:
        assert type(row) is dict
        for c, a in row.items():
            assert type(c) is int and 0 <= c < ncols
            if K.kind == "Q":
                assert type(a) in (int, Fraction) and a
            else:
                assert type(a) is int and 0 < a < K.characteristic


def dense_mult_matrix(A, v, left=True):
    """The dense matrix of x |-> v . x (or x . v), column j being the
    product with the j-th basis vector by `mul`."""
    cols = [A.mul(v, b) if left else A.mul(b, v)
            for b in map(A.basis_vector, range(A.dim))]
    return transpose(cols)


def hom_matrix(hom):
    """The dense (target dim x source dim) matrix of an AlgebraHom, whose
    columns are its images."""
    K = hom.source.field
    return [[_dense(K, img, hom.target.dim)[r] for img in hom.images]
            for r in range(hom.target.dim)]


def hom_from_matrix(source, target, matrix, name=""):
    """The AlgebraHom of a dense (target dim x source dim) matrix."""
    K = source.field
    return AlgebraHom(source, target,
                      [_sparse(K, [row[j] for row in matrix])
                       for j in range(source.dim)], name=name)


def bump(K, rows, r, c):
    """Add 1 to entry (r, c) of a matrix of kernel rows, in place, keeping
    the rows normalized (no stored zeros, residues mod p)."""
    p = _char(K)
    x = rows[r].get(c, 0) + 1
    x = x % p if p else x
    if x:
        rows[r][c] = x
    else:
        del rows[r][c]
