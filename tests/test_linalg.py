from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

import pytest

from conftest import assert_kernel_rows, dense_kron, densify
from parhox.errors import InvalidInput
from parhox.fields import QQ, PrimeField
from parhox.linalg import (QuotientSpace, Subspace, _char, _sp_identity,
                           _sp_kron, _sp_matmul, _sp_transpose, _sparse_matrix,
                           coordinates_in, identity, invert_matrix, matvec,
                           nullspace, rank, rref, solve, transpose)


def F(x):
    return Fraction(x)


def to_q(rows):
    return [[F(x) for x in row] for row in rows]


def test_rank_and_rref():
    M = to_q([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(QQ, M) == 2
    R, piv = rref(QQ, M)
    assert piv == [0, 1]
    assert rank(QQ, to_q([[0, 0], [0, 0]])) == 0
    assert rank(QQ, identity(QQ, 5)) == 5


def test_rank_matches_rref_randomized():
    rng = Random(3)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = [[F(rng.randrange(-4, 5)) / rng.randrange(1, 4) for _ in range(n)]
             for _ in range(m)]
        assert rank(QQ, M) == len(rref(QQ, M)[1])


def test_nullspace():
    M = to_q([[1, 2], [2, 4]])
    ns = nullspace(QQ, M)
    assert len(ns) == 1
    for v in ns:
        assert matvec(QQ, M, v) == [QQ.zero] * 2
    assert nullspace(QQ, [], 3) == [list(r) for r in identity(QQ, 3)]
    F5 = PrimeField(5)
    M5 = [[1, 2], [3, 2]]   # det = -4 = 1 mod 5, invertible
    assert nullspace(F5, M5) == []


def test_solve():
    M = to_q([[1, 1], [0, 1]])
    x = solve(QQ, M, [F(3), F(2)])
    assert x == [F(1), F(2)]
    assert solve(QQ, to_q([[1, 1], [1, 1]]), [F(0), F(1)]) is None


def test_solve_rejects_mismatched_shapes():
    # one right-hand side per equation: a matrix without rows does not
    # "solve" a nonzero b, and no equation or right-hand side is dropped
    for M, b in (([], [F(1)]), (to_q([[1, 1]]), [F(1), F(2)]),
                 (to_q([[1], [2]]), [F(1)])):
        with pytest.raises(InvalidInput):
            solve(QQ, M, b)
    assert solve(QQ, [], []) == []


def test_invert():
    M = to_q([[1, 2], [3, 4]])
    Minv = invert_matrix(QQ, M)
    assert _sp_matmul(_sparse_matrix(QQ, M), _sparse_matrix(QQ, Minv), 0) \
        == _sp_identity(2)
    assert invert_matrix(QQ, to_q([[1, 2], [2, 4]])) is None


def test_subspace_and_quotient():
    sub = Subspace(QQ, 3)
    assert sub.add([F(1), F(1), F(0)])
    assert sub.add([F(0), F(1), F(1)])
    assert not sub.add([F(1), F(2), F(1)])
    assert sub.dim == 2
    assert sub.contains([F(2), F(3), F(1)])
    assert not sub.contains([F(0), F(0), F(1)])
    Q = QuotientSpace(QQ, 3, sub)
    assert Q.dim == 1
    assert Q.project([F(1), F(1), F(0)]) == [F(0)]
    v = Q.lift([F(1)])
    assert Q.project(v) == [F(1)]


def test_subspace_order_independent():
    rng = Random(11)
    for _ in range(20):
        vecs = [[F(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(5)]
        s1 = Subspace(QQ, 4, vecs)
        s2 = Subspace(QQ, 4, list(reversed(vecs)))
        assert s1.basis() == s2.basis()


def test_prime_field_paths():
    F7 = PrimeField(7)
    M = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
    assert rank(F7, M) == 2
    ns = nullspace(F7, M)
    assert len(ns) == 1
    assert matvec(F7, M, ns[0]) == [0, 0, 0]
    assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


# -- differential tests against a naive dense Gauss-Jordan reference -------

def ref_rref(K, M, n):
    """Textbook Gauss-Jordan on dense rows: (nonzero RREF rows, pivots)."""
    rows = [list(r) for r in M]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != K.zero),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.inv(rows[r][col])
        rows[r] = [K.mul(inv, a) for a in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f != K.zero:
                rows[i] = [K.sub(a, K.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def ref_nullspace(K, M, n):
    rows, pivots = ref_rref(K, M, n)
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [K.zero] * n
        v[fc] = K.one
        for row, pc in zip(rows, pivots):
            v[pc] = K.neg(row[fc])
        out.append(v)
    return out


def ref_solve(K, M, b, n):
    rows, pivots = ref_rref(K, [list(r) + [x] for r, x in zip(M, b)], n + 1)
    if n in pivots:
        return None
    x = [K.zero] * n
    for row, pc in zip(rows, pivots):
        x[pc] = row[n]
    return x


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]
SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (4, 4), (5, 3), (3, 12), (2, 9),
          (8, 6), (6, 15)]


def random_matrix(K, rng, m, n, density):
    def entry():
        if rng.random() >= density:
            return K.zero
        if K.kind == "Q":
            return F(rng.randrange(-3, 4)) / rng.choice([1, 1, 1, 2, 3])
        return rng.randrange(K.characteristic)
    return [[entry() for _ in range(n)] for _ in range(m)]


def random_cases():
    rng = Random(2024)
    for K in FIELDS:
        for m, n in SHAPES:
            for density in (0.0, 0.15, 0.5, 1.0):
                yield K, random_matrix(K, rng, m, n, density), n
            # low rank: a product of thin random factors
            if m and n:
                k = rng.randrange(1, 3)
                A = random_matrix(K, rng, m, k, 0.7)
                B = random_matrix(K, rng, k, n, 0.7)
                yield K, ref_matmul(K, A, B, n), n


def same_values(K, got, want):
    """Equal, and over Q every entry is a Fraction."""
    assert got == want
    if K.kind == "Q":
        for row in got:
            assert all(type(a) is Fraction for a in row)


def test_kernel_matches_dense_reference():
    for K, M, n in random_cases():
        rows, pivots = ref_rref(K, M, n)
        assert rank(K, M) == len(pivots)
        got_rows, got_pivots = rref(K, M)
        assert got_pivots == pivots
        same_values(K, got_rows[:len(pivots)], rows)
        assert all(a == K.zero for r in got_rows[len(pivots):] for a in r)
        assert len(got_rows) == len(M)
        same_values(K, nullspace(K, M, n), ref_nullspace(K, M, n))
        sub = Subspace(K, n, M)
        assert sub.pivots == pivots and sub.dim == len(pivots)
        same_values(K, sub.basis(), rows)


def test_solve_matches_dense_reference():
    rng = Random(77)
    for K, M, n in random_cases():
        m = len(M)
        n = n if m else 0        # no rows: solve cannot see the width
        # a consistent right-hand side and a random (usually not) one
        x0 = random_matrix(K, rng, 1, n, 0.6)[0] if n else []
        for b in (matvec(K, M, x0), random_matrix(K, rng, 1, m, 0.8)[0]):
            got, want = solve(K, M, b), ref_solve(K, M, b, n)
            assert got == want
            if got is not None:
                assert matvec(K, M, got) == list(b)
                same_values(K, [got], [want])


def test_subspace_reduce_is_the_canonical_normal_form():
    rng = Random(5)
    for K in FIELDS:
        for _ in range(20):
            n = rng.randrange(1, 8)
            vecs = random_matrix(K, rng, rng.randrange(0, 5), n, 0.5)
            sub = Subspace(K, n, vecs)
            v = random_matrix(K, rng, 1, n, 0.8)[0]
            rows, pivots = ref_rref(K, vecs, n)
            want = list(v)
            for row, pc in zip(rows, pivots):
                f = want[pc]
                want = [K.sub(a, K.mul(f, b)) for a, b in zip(want, row)]
            assert sub.reduce(v) == want
            assert sub.contains(v) == all(a == K.zero for a in want)


def test_coordinates_match_solve():
    """`Subspace.coords` (in the reduced basis) and `coordinates_in` (in a
    fixed independent list) give what `solve` gives on the same basis, for
    vectors in and out of the span, the zero vector and 0-dimensional
    subspaces; an empty basis is an n x 0 matrix for `solve`."""
    rng = Random(31)
    for K in FIELDS:
        for trial in range(30):
            n = rng.randrange(0, 7)
            vecs = random_matrix(K, rng, rng.randrange(0, 6), n,
                                 rng.choice([0.0, 0.3, 0.7]))
            span, indep = Subspace(K, n), []
            for v in vecs:
                if span.add(v):
                    indep.append(v)
            sub = Subspace(K, n, vecs)
            coords_of = coordinates_in(span, indep)
            c = random_matrix(K, rng, 1, len(indep), 0.7)[0]
            inside = matvec(K, transpose(indep), c) if indep else [K.zero] * n
            for v in (inside, [K.zero] * n,
                      random_matrix(K, rng, 1, n, 0.8)[0]):
                for basis, got in ((sub.basis(), sub.coords(v)),
                                   (indep, coords_of(v))):
                    want = solve(K, transpose(basis) or [[] for _ in v], v)
                    assert got == want
                    if got is not None:
                        same_values(K, [got], [want])
            if indep:
                assert coords_of(inside) == c
    # the zero subspace holds only the zero vector
    for K in FIELDS:
        empty = Subspace(K, 3)
        assert empty.coords([K.zero] * 3) == []
        assert empty.coords([K.one, K.zero, K.zero]) is None
        assert coordinates_in(empty, [])([K.zero] * 3) == []


def ref_matvec(K, M, v):
    """The cell-by-cell product, zero-testing every pair."""
    out = []
    for row in M:
        acc = K.zero
        for a, x in zip(row, v):
            if a and x:
                acc = K.add(acc, K.mul(a, x))
        out.append(acc)
    return out


def test_matvec_matches_the_cell_by_cell_product():
    rng = Random(8)
    for K, M, n in random_cases():
        for density in (0.0, 0.4, 1.0):
            v = random_matrix(K, rng, 1, n, density)[0] if n else []
            same_values(K, [matvec(K, M, v)], [ref_matvec(K, M, v)])


# -- sparse matmul against a naive dense triple loop -----------------------

def ref_matmul(K, A, B, n):
    """Textbook triple loop; B has n columns (it may have no rows)."""
    out = []
    for row in A:
        new = []
        for j in range(n):
            acc = K.zero
            for a, brow in zip(row, B):
                acc = K.add(acc, K.mul(a, brow[j]))
            new.append(acc)
        out.append(new)
    return out


# (m, k, n): A is m x k, B is k x n; empty, n x 0, k = 0 and wide shapes
PRODUCT_SHAPES = [(0, 0, 0), (0, 3, 2), (3, 0, 0), (4, 2, 0), (1, 1, 1),
                  (4, 4, 4), (3, 5, 2), (2, 3, 12), (1, 6, 9), (7, 2, 5),
                  (5, 8, 15)]


def sp_product(K, A, B):
    """_sp_matmul of the kernel rows of dense A and B."""
    return _sp_matmul(_sparse_matrix(K, A), _sparse_matrix(K, B), _char(K))


def test_sp_matmul_matches_dense_reference():
    rng = Random(41)
    for K in FIELDS:
        for m, k, n in PRODUCT_SHAPES:
            for density in (0.0, 0.15, 0.5, 1.0):
                A = random_matrix(K, rng, m, k, density)
                B = random_matrix(K, rng, k, n, rng.choice((0.15, density)))
                got = sp_product(K, A, B)
                want = ref_matmul(K, A, B, n)
                assert_kernel_rows(K, got, m, n)
                assert got == _sparse_matrix(K, want)
                assert densify(K, got, n) == want


def test_sp_matmul_all_zero_and_identity():
    for K in FIELDS:
        Z = [[K.zero] * 3 for _ in range(2)]
        B = [[K.one, K.zero, K.one]] * 3
        assert sp_product(K, Z, B) == [{}, {}]
        Bs = _sparse_matrix(K, B)
        p = _char(K)
        assert _sp_matmul(_sp_identity(3), Bs, p) == Bs
        assert _sp_matmul(Bs, _sp_identity(3), p) == Bs
    # over Q a cancelled sum is dropped, and an integral one is kept
    half = Fraction(1, 2)
    assert sp_product(QQ, [[half, F(2)]], [[F(2)], [-half]]) == [{}]
    got = sp_product(QQ, [[F(3)]], [[Fraction(1, 3)]])
    assert got == [{0: 1}]
    assert_kernel_rows(QQ, got, 1, 1)


def matrices(K, m, n):
    if K.kind == "Q":
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, K.characteristic - 1)
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=m, max_size=m)


@st.composite
def product_triples(draw):
    K = draw(st.sampled_from(FIELDS))
    # the inner dimensions k and l may be 0: kernel rows keep no width, so
    # a product with a rowless factor still has the caller's shape
    m, n = (draw(st.integers(1, 4)) for _ in range(2))
    k, l = (draw(st.integers(0, 4)) for _ in range(2))
    return (K, (m, l, n), draw(matrices(K, m, k)), draw(matrices(K, k, l)),
            draw(matrices(K, l, n)))


@settings(max_examples=150, deadline=None)
@given(product_triples())
def test_sp_matmul_is_associative_and_matches_reference(case):
    K, (m, l, n), A, B, C = case
    p = _char(K)
    A, B, C = (_sparse_matrix(K, X) for X in (A, B, C))
    AB = _sp_matmul(A, B, p)
    assert AB == _sparse_matrix(K, ref_matmul(K, densify(K, A, len(B)),
                                              densify(K, B, l), l))
    assert_kernel_rows(K, AB, m, l)
    ABC = _sp_matmul(AB, C, p)
    assert ABC == _sp_matmul(A, _sp_matmul(B, C, p), p)
    assert_kernel_rows(K, ABC, m, n)


# -- sparse Kronecker product and transpose against dense references -------

# ((rows, cols) of A, (rows, cols) of B), with 0-row and 0-column factors
KRON_SHAPES = [((0, 0), (2, 3)), ((0, 3), (2, 2)), ((2, 0), (3, 2)),
               ((2, 3), (0, 4)), ((3, 2), (2, 0)), ((1, 1), (1, 1)),
               ((2, 3), (3, 2)), ((3, 3), (4, 4)), ((4, 2), (1, 5))]


def test_sp_kron_matches_dense_reference():
    rng = Random(59)
    for K in FIELDS:
        for (ma, na), (mb, nb) in KRON_SHAPES:
            for density in (0.0, 0.3, 1.0):
                A = random_matrix(K, rng, ma, na, density)
                B = random_matrix(K, rng, mb, nb, density)
                want = dense_kron(K, A, B, (ma, na), (mb, nb))
                got = _sp_kron(_sparse_matrix(K, A), _sparse_matrix(K, B), nb,
                               _char(K))
                assert len(got) == ma * mb
                # normalized: no stored zeros, residues in [0, p)
                assert got == _sparse_matrix(K, want)
                assert densify(K, got, na * nb) == want


def test_sp_transpose_matches_dense_transpose():
    rng = Random(61)
    for K in FIELDS:
        for m, n in SHAPES:
            A = random_matrix(K, rng, m, n, 0.4)
            got = _sp_transpose(_sparse_matrix(K, A), n)
            assert len(got) == n
            if m and n:
                assert densify(K, got, m) == transpose(A)
            assert _sp_transpose(got, m) == _sparse_matrix(K, A)
