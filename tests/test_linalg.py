from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

import pytest

from conftest import (assert_kernel_rows, dense_kron, dense_row, densify,
                      matvec, ref_rref, sp_kron, sparse_rows, transpose)
from parhox.errors import InvalidInput
from parhox.fields import QQ, PrimeField
from parhox.linalg import (QuotientSpace, Subspace, _char, _echelon_of,
                           _kernel_of, _rank_of, _sp_combination,
                           _sp_identity,
                           _sp_matmul, _sp_matvec, _sp_transpose, _sparse,
                           _sparse_matrix, coordinates_in, solve)


def F(x):
    return Fraction(x)


def to_q(rows):
    return [[F(x) for x in row] for row in rows]


def rank_of(K, M):
    """The kernel's rank of a dense matrix."""
    return _rank_of(K, sparse_rows(K, M))


def rref_of(K, M, n):
    """The kernel's reduced row echelon form of a dense matrix, densified:
    (rows, pivots)."""
    rref = _echelon_of(K, sparse_rows(K, M)).rref()
    return ([dense_row(K, {c: 1, **tail}, n) for c, tail in rref],
            [c for c, _ in rref])


def test_rank_and_rref():
    M = to_q([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank_of(QQ, M) == 2
    R, piv = rref_of(QQ, M, 3)
    assert piv == [0, 1]
    assert R == to_q([[1, 0, 1], [0, 1, 1]])
    assert rank_of(QQ, to_q([[0, 0], [0, 0]])) == 0
    assert _rank_of(QQ, _sp_identity(5)) == 5


def test_rank_matches_rref_randomized():
    rng = Random(3)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = [[F(rng.randrange(-4, 5)) / rng.randrange(1, 4) for _ in range(n)]
             for _ in range(m)]
        assert rank_of(QQ, M) == len(rref_of(QQ, M, n)[1])


def test_nullspace():
    M = sparse_rows(QQ, to_q([[1, 2], [2, 4]]))
    ns = _kernel_of(QQ, [dict(r) for r in M], 2)
    assert ns == [{0: -2, 1: 1}]
    for v in ns:
        assert _sp_matvec(M, v, 0) == {}
    assert _kernel_of(QQ, [], 3) == _sp_identity(3)
    F5 = PrimeField(5)
    M5 = [[1, 2], [3, 2]]   # det = -4 = 1 mod 5, invertible
    assert _kernel_of(F5, sparse_rows(F5, M5), 2) == []


def test_solve():
    M = sparse_rows(QQ, to_q([[1, 1], [0, 1]]))
    assert solve(QQ, M, 2, {0: 3, 1: 2}) == {0: 1, 1: 2}
    assert solve(QQ, sparse_rows(QQ, to_q([[1, 1], [1, 1]])), 2,
                 {1: 1}) is None
    # free unknowns are 0, and a zero right-hand side gives the zero vector
    assert solve(QQ, [{0: 1, 1: 1}], 2, {0: 5}) == {0: 5}
    assert solve(QQ, M, 2, {}) == {}


def test_solve_rejects_mismatched_shapes():
    # one right-hand side per equation: a system without equations does not
    # "solve" a nonzero b, and no equation may reach past the unknowns
    for rows, n, b in (([], 0, {0: 1}), ([{0: 1, 1: 1}], 2, {1: 2}),
                       ([{0: 1}, {2: 1}], 2, {0: 1})):
        with pytest.raises(InvalidInput):
            solve(QQ, rows, n, b)
    assert solve(QQ, [], 0, {}) == {}
    assert solve(QQ, [{}], 3, {}) == {}


def test_invert():
    # the coordinates of the unit vectors in the columns of M are the
    # columns of M^-1
    M = to_q([[1, 2], [3, 4]])
    coords_of = coordinates_in(QQ, 2, sparse_rows(QQ, transpose(M)))
    inv_cols = [coords_of({j: 1}) for j in range(2)]
    assert _sp_matmul(sparse_rows(QQ, M), _sp_transpose(inv_cols, 2), 0) \
        == _sp_identity(2)
    with pytest.raises(AssertionError):
        coordinates_in(QQ, 2, sparse_rows(QQ, to_q([[1, 2], [2, 4]])))


def test_subspace_and_quotient():
    sub = Subspace(QQ, 3)
    assert sub.add({0: 1, 1: 1})
    assert sub.add({1: 1, 2: 1})
    assert not sub.add({0: 1, 1: 2, 2: 1})
    assert sub.dim == 2
    assert sub.contains({0: 2, 1: 3, 2: 1})
    assert not sub.contains({2: 1})
    Q = QuotientSpace(QQ, 3, sub)
    assert Q.dim == 1
    assert Q.project({0: 1, 1: 1}) == {}
    v = Q.lift({0: 1})
    assert Q.project(v) == {0: 1}
    # the vectors passed in are left as they were
    w = {0: 1, 1: 2, 2: 1}
    sub.add(w), sub.reduce(w), sub.contains(w), Q.project(w)
    assert w == {0: 1, 1: 2, 2: 1}


def test_subspace_order_independent():
    rng = Random(11)
    for _ in range(20):
        vecs = [_sparse(QQ, [F(rng.randrange(-3, 4)) for _ in range(4)])
                for _ in range(5)]
        s1 = Subspace(QQ, 4, vecs)
        s2 = Subspace(QQ, 4, list(reversed(vecs)))
        assert s1.basis() == s2.basis()


def test_prime_field_paths():
    F7 = PrimeField(7)
    M = sparse_rows(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert _rank_of(F7, [dict(r) for r in M]) == 2
    ns = _kernel_of(F7, [dict(r) for r in M], 3)
    assert len(ns) == 1
    assert _sp_matvec(M, ns[0], 7) == {}
    assert _sp_transpose([{0: 1, 1: 2}, {0: 3, 1: 4}], 2) == \
        [{0: 1, 1: 3}, {0: 2, 1: 4}]


# -- differential tests against a naive dense Gauss-Jordan reference -------

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


def same_rows(K, got, want, n):
    """got, a list of normalized kernel rows of length n, is the dense
    matrix want."""
    assert_kernel_rows(K, got, len(want), n)
    assert densify(K, got, n) == want


def test_kernel_matches_dense_reference():
    for K, M, n in random_cases():
        rows, pivots = ref_rref(K, M, n)
        assert rank_of(K, M) == len(pivots)
        rref = _echelon_of(K, sparse_rows(K, M)).rref()
        assert [c for c, _ in rref] == pivots
        same_rows(K, [{c: 1, **tail} for c, tail in rref], rows, n)
        same_rows(K, _kernel_of(K, sparse_rows(K, M), n),
                  ref_nullspace(K, M, n), n)
        sub = Subspace(K, n, sparse_rows(K, M))
        assert sub.pivots == pivots and sub.dim == len(pivots)
        same_rows(K, sub.basis(), rows, n)


def test_solve_matches_dense_reference():
    rng = Random(77)
    for K, M, n in random_cases():
        m = len(M)
        rows = sparse_rows(K, M)
        # a consistent right-hand side and a random (usually not) one
        x0 = random_matrix(K, rng, 1, n, 0.6)[0]
        for b in (matvec(K, M, x0), random_matrix(K, rng, 1, m, 0.8)[0]):
            got, want = solve(K, rows, n, _sparse(K, b)), \
                ref_solve(K, M, b, n)
            if want is None:
                assert got is None
            else:
                same_rows(K, [got], [want], n)
                assert matvec(K, M, want) == list(b)


def test_subspace_reduce_is_the_canonical_normal_form():
    rng = Random(5)
    for K in FIELDS:
        for _ in range(20):
            n = rng.randrange(1, 8)
            vecs = random_matrix(K, rng, rng.randrange(0, 5), n, 0.5)
            sub = Subspace(K, n, sparse_rows(K, vecs))
            v = random_matrix(K, rng, 1, n, 0.8)[0]
            rows, pivots = ref_rref(K, vecs, n)
            want = list(v)
            for row, pc in zip(rows, pivots):
                f = want[pc]
                want = [K.sub(a, K.mul(f, b)) for a, b in zip(want, row)]
            same_rows(K, [sub.reduce(_sparse(K, v))], [want], n)
            assert sub.contains(_sparse(K, v)) == \
                all(a == K.zero for a in want)


def test_coordinates_match_solve():
    """`Subspace.coords` (in the reduced basis) and `coordinates_in` (in a
    fixed independent list) give what `solve` gives on the same basis, for
    vectors in and out of the span, the zero vector and 0-dimensional
    subspaces."""
    rng = Random(31)
    for K in FIELDS:
        for trial in range(30):
            n = rng.randrange(0, 7)
            vecs = sparse_rows(K, random_matrix(
                K, rng, rng.randrange(0, 6), n, rng.choice([0.0, 0.3, 0.7])))
            span, indep = Subspace(K, n), []
            for v in vecs:
                if span.add(v):
                    indep.append(v)
            sub = Subspace(K, n, vecs)
            coords_of = coordinates_in(K, n, indep)
            c = _sparse(K, random_matrix(K, rng, 1, len(indep), 0.7)[0])
            inside = _sp_matvec(_sp_transpose(indep, n), c, _char(K))
            for v in (inside, {},
                      _sparse(K, random_matrix(K, rng, 1, n, 0.8)[0])):
                for basis, got in ((sub.basis(), sub.coords(v)),
                                   (indep, coords_of(v))):
                    # the equations of sum x_i basis_i = v, one per entry
                    want = solve(K, _sp_transpose(basis, n), len(basis), v)
                    assert got == want
                    if got is not None:
                        assert_kernel_rows(K, [got], 1, len(basis))
            assert coords_of(inside) == c
    # the zero subspace holds only the zero vector
    for K in FIELDS:
        empty = Subspace(K, 3)
        assert empty.coords({}) == {}
        assert empty.coords({0: 1}) is None
        assert coordinates_in(K, 3, [])({}) == {}
        assert coordinates_in(K, 3, [])({2: 1}) is None


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
            v = random_matrix(K, rng, 1, n, density)[0]
            got = _sp_matvec(sparse_rows(K, M), _sparse(K, v), _char(K))
            same_rows(K, [got], [ref_matvec(K, M, v)], len(M))


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


# -- sparse Kronecker product (the reference chain action's, in conftest) and
# transpose against dense references

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
                got = sp_kron(_sparse_matrix(K, A), _sparse_matrix(K, B), nb,
                              _char(K))
                assert len(got) == ma * mb
                # normalized: no stored zeros, residues in [0, p)
                assert got == _sparse_matrix(K, want)
                assert densify(K, got, na * nb) == want


def test_sp_combination_of_one_term_is_the_scaled_matrix():
    # one term scales X's rows without the accumulating pass; it must equal
    # the general sum, here with a zero second term, as kernel rows
    rng = Random(67)
    for K in FIELDS:
        p = _char(K)
        scalars = [K.zero, K.one, K.neg(K.one), K.from_int(2)] + (
            [F(-2) / 3] if K.kind == "Q" else [K.characteristic])
        for m, n in SHAPES:
            X = _sparse_matrix(K, random_matrix(K, rng, m, n, 0.5))
            for c in scalars:
                got = _sp_combination([(c, X)], m, p)
                assert got == _sp_combination([(c, X), (K.zero, X)], m, p)
                assert_kernel_rows(K, got, m, n)
                assert got is not X and all(
                    a is not b for a, b in zip(got, X))


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
