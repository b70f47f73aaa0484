"""Exact linear algebra over a Field, with one sparse elimination kernel.

Conventions used across the whole package:

  * a vector is a list of field values;
  * a matrix is a list of kernel rows (`{col: value}` dicts, below) whose
    column count the caller carries; only the public functions below take
    dense lists of rows;
  * the linear map of an m x n matrix M is  v |-> M . v  (column vector);
  * composition of maps is _sp_matmul(A, B) ("A after B").

`rank`, `rref`, `nullspace`, `solve`, `invert_matrix` and `Subspace` take
and return dense values, but all of them eliminate on sparse rows:
`{col: value}` dicts kept in row echelon form under their leading column
(`_Echelon`).  Over F_p the values are int residues; over Q they are ints
where the value is integral and Fractions otherwise, so that the common +-1
entries never pay for Fraction arithmetic.  A vector is reduced against the
stored rows in increasing pivot order, input rows are taken sparsest first,
and the fully reduced (canonical) form is produced only when a caller needs
it.  Callers that build sparse data themselves use the kernel and its
underscore helpers directly.

Coordinates are never found by solving a system per vector.  In a
`Subspace`'s own basis, which is its reduced row echelon form,
`Subspace.coords(v)` reads v's entries at the pivots once v's remainder is
checked to be zero.  In any other fixed independent list V,
`coordinates_in(span, V)` inverts the k x k block of V at the pivots of
its span once (`invert_matrix`); a vector then costs the same remainder
check and one k x k product.  `solve` is kept for real linear systems.

Matrices get the same treatment, in one sparse-matrix layer:
`_sparse_matrix` turns a dense matrix into a list of kernel rows once,
where input enters (`_sp_identity` is the identity in that form),
`_sp_matmul` multiplies two such lists row by row (Gustavson's row-wise
product, ACM TOMS 4, 1978: each row of A adds up a_ik * (row k of B) over
its nonzero a_ik in a dict), `_sp_matvec` applies one to a kernel row taken
as a column, `_sp_combination` forms sum_k c_k X_k, `_sp_kron` the
Kronecker product and `_sp_transpose` the transpose (a row list does not
carry its column count, so both take it).  Results are normalized like
`_nonzero` (reduced mod p over F_p, zeros dropped), so two matrices are
equal exactly when their row lists compare equal.  Module actions and
algebra maps in `algebras`, and the Hochschild chain complexes and the
group action on them in `homology`, are kernel rows from the start.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import InvalidInput

__all__ = [
    "zeros", "identity", "matvec", "transpose", "rank", "rref",
    "nullspace", "solve", "invert_matrix", "Subspace", "QuotientSpace",
    "coordinates_in",
]


def zeros(K, m, n):
    z = K.zero
    return [[z] * n for _ in range(m)]


def identity(K, n):
    M = zeros(K, n, n)
    for i in range(n):
        M[i][i] = K.one
    return M


def matvec(K, M, v):
    mul, add, zero = K.mul, K.add, K.zero
    support = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in M:
        acc = zero
        for j, x in support:
            a = row[j]
            if a:
                acc = add(acc, mul(a, x))
        out.append(acc)
    return out


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def _char(K):
    return 0 if K.kind == "Q" else K.characteristic


def _scalar(K, a):
    """A field value as a kernel scalar."""
    if K.kind == "Q":
        return a.numerator if a.denominator == 1 else a
    return a % K.characteristic


def _nonzero(v, p):
    """v without its zero entries (reduced mod p over F_p)."""
    if p:
        return {j: x % p for j, x in v.items() if x % p}
    return {j: x for j, x in v.items() if x}


def _sparse(K, vec):
    """The nonzero entries of a dense vector as a kernel row."""
    p = _char(K)
    if p:
        return {j: a % p for j, a in enumerate(vec) if a % p}
    # `is not z` skips the shared zero of zeros() and _dense() without a
    # (Python-level) Fraction.__bool__ call
    z = K.zero
    return {j: a.numerator if a.denominator == 1 else a
            for j, a in enumerate(vec) if a is not z and a}


def _dense(K, row, n):
    """A kernel row as a dense vector of length n over K."""
    out = [K.zero] * n
    if K.kind == "Q":
        for j, a in row.items():
            out[j] = a if type(a) is Fraction else Fraction(a)
    else:
        for j, a in row.items():
            out[j] = a
    return out


def _sparse_matrix(K, M):
    """A dense matrix as a list of kernel rows."""
    return [_sparse(K, row) for row in M]


def _sp_identity(n):
    """The n x n identity as kernel rows."""
    return [{r: 1} for r in range(n)]


def _sp_transpose(rows, ncols):
    """The transpose of a matrix of kernel rows with ncols columns."""
    out = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, a in row.items():
            out[c][r] = a
    return out


def _sp_kron(A, B, nb, p):
    """The Kronecker product of kernel-row matrices A and B, B with nb
    columns, on the lexicographic tensor basis: row i * len(B) + k holds
    a_ij b_kl at column j * nb + l."""
    return [_nonzero({j * nb + l: a * b for j, a in arow.items()
                      for l, b in brow.items()}, p)
            for arow in A for brow in B]


def _sp_matmul(A, B, p):
    """A . B for matrices given as kernel rows, normalized like `_nonzero`."""
    out = []
    for row in A:
        acc = {}
        get = acc.get
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = get(j, 0) + a * b
        out.append(_nonzero(acc, p))
    return out


def _sp_matvec(A, x, p):
    """A . x for a matrix A of kernel rows and a kernel row x taken as a
    column; the result is a kernel row indexed by the rows of A."""
    out = {}
    for r, row in enumerate(A):
        acc = 0
        for j, a in row.items():
            b = x.get(j)
            if b is not None:
                acc += a * b
        if p:
            acc %= p
        if acc:
            out[r] = acc
    return out


def _sp_combination(terms, nrows, p):
    """sum_k c_k X_k over (c_k, X_k) pairs of kernel scalars and kernel-row
    matrices with nrows rows, normalized like `_nonzero`."""
    out = [{} for _ in range(nrows)]
    for c, X in terms:
        if not c:
            continue
        for acc, row in zip(out, X):
            get = acc.get
            for j, x in row.items():
                acc[j] = get(j, 0) + c * x
    return [_nonzero(acc, p) for acc in out]


def _inv(a, p):
    if p:
        return pow(a, p - 2, p)
    if a == 1 or a == -1:
        return a
    inv = 1 / Fraction(a)
    return inv.numerator if inv.denominator == 1 else inv


class _Echelon:
    """Sparse row echelon form over Q (p = 0) or F_p.

    `rows[c]` is the row with leading column c, monic there; only its tail
    (the entries right of c) is stored.  `reduce` clears every pivot column
    of a vector, which is its canonical normal form modulo the row span.
    `rref` back-substitutes, so that no tail holds a pivot column, and
    returns the unique reduced row echelon form.
    """

    __slots__ = ("p", "rows", "reduced")

    def __init__(self, p):
        self.p = p
        self.rows = {}
        self.reduced = True

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        """Subtract rows from v in place until no pivot column is left."""
        rows, p = self.rows, self.p
        todo = [c for c in v if c in rows]
        if not todo:
            return v
        heapify(todo)
        while todo:
            c = heappop(todo)
            a = v.pop(c, 0)
            if not a:
                continue
            for j, x in rows[c].items():
                y = v.get(j)
                if y is None:
                    v[j] = (-a * x) % p if p else -a * x
                    if j in rows:
                        heappush(todo, j)
                else:
                    y = (y - a * x) % p if p else y - a * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def add(self, v):
        """Reduce v (consumed) and keep it as a row; False if v was in the
        span already."""
        self.reduce(v)
        if not v:
            return False
        c = min(v)
        a = v.pop(c)
        if a != 1:
            p = self.p
            inv = _inv(a, p)
            if p:
                v = {j: x * inv % p for j, x in v.items()}
            else:
                v = {j: x * inv for j, x in v.items()}
                for j, x in v.items():
                    if type(x) is Fraction and x.denominator == 1:
                        v[j] = x.numerator
        self.rows[c] = v
        self.reduced = False
        return True

    def rref(self):
        """[(pivot, tail)] by increasing pivot, fully reduced."""
        pivots = sorted(self.rows)
        if not self.reduced:
            for c in reversed(pivots):
                self.reduce(self.rows[c])
            self.reduced = True
        return [(c, self.rows[c]) for c in pivots]


def _echelon_of(K, vectors):
    """The echelon form of kernel rows (consumed), sparsest first."""
    ech = _Echelon(_char(K))
    for v in sorted(vectors, key=len):
        ech.add(v)
    return ech


def _rank_of(K, vectors):
    """Rank of kernel rows (consumed)."""
    return len(_echelon_of(K, vectors))


def _kernel_of(K, rows, ncols):
    """Basis of {v : M v = 0} for M given by kernel rows (consumed): one
    vector per free column, in increasing order, as kernel rows."""
    rref = _echelon_of(K, rows).rref()
    pivset = {c for c, _ in rref}
    ker = {fc: {fc: 1} for fc in range(ncols) if fc not in pivset}
    p = _char(K)
    for c, tail in rref:
        for j, x in tail.items():
            ker[j][c] = (-x) % p if p else -x
    return list(ker.values())


def _dense_rref(K, ech, n):
    """The reduced rows of an echelon form as dense vectors, and their
    pivots."""
    rows, pivots = [], []
    for c, tail in ech.rref():
        row = _dense(K, tail, n)
        row[c] = K.one
        rows.append(row)
        pivots.append(c)
    return rows, pivots


def rank(K, M):
    return _rank_of(K, [_sparse(K, row) for row in M])


def rref(K, M):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    n = len(M[0]) if M else 0
    rows, pivots = _dense_rref(
        K, _echelon_of(K, [_sparse(K, row) for row in M]), n)
    rows.extend([K.zero] * n for _ in range(len(M) - len(rows)))
    return rows, pivots


def nullspace(K, M, ncols=None):
    """Basis of the right kernel {v : M v = 0}."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    return [_dense(K, v, ncols)
            for v in _kernel_of(K, [_sparse(K, row) for row in M], ncols)]


def solve(K, M, b):
    """One solution of M x = b, or None if inconsistent."""
    if len(M) != len(b):
        raise InvalidInput(f"solve: {len(M)} equations but {len(b)} "
                           f"right-hand sides")
    n = len(M[0]) if M else 0
    rows = [_sparse(K, list(row) + [bi]) for row, bi in zip(M, b)]
    x = {}
    for c, tail in _echelon_of(K, rows).rref():
        # inconsistent iff a pivot lands in the last column
        if c == n:
            return None
        if n in tail:
            x[c] = tail[n]
    return _dense(K, x, n)


def invert_matrix(K, M):
    """The inverse of a square matrix, or None if it is singular."""
    n = len(M)
    aug = [row + unit for row, unit in zip(M, identity(K, n))]
    rows, pivots = rref(K, aug)
    if pivots != list(range(n)):
        return None
    return [rows[i][n:] for i in range(n)]


class Subspace:
    """A subspace of K^n in echelon form; `basis()` is its reduced row
    echelon form (monic pivots)."""

    __slots__ = ("K", "n", "ech")

    def __init__(self, K, n, vectors=()):
        self.K = K
        self.n = n
        self.ech = _Echelon(_char(K))
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.ech)

    @property
    def pivots(self):
        return sorted(self.ech.rows)

    def reduce(self, v):
        """Fully reduce v by the stored echelon basis (returns a copy)."""
        return _dense(self.K, self.ech.reduce(_sparse(self.K, v)), self.n)

    def contains(self, v):
        return not self.ech.reduce(_sparse(self.K, v))

    def add(self, v):
        """Add v to the span; True if the dimension grew."""
        return self.ech.add(_sparse(self.K, v))

    def basis(self):
        return _dense_rref(self.K, self.ech, self.n)[0]

    def coords(self, v):
        """The coordinates of v in `basis()`, or None when v is outside the
        span.  The basis is reduced, so they are v's entries at the
        pivots, read once v's remainder is checked to be zero."""
        rref = self.ech.rref()
        x = _sparse(self.K, v)
        coords = {i: x[c] for i, (c, _) in enumerate(rref) if c in x}
        if self.ech.reduce(x):
            return None
        return _dense(self.K, coords, len(rref))


class QuotientSpace:
    """K^n / W with canonical coordinates at the non-pivot positions of W."""

    __slots__ = ("K", "n", "sub", "free", "dim")

    def __init__(self, K, n, sub):
        assert isinstance(sub, Subspace) and sub.n == n
        self.K = K
        self.n = n
        self.sub = sub
        pivset = set(sub.pivots)
        self.free = [c for c in range(n) if c not in pivset]
        self.dim = len(self.free)

    def project(self, v):
        r = self.sub.reduce(v)
        return [r[c] for c in self.free]

    def lift(self, coords):
        v = [self.K.zero] * self.n
        for c, a in zip(self.free, coords):
            v[c] = a
        return v


def coordinates_in(span, vectors):
    """v -> the coordinates of v in `vectors`, an independent list whose
    span is the Subspace `span`, or None when v is outside it.  The k x k
    block of the vectors at the pivots of the span is inverted here, once:
    the span's reduced basis is the identity there, so that block is
    invertible and determines the coordinates."""
    K = span.K
    pivots = [c for c, _ in span.ech.rref()]
    assert len(pivots) == len(vectors), "the vectors are not independent"
    inv = invert_matrix(K, [[v[c] for v in vectors] for c in pivots])

    def coords(v):
        if not span.contains(v):
            return None
        return matvec(K, inv, [v[c] for c in pivots])
    return coords
