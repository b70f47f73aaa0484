"""Exact linear algebra over a Field, with one sparse elimination kernel.

Conventions used across the whole package:

  * a vector is a kernel row: a `{index: value}` dict holding only the
    nonzero entries, its length carried by the caller;
  * a matrix is a list of kernel rows whose column count the caller
    carries;
  * the linear map of an m x n matrix M is  v |-> M . v  (column vector);
  * composition of maps is _sp_matmul(A, B) ("A after B").

The values of a kernel row are kernel scalars, the one format of a field
value, which `fields` decides: over F_p int residues, over Q ints where
the value is integral and Fractions otherwise.  Python arithmetic on them
may leave an integral value as a Fraction; it equals the int, and the
kernel compares values, never types.  Results are normalized like
`_nonzero` (reduced mod p over F_p, zeros dropped), so two vectors or
matrices are equal exactly when their rows compare equal.  Dense lists of
field values exist only where JSON enters (`_sparse`, `_sparse_matrix`).

Elimination works on kernel rows kept in row echelon form under their
leading column (`_Echelon`).  A vector is reduced against the stored rows
in increasing pivot order, input rows are taken sparsest first, and the
fully reduced (canonical) form is produced only when a caller needs it.
`Subspace`, `QuotientSpace`, `coordinates_in` and `solve` are the public
face of the kernel; `_rank_of` and `_kernel_of` give ranks and kernels.

Coordinates are never found by solving a system per vector.  In a
`Subspace`'s own basis, which is its reduced row echelon form,
`Subspace.coords(v)` reads v's entries at the pivots once v's remainder is
checked to be zero.  In any other fixed independent list V,
`coordinates_in` keeps each v_i tagged with a unit vector, in one echelon
form built once, and a vector then costs one reduction.  `solve` is kept
for real linear systems.

The sparse-matrix layer: `_sp_identity` is the identity,
`_sp_matmul` multiplies two row lists row by row (Gustavson's row-wise
product, ACM TOMS 4, 1978: each row of A adds up a_ik * (row k of B) over
its nonzero a_ik in a dict), `_sp_matvec` applies one to a kernel row taken
as a column, `_sp_combination` forms sum_k c_k X_k of matrices,
`_sp_sum` sum_k c_k v_k of vectors and `_sp_transpose` the transpose (a
row list does not carry its column count, so it takes it).  Algebra
elements, module actions, algebra maps, partial actions, and the
Hochschild chain complexes and the group action on them are kernel rows
from the start.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import InvalidInput

__all__ = ["solve", "Subspace", "QuotientSpace", "coordinates_in"]


def _char(K):
    return 0 if K.kind == "Q" else K.characteristic


def _nonzero(v, p):
    """v without its zero entries (reduced mod p over F_p)."""
    if p:
        return {j: x % p for j, x in v.items() if x % p}
    return {j: x for j, x in v.items() if x}


def _sparse(K, vec):
    """A dense vector of field values, as read from JSON, as a kernel row."""
    return _nonzero(dict(enumerate(vec)), _char(K))


def _sparse_matrix(K, M):
    """A dense matrix, as read from JSON, as a list of kernel rows."""
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
    if len(terms) == 1:
        # one term (as every product of two monomials is): X's rows scaled
        c, X = terms[0]
        if p:
            c %= p
        if c == 1:
            return [dict(row) for row in X]
        if not c:
            return [{} for _ in range(nrows)]
        if p:
            return [{j: c * x % p for j, x in row.items()} for row in X]
        return [{j: c * x for j, x in row.items()} for row in X]
    out = [{} for _ in range(nrows)]
    for c, X in terms:
        if not c:
            continue
        for acc, row in zip(out, X):
            get = acc.get
            for j, x in row.items():
                acc[j] = get(j, 0) + c * x
    return [_nonzero(acc, p) for acc in out]


def _sp_sum(terms, p):
    """sum_k c_k v_k over (c_k, v_k) pairs of kernel scalars and kernel rows,
    normalized like `_nonzero`."""
    out = {}
    get = out.get
    for c, v in terms:
        for j, x in v.items():
            out[j] = get(j, 0) + c * x
    return _nonzero(out, p)


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


def solve(K, rows, n, b):
    """One solution x of M x = b, or None if there is none.  M is given by
    its kernel rows (one per equation) over n unknowns and b by a kernel
    row indexed by the equations; x is a kernel row indexed by the
    unknowns, with every free unknown 0."""
    if any(r >= len(rows) for r in b) or \
            any(c >= n for row in rows for c in row):
        raise InvalidInput(f"solve: {len(rows)} equations in {n} unknowns, "
                           f"right-hand side at rows {sorted(b)}")
    aug = [{**row, n: b[r]} if r in b else dict(row)
           for r, row in enumerate(rows)]
    x = {}
    for c, tail in _echelon_of(K, aug).rref():
        # inconsistent iff a pivot lands in the last column
        if c == n:
            return None
        if n in tail:
            x[c] = tail[n]
    return x


class Subspace:
    """A subspace of K^n in echelon form; `basis()` is its reduced row
    echelon form (monic pivots).  Vectors are kernel rows, and a vector
    passed in is never changed."""

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
        """v fully reduced by the stored echelon basis, as a new row."""
        return self.ech.reduce(dict(v))

    def contains(self, v):
        return not self.ech.reduce(dict(v))

    def add(self, v):
        """Add v to the span; True if the dimension grew."""
        return self.ech.add(dict(v))

    def basis(self):
        return [{c: 1, **tail} for c, tail in self.ech.rref()]

    def coords(self, v):
        """The coordinates of v in `basis()`, or None when v is outside the
        span.  The basis is reduced, so they are v's entries at the
        pivots, read once v's remainder is checked to be zero."""
        rref = self.ech.rref()
        coords = {i: v[c] for i, (c, _) in enumerate(rref) if c in v}
        if self.ech.reduce(dict(v)):
            return None
        return coords


class QuotientSpace:
    """K^n / W with canonical coordinates at the non-pivot positions of W."""

    __slots__ = ("K", "n", "sub", "free", "index", "dim")

    def __init__(self, K, n, sub):
        assert isinstance(sub, Subspace) and sub.n == n
        self.K = K
        self.n = n
        self.sub = sub
        pivset = set(sub.pivots)
        self.free = [c for c in range(n) if c not in pivset]
        self.index = {c: t for t, c in enumerate(self.free)}
        self.dim = len(self.free)

    def project(self, v):
        """The quotient coordinates of v: its normal form modulo W holds
        non-pivot positions only."""
        index = self.index
        return {index[c]: a for c, a in self.sub.reduce(v).items()}

    def lift(self, coords):
        free = self.free
        return {free[t]: a for t, a in coords.items()}


def coordinates_in(K, n, vectors):
    """v -> the coordinates of v in `vectors`, an independent list of kernel
    rows of K^n, or None when v is outside their span.  Each v_i is tagged
    with the unit vector e_i, and the rows (v_i, e_i) of K^(n+k) are put in
    reduced echelon form here, once.  The tags make these rows independent
    and, the v_i being independent, every pivot lies in the first n
    columns; so (v, 0) reduces to (0, -c) exactly when v = sum c_i v_i."""
    p = _char(K)
    ech = _Echelon(p)
    for i, v in enumerate(vectors):
        ech.add({**v, n + i: 1})
    assert all(c < n for c in ech.rows), "the vectors are not independent"
    ech.rref()

    def coords(v):
        r = ech.reduce(dict(v))
        if r and min(r) < n:
            return None
        return {c - n: (-a) % p if p else -a for c, a in r.items()}
    return coords
