"""Shared construction helpers for the test suite."""

from fractions import Fraction
from itertools import product

from parhox.errors import InvalidInput
from parhox.fields import QQ
from parhox.algebras import AlgebraHom, StructureAlgebra
from parhox.factor_sets import PartialFactorSet, trivial_factor_set
from parhox.groups import cyclic_group, direct_product
from parhox.homology import (ChainComplex, FreeResolution, GModuleOnChains,
                             _crossed_action_matrices, _free_act,
                             homology_dims_of_complex)
from parhox.linalg import (QuotientSpace, Subspace, _char, _Echelon,
                           _kernel_of, _nonzero, _sp_identity, _sp_matvec,
                           _sp_transpose, _sparse)
from parhox.partial_actions import TwistedPartialAction, UnitalPartialAction
from parhox.partial_algebras import (_build_table, _close_vanishing,
                                     _table_defect)


def frac(x, y=1):
    return Fraction(x, y)


# -- dense references: textbook linear algebra on lists of field values ----

def zeros(K, m, n):
    return [[K.zero] * n for _ in range(m)]


def identity(K, n):
    return [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def matvec(K, M, v):
    """M . v, every cell computed."""
    out = []
    for row in M:
        acc = K.zero
        for a, x in zip(row, v):
            acc = K.add(acc, K.mul(a, x))
        out.append(acc)
    return out


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


def rank(K, M):
    return len(ref_rref(K, M, len(M[0]) if M else 0)[1])


def dense_row(K, row, n):
    """A kernel row as a dense vector of length n over K."""
    out = [K.zero] * n
    for j, a in row.items():
        out[j] = a
    return out


def sparse_rows(K, M):
    """A dense matrix as kernel rows."""
    return [_sparse(K, row) for row in M]


# -- small algebras and modules the tests build on ----------------------------

def matrix_algebra(K, n, name=None):
    """M_n(K) with basis E_{rc} at index r * n + c."""
    sc = {}
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        sc[(r * n + c, r2 * n + c2)] = [(r * n + c2, K.one)]
    unit = {r * n + r: 1 for r in range(n)}
    return StructureAlgebra(K, n * n, sc, unit, name=name or f"M{n}")


def product_field_algebra(K, n, name=None):
    """K x K x ... x K (n factors)."""
    sc = {(i, i): [(i, K.one)] for i in range(n)}
    return StructureAlgebra(K, n, sc, {i: 1 for i in range(n)},
                            name=name or f"K^{n}")


def dual_numbers(K, name=None):
    """K[x]/(x^2), basis {1, x}."""
    sc = {(0, 0): [(0, K.one)], (0, 1): [(1, K.one)], (1, 0): [(1, K.one)]}
    return StructureAlgebra(K, 2, sc, {0: 1}, name=name or "K[x]/(x^2)")


def sidedness(mod):
    """"bi", "left" or "right": the actions a ModuleData carries."""
    if mod.left is not None and mod.right is not None:
        return "bi"
    return "left" if mod.left is not None else "right"


def z3_kappa2_action(field=QQ):
    """Z3 acting partially on kappa^2: 1_t = e1, 1_{t^2} = e2, theta_t the
    coordinate swap restricted to the ideals."""
    G = cyclic_group(3)
    A = product_field_algebra(field, 2)
    o, z = field.one, field.zero
    one = [{0: 1, 1: 1}, {0: 1}, {1: 1}]
    theta = [_sp_identity(2), [{1: 1}, {}], [{}, {0: 1}]]
    sigma = PartialFactorSet(G, field, [[o, o, o], [o, z, o], [o, o, z]],
                             name="z3partial")
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def z2_global_twist(lam, field=QQ):
    """Global (trivial) action of Z2 on the base field with twist lam."""
    G = cyclic_group(2)
    A = product_field_algebra(field, 1)
    one = [{0: 1}, {0: 1}]
    theta = [_sp_identity(1), _sp_identity(1)]
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
    B = StructureAlgebra(field, 2, sc, {0: 1}, labels=["1", "e"], name="B")
    one = [{0: 1}, {1: 1}]
    theta = [_sp_identity(2), [{}, {0: 1, 1: 1}]]
    table = [[o, o], [o, lam if lam is not None else o]]
    sigma = PartialFactorSet(G, field, table, name="sigma")
    return G, TwistedPartialAction(UnitalPartialAction(B, one, theta), sigma)


def z2_dual_numbers(field=QQ):
    """Global Z2 on the dual numbers, x -> -x, trivial twist."""
    G = cyclic_group(2)
    A = dual_numbers(field)
    one = [{0: 1}, {0: 1}]
    theta = [_sp_identity(2),
             [{0: 1}, _sparse(field, [field.zero, field.neg(field.one)])]]
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
    one = [{0: 1, 1: 1}, {0: 1}, {1: 1}, {}]
    theta = [_sp_identity(2), [{0: 1}, {}], [{}, {1: 1}], [{}, {}]]
    table = [[o] * 4 for _ in range(4)]
    for g in range(4):
        for h in range(4):
            # sigma(g,h) = 0 iff 1_g 1_{gh} = 0
            if not A.mul(one[g], one[G.mul(g, h)]):
                table[g][h] = z
    sigma = PartialFactorSet(G, field, table, name="v4idem")
    return G, TwistedPartialAction(UnitalPartialAction(A, one, theta), sigma)


def dense_map_on_quotient(T, ambient_map_fn):
    """The matrix on T's quotient coordinates of a map given on ambient
    vectors (index ix * dim Y + iy): project the image of each lifted
    quotient basis vector."""
    K = T.K
    cols = [dense_row(K, T.quotient.project(_sparse(K, ambient_map_fn(
        dense_row(K, T.quotient.lift({i: 1}), T.ambient_dim)))), T.dim)
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
    return [dense_row(K, row, ncols) for row in rows]


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
    cols = [dense_row(A.field, A.mul(v, b) if left else A.mul(b, v), A.dim)
            for b in map(A.basis_vector, range(A.dim))]
    return transpose(cols)


def hom_matrix(hom):
    """The dense (target dim x source dim) matrix of an AlgebraHom, whose
    columns are its images."""
    K = hom.source.field
    return [[dense_row(K, img, hom.target.dim)[r] for img in hom.images]
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


# -- words in the Exel monoid -------------------------------------------------

def r4_vanishing(monoid, sigma):
    """The closed ideal of the R4 seeds alone: monomials with a dead letter."""
    G = sigma.group
    dead = sum(1 << g for g in range(G.n) if sigma.is_zero(g, G.inv(g)))
    seeds = {m for m, (A, _) in enumerate(monoid.elements) if A & dead}
    return _close_vanishing(monoid, sigma, seeds)


def completion_loop(monoid, sigma, vanished):
    """The reference completion loop from a closed vanishing set: one defect
    of Light's test per round joins V, and V is closed again, until the
    table associates.  Returns the final V, its table (surviving, pos, scal,
    targ) and the log of ("completion-round", round, [defect]) entries.
    From the R4 seeds alone it has to find every other vanishing monomial
    itself; `build_kpar_sigma` must reach the same algebra in one pass."""
    K = sigma.field
    log = []
    max_rounds = monoid.size + 2
    for round_no in range(max_rounds):
        assert monoid.identity not in vanished, \
            "the identity monomial vanished"
        table = _build_table(monoid, sigma, vanished)
        defect = _table_defect(K, monoid, table)
        if defect is None:
            return vanished, table, log
        vanished.add(defect)
        log.append(("completion-round", round_no, [defect]))
        vanished = _close_vanishing(monoid, sigma, vanished)
    raise AssertionError(f"no fixpoint after {max_rounds} rounds")


def word_to_exel(monoid, word):
    """Product in S(G) of a word in symbols ('g', i) and ('e', i)."""
    acc = monoid.identity
    for kind, i in word:
        if kind == "g":
            acc = monoid.mul(acc, monoid.gen(i))
        elif kind == "e":
            acc = monoid.mul(acc, monoid.e(i))
        else:
            raise InvalidInput(f"unknown symbol kind {kind!r}")
    return monoid.elements[acc]


# -- reference for StructureAlgebra.generators -------------------------------

def unit_closure_dim(A, gens):
    """dim of the span of the words in the basis elements `gens`: the unit
    multiplied on the left by one generator at a time, breadth-first, each
    product formed by `mul`, until a round adds nothing."""
    span = Subspace(A.field, A.dim, [A.unit])
    layer = [A.unit]
    while layer:
        layer = [u for u in (A.mul(A.basis_vector(s), w)
                             for w in layer for s in gens) if span.add(u)]
    return span.dim


# -- reference for homology.free_resolution ----------------------------------

def _closure_generators(vectors, images_of, p):
    """Greedy module generators of the submodule spanned by `vectors`,
    taken in order: a vector not yet in the span is a generator, and its
    submodule is then closed breadth-first, images_of(w) listing the
    images of w under the basis of R."""
    span = _Echelon(p)
    gens = []
    for v in vectors:
        if not span.add(dict(v)):
            continue
        gens.append(v)
        work = [v]
        while work:
            w = work.pop()
            for u in images_of(w):
                if span.add(dict(u)):
                    work.append(u)
    return gens


def resolution_columns(res, q):
    """Sparse columns of d_q: F_q -> F_{q-1} (q >= 1) or of the
    augmentation (q = 0) of a FreeResolution, one per basis element
    u_j b_i of F_q."""
    R = res.R
    p = _char(R.field)
    if q == 0:
        X = res.module
        mats = X.right if res.side == "right" else X.left
        return [_sp_matvec(mat, img, p)
                for img in res.gen_images[0] for mat in mats]
    return [_free_act(act, img, R.dim, p)
            for img in res.gen_images[q] for act in res.acts]


def boundary_matrix(res, q):
    """The kappa-matrix (kernel rows) of d_q: F_q -> F_{q-1} (q >= 1) or
    of the augmentation (q = 0) of a FreeResolution."""
    tgt_dim = res.module.dim if q == 0 else res.ranks[q - 1] * res.R.dim
    return _sp_transpose(resolution_columns(res, q), tgt_dim)


def bfs_resolution(R, module, side, length, style="greedy"):
    """(ranks, gen_images) of free_resolution(R, module, side, length,
    style), with each generator's submodule found as a breadth-first
    closure under the module's matrices (step 0) or the full action
    table of R (q >= 1), and the columns of d_q formed afterwards by
    `resolution_columns`."""
    K = R.field
    p = _char(K)
    d = R.dim
    mats = module.right if side == "right" else module.left
    cand = _sp_identity(module.dim)
    if style == "greedy_reversed":
        cand.reverse()
    gens = _closure_generators(
        cand, lambda w: [_sp_matvec(mat, w, p) for mat in mats], p)
    res = FreeResolution(R, module, side, [len(gens)], [gens])
    prev, prev_tgt = resolution_columns(res, 0), module.dim
    for q in range(1, length + 1):
        ker = _kernel_of(K, _sp_transpose(prev, prev_tgt),
                         res.ranks[q - 1] * d)
        if style == "greedy_reversed":
            ker.reverse()
        gens = ker if style == "fat" else _closure_generators(
            ker, lambda w: [_free_act(act, w, d, p) for act in res.acts], p)
        res.ranks.append(len(gens))
        res.gen_images.append(gens)
        prev, prev_tgt = resolution_columns(res, q), res.ranks[q - 1] * d
    return res.ranks, res.gen_images


# -- reference for homology.relative_bar_complex -----------------------------
# The absolute bar complexes, normalized (C_q = M (x) (R / k1)^(x q)) or
# full (M (x) R^(x q)), and the diagonal action on the full complex of A as
# a Kronecker power: what the relative complex replaced in the package.

class AbsoluteBarBasis:
    """Index bookkeeping for M (x) W^(x q), W either R or the reduced Rbar,
    and the face tables of the bar differentials, built once per complex
    as kernel rows:

      * prod[i][j]: a_i a_j in the reduced basis;
      * left[i][m]: a_i . e_m and right[i][m]: e_m . a_i in the M-basis.
    """

    def __init__(self, R, M, normalized):
        self.R = R
        self.M = M
        K = R.field
        if normalized:
            span = Subspace(K, R.dim, [R.unit])
            self.quot = QuotientSpace(K, R.dim, span)
            self.wdim = self.quot.dim
        else:
            self.quot = None
            self.wdim = R.dim

        lifted = [self.lift(i) for i in range(self.wdim)]
        self.prod = [[self.project(R.mul(x, y)) for y in lifted]
                     for x in lifted]

        self.left = [_sp_transpose(M.left_matrix_of(x), M.dim)
                     for x in lifted]
        self.right = [_sp_transpose(M.right_matrix_of(x), M.dim)
                      for x in lifted]

    def lift(self, i):
        """The algebra element behind reduced-basis index i."""
        if self.quot is None:
            return self.R.basis_vector(i)
        return self.quot.lift({i: 1})

    def project(self, vec):
        """Coordinates of an algebra element in the reduced basis."""
        if self.quot is None:
            return vec
        return self.quot.project(vec)

    def dim_q(self, q):
        return self.M.dim * self.wdim ** q

    def tuples(self, q):
        """All q-tuples over range(wdim), lexicographic (none if wdim = 0
        and q >= 1)."""
        return product(range(self.wdim), repeat=q)

    def flat(self, im, tup):
        out = im
        for i in tup:
            out = out * self.wdim + i
        return out


def absolute_bar_complex(R, M, max_q, normalized=True):
    """The Hochschild chain complex C_q = M (x) W^(x q) with boundary

        b(m,a1..aq) = (m.a1, a2..aq)
                      + sum_i (-1)^i (m, a1.. a_i a_{i+1} ..aq)
                      + (-1)^q (aq.m, a1..a_{q-1}).

    Each column (the boundary of one basis chain) is summed in one sparse
    dict and the columns are transposed into kernel rows once.  Returns
    (ChainComplex, AbsoluteBarBasis); d.d = 0 is asserted exactly.
    """
    K = R.field
    p = _char(K)
    bb = AbsoluteBarBasis(R, M, normalized)
    dims = [bb.dim_q(q) for q in range(max_q + 1)]
    diffs = {}
    for q in range(1, max_q + 1):
        stride = bb.wdim ** (q - 1)
        cols = []
        for im in range(M.dim):
            for tup in bb.tuples(q):
                # face 0: (m.a1, a2..aq)
                rest = bb.flat(0, tup[1:])
                faces = [(jm * stride + rest, c)
                         for jm, c in bb.right[tup[0]][im].items()]
                # inner faces: (-1)^(i+1) (m, a1.. a_i a_{i+1} ..aq)
                for i in range(q - 1):
                    for jw, c in bb.prod[tup[i]][tup[i + 1]].items():
                        r = bb.flat(im, tup[:i] + (jw,) + tup[i + 2:])
                        faces.append((r, c if i % 2 else -c))
                # last face: (-1)^q (aq.m, a1..a_{q-1})
                rest = bb.flat(0, tup[:-1])
                for jm, c in bb.left[tup[-1]][im].items():
                    faces.append((jm * stride + rest,
                                  c if q % 2 == 0 else -c))
                col = {}
                for r, c in faces:
                    col[r] = col.get(r, 0) + c
                cols.append(_nonzero(col, p))
        diffs[q] = _sp_transpose(cols, dims[q - 1])
    cc = ChainComplex(K, dims, diffs)
    cc.validate().raise_if_failed()
    return cc, bb


def sp_kron(A, B, nb, p):
    """The Kronecker product of kernel-row matrices A and B, B with nb
    columns, on the lexicographic tensor basis: row i * len(B) + k holds
    a_ij b_kl at column j * nb + l."""
    return [_nonzero({j * nb + l: a * b for j, a in arow.items()
                      for l, b in brow.items()}, p)
            for arow in A for brow in B]


def absolute_diagonal_action(lam, M, MA, xi, sigma_dd, max_q):
    """The diagonal action T_g = MG[g] (x) AG[g]^(x q) on the full bar
    complex of A with coefficients in M|A = MA, as kernel rows; returns
    the GModuleOnChains, not yet gated."""
    A = lam.theta.algebra
    cc, _ = absolute_bar_complex(A, MA, max_q, normalized=False)
    p = _char(cc.field)
    AG, MG = _crossed_action_matrices(lam, M, xi)
    action = []
    for g in range(lam.group.n):
        mats = [MG[g]]
        for _ in range(max_q):
            mats.append(sp_kron(mats[-1], AG[g], A.dim, p))
        action.append(mats)
    return GModuleOnChains(cc, action, sigma_dd)


def absolute_hochschild_dims(R, M, max_n, normalized=True):
    """dim H_q(R, M), q <= max_n, on the absolute bar complex."""
    cc, _ = absolute_bar_complex(R, M, max_n + 1, normalized=normalized)
    return homology_dims_of_complex(cc, max_n)
