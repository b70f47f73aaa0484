"""Chain complexes, bar complexes, free resolutions, Tor, Hochschild
homology and the diagonal group action on Hochschild chains.

Degree conventions:

  * a ChainComplex stores d[q]: C_q -> C_{q-1} for 1 <= q <= top,
    C_q = kappa^{dims[q]}, as a list of kernel rows (`{col: value}` dicts
    of `linalg`, one per basis element of the target; `dims` gives the
    shape).  The group action on the chains (GModuleOnChains) keeps its
    matrices T_g as kernel rows too, and nothing at the chain level is
    ever stored densely;
  * homology dims use  dim H_q = dims[q] - rank d[q] - rank d[q+1];
  * a FreeResolution of a module X over R keeps generator images, so the
    boundary in F_q = R^{r_q} is  u_j -> gen_images[q][j], and the induced
    complexes for Tor are assembled from action matrices of the blocks;
  * Hochschild homology of R with coefficients in a bimodule M is computed
    both on the (normalized or full) bar complex  C_q = M (x) Rbar^(x q)
    and as Tor over R^e via a projective resolution of R: the length-0
    resolution R = R^e e when R has a separability idempotent e
    (`hochschild_homology_separable`), a free resolution otherwise
    (`hochschild_homology_resolution`); the two routes must agree and that
    agreement is an acceptance gate, not an assumption.

Everything here is homological.  Cohomology with coefficients in M is read
as homology with coefficients in the dual bimodule M* (`dual_bimodule`):
the complex of maps R^(x q) -> M is the dual of C_q(R, M*)
(Cartan-Eilenberg, ch. IX), so dim H^q(R, M) = dim H_q(R, M*);
`spectral.module_tower` carries the argument through the group action and
the partial group cohomology.

The diagonal action of the group on Hochschild chains of the coefficient
algebra A (`diagonal_action`) uses the full (unnormalized) bar complex:
the action does not preserve degenerate chains, so the normalized model
would not carry it.  Partial group homology H_n^par(G, X) =
Tor_n^{kpar}(B, X) is `tor_dims` on kappa_par G.
"""

from itertools import product

from .errors import (EquivarianceFailure, InvalidInput, SizeLimit,
                     ValidationFailure)
from .algebras import (ModuleData, ValidationReport, bimodule_hom,
                       bimodule_to_right_env_module,
                       check_separability_idempotent, enveloping,
                       module_from_generator_actions, regular_bimodule)
from .linalg import (QuotientSpace, Subspace, _char, _Echelon, _kernel_of,
                     _nonzero, _rank_of, _sp_combination,
                     _sp_identity, _sp_kron, _sp_matmul, _sp_matvec,
                     _sp_transpose, coordinates_in)

__all__ = [
    "ChainComplex", "bar_complex", "homology_dims_of_complex",
    "HomologyData", "homology_data", "FreeResolution", "free_resolution",
    "tor_dims", "hochschild_homology_bar",
    "hochschild_homology_resolution", "hochschild_homology_separable",
    "GModuleOnChains", "diagonal_action",
    "induced_action_on_homology",
    "hom_A_carrier", "hom_A_module_structure",
]

DEFAULT_CHAIN_CAP = 200_000
RESOLUTION_STYLES = ("greedy", "greedy_reversed", "fat")


class ChainComplex:
    """dims[q] for 0 <= q <= top; d[q]: C_q -> C_{q-1} for 1 <= q <= top
    as kernel rows."""

    def __init__(self, field, dims, diffs):
        self.field = field
        self.dims = list(dims)
        self.d = dict(diffs)

    @property
    def top(self):
        return len(self.dims) - 1

    def validate(self):
        rep = ValidationReport("chain complex")
        K = self.field
        p = _char(K)
        d = self.d
        for q in range(2, self.top + 1):
            if any(_sp_matmul(d[q - 1], d[q], p)):
                rep.fail("d.d != 0", q)
        return rep


class _BarBasis:
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


def bar_complex(R, M, max_q, normalized=True, cap=DEFAULT_CHAIN_CAP):
    """The Hochschild chain complex C_q = M (x) W^(x q) with boundary

        b(m,a1..aq) = (m.a1, a2..aq)
                      + sum_i (-1)^i (m, a1.. a_i a_{i+1} ..aq)
                      + (-1)^q (aq.m, a1..a_{q-1}).

    Each column (the boundary of one basis chain) is summed in one sparse
    dict and the columns are transposed into kernel rows once.  Returns
    (ChainComplex, _BarBasis); d.d = 0 is asserted exactly.
    """
    K = R.field
    p = _char(K)
    bb = _BarBasis(R, M, normalized)
    dims = [bb.dim_q(q) for q in range(max_q + 1)]
    if any(d > cap for d in dims):
        raise SizeLimit(f"bar complex dims {dims} exceed cap {cap}")
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


def homology_dims_of_complex(cc, max_q):
    """Betti-style dims dims[q] - rank d[q] - rank d[q+1]."""
    rk = {q: _rank_of(cc.field, [dict(row) for row in cc.d[q]])
          for q in range(1, min(max_q + 1, cc.top) + 1)}
    return [cc.dims[q] - rk.get(q, 0) - rk.get(q + 1, 0)
            for q in range(max_q + 1)]


class HomologyData:
    def __init__(self, K, dim_space, cycles_reps, boundary_quotient, hbasis):
        self.K = K
        self.dim_space = dim_space
        self.reps = cycles_reps            # cycles in C_q, as kernel rows
        self.quotient = boundary_quotient  # C_q / boundaries
        self.hbasis = hbasis               # projections of reps
        self.dim = len(cycles_reps)
        self._coords = coordinates_in(K, boundary_quotient.dim, hbasis)

    def express(self, cycle_vec):
        """Coefficients of a cycle in the homology basis."""
        coords = self._coords(self.quotient.project(cycle_vec))
        if coords is None:
            raise InvalidInput("vector not in the homology span")
        return coords


def homology_data(cc, q):
    """Representative-level homology of the complex cc at degree q: the
    cycles are the kernel of d[q] (all of C_q if there is none), the
    boundaries the columns of d[q+1]."""
    K = cc.field
    n = cc.dims[q]
    cycles = _kernel_of(K, [dict(row) for row in cc.d.get(q, ())], n)
    bsub = Subspace(K, n)
    if q + 1 in cc.d:
        for col in _sp_transpose(cc.d[q + 1], cc.dims[q + 1]):
            bsub.ech.add(col)
    quot = QuotientSpace(K, n, bsub)
    reps, hbasis = [], []
    hsub = Subspace(K, quot.dim)
    for c in cycles:
        p = quot.project(c)
        if hsub.add(p):
            reps.append(c)
            hbasis.append(p)
    return HomologyData(K, n, reps, quot, hbasis)


# ---------------------------------------------------------------------------
# free resolutions and Tor


class FreeResolution:
    """X <- F_0 <- F_1 <- ... with F_q = R^{ranks[q]}; gen_images[0] lives
    in X, gen_images[q] (q >= 1) in kappa^{ranks[q-1] * dim R}, all of them
    as sparse {index: value} rows of the linalg kernel."""

    def __init__(self, R, module, side, ranks, gen_images):
        self.R = R
        self.module = module
        self.side = side
        self.ranks = ranks
        self.gen_images = gen_images
        self.acts = _action_table(R, side)


def _action_table(R, side):
    """acts[i][j] = [(k, c), ...]: b_j . b_i (side right) or b_i . b_j
    (side left), the rows of the structure constants."""
    acts = [{} for _ in range(R.dim)]
    for (i, j), row in R.sc.items():
        b, u = (j, i) if side == "right" else (i, j)
        acts[b][u] = row
    return acts


def _free_act(act, vec, d, p):
    """Blockwise action of one basis element of R on a sparse vector of
    R^r; `act` is its row of the action table."""
    out = {}
    for idx, a in vec.items():
        j = idx % d
        terms = act.get(j)
        if terms:
            base = idx - j
            for k, c in terms:
                key = base + k
                out[key] = out.get(key, 0) + a * c
    return _nonzero(out, p)


def _select_generators(candidates, images_of, p, cap, fat=False):
    """Module generators among the sparse `candidates`, taken in order, and
    their columns.  images_of(v) lists b_i . v for the basis b_i of R;
    R is unital, so they span R . v.  A candidate becomes a generator
    unless it lies in the span of the earlier generators' images (every
    one does when `fat`), and its images, formed once, are its columns.
    Columns are kept only while there are at most `cap` of them: past
    that the resolution is over its cap and is refused by the caller."""
    span = _Echelon(p)
    gens, cols = [], []
    for v in candidates:
        if not (fat or span.add(dict(v))):
            continue
        gens.append(v)
        images = images_of(v)
        if not fat:
            for u in images:
                span.add(dict(u))
        if len(gens) * len(images) <= cap:
            cols += images
    return gens, cols


def _check_size(q, rank_, d, cap):
    if rank_ * d > cap:
        raise SizeLimit(f"free resolution degree {q}: {rank_} generators x "
                        f"dim {d} = {rank_ * d} exceeds cap {cap}")


def free_resolution(R, module, side, length, style="greedy", cap=None):
    """A free resolution of `module` (left or right R-module) of the given
    length (boundaries available for q <= length).  style: greedy | fat |
    greedy_reversed (a second, genuinely different resolution).

    F_0 is generated by unit vectors of the module and F_q (q >= 1) by
    vectors of ker d_{q-1}, both taken in order (reversed for
    greedy_reversed) by `_select_generators`; `fat` keeps every kernel
    vector.  A generator's images under the basis of R are its columns of
    d_q (of the augmentation for q = 0).  The augmentation, d.d = 0 and
    exactness are each checked on an elimination of their own.  Every
    F_q is checked against `cap` (default DEFAULT_CHAIN_CAP) before its
    columns outgrow it."""
    if style not in RESOLUTION_STYLES:
        raise InvalidInput(f"unknown resolution style {style!r}: expected "
                           f"one of {', '.join(RESOLUTION_STYLES)}")
    if cap is None:
        cap = DEFAULT_CHAIN_CAP
    K = R.field
    d = R.dim
    m = module.dim
    p = _char(K)
    ranks, gen_images = [], []
    res = FreeResolution(R, module, side, ranks, gen_images)
    mats = module.right if side == "right" else module.left

    def module_images(v):
        return [_sp_matvec(mat, v, p) for mat in mats]

    def free_images(v):
        return [_free_act(act, v, d, p) for act in res.acts]

    # step 0: generators of the module itself, taken from the unit vectors
    cand = _sp_identity(m)
    if style == "greedy_reversed":
        cand.reverse()
    gens, prev = _select_generators(cand, module_images, p, cap)
    _check_size(0, len(gens), d, cap)
    ranks.append(len(gens))
    gen_images.append(gens)
    if _rank_of(K, [dict(c) for c in prev]) != m:
        raise InvalidInput("augmentation not surjective")
    prev_tgt = m
    for q in range(1, length + 1):
        ker = _kernel_of(K, _sp_transpose(prev, prev_tgt), ranks[q - 1] * d)
        if style == "greedy_reversed":
            ker.reverse()
        gens, cols = _select_generators(ker, free_images, p, cap,
                                        fat=(style == "fat"))
        _check_size(q, len(gens), d, cap)
        ranks.append(len(gens))
        gen_images.append(gens)
        # d.d = 0 on the generators (hence everywhere: these are module maps)
        if any(_sp_matmul(gens, prev, p)):
            raise InvalidInput(f"d.d != 0 at degree {q}")
        # exactness gate: image of d_q spans exactly ker(d_{q-1})
        if ker and _rank_of(K, [dict(c) for c in cols]) != len(ker):
            raise InvalidInput(f"resolution not exact at degree {q}")
        prev, prev_tgt = cols, ranks[q - 1] * d
    return res


def _induced_dims(res, cols_of, m, max_n):
    """dims of the complex Y^{r_q}, q <= max_n, whose boundary is induced by
    the free resolution res over R: u_j (x) e_s goes to the sum over the
    blocks k of gen_images[q][j] of  w_k . e_s  in block k, where R acts on
    Y = kappa^m through m x m matrices given by their columns: cols_of[i][s]
    is b_i . e_s as a kernel row."""
    K = res.R.field
    d = res.R.dim
    p = _char(K)
    rk = {}
    for q in range(1, max_n + 2):
        cols = []
        for img in res.gen_images[q]:
            for s in range(m):
                col = {}
                for idx, a in img.items():
                    k, i = divmod(idx, d)
                    base = k * m
                    for t, c in cols_of[i][s].items():
                        key = base + t
                        col[key] = col.get(key, 0) + a * c
                cols.append(_nonzero(col, p))
        rk[q] = _rank_of(K, cols)
    return [res.ranks[n] * m - rk.get(n, 0) - rk.get(n + 1, 0)
            for n in range(max_n + 1)]


def tor_dims(R, X_right, Y_left, max_n, style="greedy", resolution=None):
    """dim Tor_n^R(X, Y) for n <= max_n; a precomputed right resolution of
    X may be supplied (it must reach degree max_n + 1)."""
    res = resolution if resolution is not None else \
        free_resolution(R, X_right, "right", max_n + 1, style=style)
    assert len(res.ranks) >= max_n + 2
    # boundary Y^{r_q} -> Y^{r_{q-1}}: u_j (x) y -> sum_k w_k . y at block k
    m = Y_left.dim
    return _induced_dims(res, [_sp_transpose(L, m) for L in Y_left.left], m,
                         max_n)


# ---------------------------------------------------------------------------
# Hochschild homology


def hochschild_homology_bar(R, M, max_n, normalized=True, cap=DEFAULT_CHAIN_CAP):
    cc, _ = bar_complex(R, M, max_n + 1, normalized=normalized, cap=cap)
    return homology_dims_of_complex(cc, max_n)


def env_resolution(R, length, style="greedy", cap=None):
    """(R^e, free resolution of R as a left R^e-module)."""
    env = enveloping(R)
    R_as_left = ModuleData(env, R.dim,
                           left=_env_left_regular(env, R), name="R over R^e")
    return env, free_resolution(env, R_as_left, "left", length, style=style,
                                cap=cap)


def hochschild_homology_resolution(R, M, max_n, style="greedy", env_res=None,
                                   cap=None):
    """H_n(R, M) = Tor_n^{R^e}(M, R) via a free resolution of R as a left
    R^e-module, tensored with M as a right R^e-module."""
    env, res = env_res if env_res is not None else \
        env_resolution(R, max_n + 1, style=style, cap=cap)
    M_right = bimodule_to_right_env_module(env, R, M)
    # for LEFT free modules the tensor with a right module gives
    # m (x) u_j -> sum_k m.w_k (x) u_k
    return _induced_dims(res, [_sp_transpose(X, M.dim) for X in M_right.right],
                         M.dim, max_n)


def hochschild_homology_separable(R, e, M, max_n):
    """H_n(R, M) = Tor_n^{R^e}(M, R) for n <= max_n through a separability
    idempotent e = sum e_ij b_i (x) b_j of R (d kernel rows, row i holding
    the e_ij), with mult(e) = 1 and b e = e b for every b in R, R acting on
    the outer factors of R (x) R (Hochschild, Ann. Math. 46, 1945):

      * lambda -> lambda e is a map of R-bimodules R -> R (x) R = R^e, as
        (lambda b) e = lambda (b e) = (lambda e) b, and mult(lambda e) =
        lambda.  It splits mult, so R is the summand R^e e of the free
        module R^e, and 0 -> R^e e -> R -> 0 is a projective resolution of
        length 0: Tor_n^{R^e}(M, R) = 0 for n >= 1;
      * e is idempotent in R^e, where (x (x) y).e = x e y: e.e =
        sum e_ij b_i e b_j = sum e_ij b_i b_j e = e.  So Tor_0 =
        M (x)_{R^e} R^e e = M.e, M being the right R^e-module
        m.(a (x) b) = b m a, and M.e = im pi_M with
        pi_M(m) = sum e_ij b_j m b_i, read off M's own left and right
        matrices as pi_M = sum_i L(e_i) R(b_i), e_i = sum_j e_ij b_j;
      * pi_M kills [R, M]: applying x (x) y -> y m x to b e = e b gives
        pi_M(m b) = pi_M(b m).  And pi_M(m) = sum e_ij b_i b_j m = m
        modulo [R, M], as mult(e) = 1.  So pi_M is idempotent with image
        M / [R, M] = H_0(R, M).

    Gates, exact: e is re-verified on R's own products
    (`check_separability_idempotent`) before it is used, and pi_M o pi_M =
    pi_M.  dim H_0 is the rank of pi_M, an elimination of its own: the bar
    route's d_1 is never consulted.  No enveloping algebra is built."""
    check_separability_idempotent(R, e).raise_if_failed()
    p = _char(R.field)
    pi = _sp_combination(
        [(1, _sp_matmul(M.left_matrix_of(row), M.right[i], p))
         for i, row in enumerate(e) if row], M.dim, p)
    if _sp_matmul(pi, pi, p) != pi:
        raise ValidationFailure(f"pi_M of {M.name} is not idempotent")
    return [_rank_of(R.field, pi)] + [0] * max_n


def _env_left_regular(env, R):
    """Left action matrices of R^e on R: (a (x) b).x = a x b."""
    p = _char(R.field)
    rights = [R.right_mult_matrix(R.basis_vector(j)) for j in range(R.dim)]
    return [_sp_matmul(R.left_mult_matrix(R.basis_vector(i)), Rj, p)
            for i in range(R.dim) for Rj in rights]


# ---------------------------------------------------------------------------
# the diagonal action on Hochschild chains of A


class GModuleOnChains:
    """A chain complex with one matrix per group element and degree, gated
    by equivariance and the partial-representation relations."""

    def __init__(self, complex_, action, sigma_pattern):
        self.complex = complex_
        self.action = action            # action[g][q]: kernel rows on C_q
        self.sigma_pattern = sigma_pattern

    def gate(self, group):
        """Equivariance and the partial-representation relations, checked on
        the kernel rows of every T_g and d[q] as they are stored."""
        K = self.complex.field
        p = _char(K)
        rep = ValidationReport("chain-level diagonal action")
        T = self.action
        top = len(T[0]) - 1
        d = self.complex.d
        # equivariance with the differential: d[q] T[q] = T[q-1] d[q]
        for g in range(len(T)):
            for q in range(1, top + 1):
                if _sp_matmul(d[q], T[g][q], p) != \
                   _sp_matmul(T[g][q - 1], d[q], p):
                    rep.fail("equivariance", g, q)
        # partial representation relations with the given idempotent pattern
        sigma = self.sigma_pattern
        inv, mul = group.inv, group.mul

        def scaled(s, X):
            return X if s == 1 else _sp_combination([(s, X)], len(X), p)

        for q in range(top + 1):
            n = self.complex.dims[q]
            if T[0][q] != _sp_identity(n):
                rep.fail("unit action", q)
            for g in range(group.n):
                Tg = T[g][q]
                Tgi = T[inv(g)][q]
                for h in range(group.n):
                    Th = T[h][q]
                    Tgh = T[mul(g, h)][q]
                    Thi = T[inv(h)][q]
                    s = sigma(g, h)
                    TgTh = _sp_matmul(Tg, Th, p)
                    TgiTgh = _sp_matmul(Tgi, Tgh, p)
                    TghThi = _sp_matmul(Tgh, Thi, p)
                    if _sp_matmul(Tgi, TgTh, p) != scaled(s, TgiTgh):
                        rep.fail("left relation", g, h, q)
                    if _sp_matmul(TgTh, Thi, p) != scaled(s, TghThi):
                        rep.fail("right relation", g, h, q)
                    if not s and (any(TgiTgh) or any(TghThi)):
                        rep.fail("zero relation", g, h, q)
        return rep


def _crossed_action_matrices(lam, M, xi):
    """Per group element, as kernel rows: the matrix of
    a -> theta_g(1_{g^-1} a) on A (theta_g itself) and of
    m -> xi(g) (1_g d_g) m (1_{g^-1} d_{g^-1}) on M."""
    theta = lam.theta
    K = theta.algebra.field
    p = _char(K)
    G = lam.group
    AG, MG = [], []
    for g in range(G.n):
        AG.append(theta.action.theta[g])
        lm = M.left_matrix_of(lam.one_delta(g))
        rm = M.right_matrix_of(lam.one_delta(G.inv(g)))
        MG.append(_sp_combination([(xi(g), _sp_matmul(lm, rm, p))], M.dim,
                                  p))
    return AG, MG


def m_as_a_bimodule(lam, M):
    """Restrict a Lambda-bimodule to an A-bimodule through a -> a delta_1."""
    A = lam.theta.algebra
    left = [M.left_matrix_of(lam.embed_a(A.basis_vector(i)))
            for i in range(A.dim)]
    right = [M.right_matrix_of(lam.embed_a(A.basis_vector(i)))
            for i in range(A.dim)]
    MA = ModuleData(A, M.dim, left=left, right=right, name=f"{M.name}|A")
    MA.validate().raise_if_failed()
    return MA


def diagonal_action(lam, M, MA, xi, sigma_dd, max_q, cap=DEFAULT_CHAIN_CAP):
    """The diagonal group action on the full Hochschild chains of A with
    coefficients in M, MA being M restricted to A (`m_as_a_bimodule`):

        T_g(m, a1..aq) = ([g].m, [g].a1, ..., [g].aq).

    In the M-major basis T_g = MG[g] (x) AG[g]^(x q)
    (`_crossed_action_matrices`), as kernel rows.  Hard-gated; returns
    (GModuleOnChains, _BarBasis)."""
    group = lam.group
    A = lam.theta.algebra
    cc, bb = bar_complex(A, MA, max_q, normalized=False, cap=cap)
    p = _char(cc.field)
    AG, MG = _crossed_action_matrices(lam, M, xi)
    action = []
    for g in range(group.n):
        mats = [MG[g]]
        for _ in range(max_q):
            mats.append(_sp_kron(mats[-1], AG[g], A.dim, p))
        action.append(mats)
    gmod = GModuleOnChains(cc, action, sigma_dd)
    rep = gmod.gate(group)
    if not rep.ok:
        raise EquivarianceFailure(
            f"chain action gate failed: {rep.violations[:5]}")
    return gmod, bb


def induced_action_on_homology(gmod, q, target_algebra, group,
                               annihilator_vectors=None, hd=None):
    """The module structure on H_q induced by an equivariant action,
    returned as a validated left ModuleData over a monomial group algebra
    (kappa_par G or kappa_par^{sigma''} G, passed as the ktw object).
    hd: the homology data of degree q from an earlier call on the same
    complex, reused instead of recomputed."""
    cc = gmod.complex
    K = cc.field
    p = _char(K)
    n = cc.dims[q]
    if hd is None:
        hd = homology_data(cc, q)
    # the representatives as the columns of a matrix on C_q
    R = _sp_transpose(hd.reps, n)
    gen_mats = {}
    for g in range(group.n):
        mono = target_algebra.monoid.gen(g)
        if not target_algebra.is_alive(mono):
            continue
        TR = _sp_matmul(gmod.action[g][q], R, p)
        cols = [hd.express(img) for img in _sp_transpose(TR, hd.dim)]
        gen_mats[target_algebra.position[mono]] = _sp_transpose(cols, hd.dim)
    mod = module_from_generator_actions(target_algebra.algebra, hd.dim,
                                        gen_mats, side="left")
    mod.validate().raise_if_failed()
    if annihilator_vectors:
        for v in annihilator_vectors:
            if any(mod.left_matrix_of(v)):
                raise EquivarianceFailure(
                    "ker(zeta) does not annihilate the homology module")
    return hd, mod


def hom_A_carrier(A, MA):
    """Basis of Hom_{A^e}(A, MA) as matrices A -> MA (kernel rows), for an
    A-bimodule MA (a Lambda-bimodule restricted to A)."""
    return bimodule_hom(regular_bimodule(A), MA)


def hom_A_module_structure(lam, M, MA, xi, ktw_dd):
    """The kappa_par^{sigma''} G-module structure on Hom_{A^e}(A, M), MA
    being M restricted to A: ([g].f)(a) = xi(g) [g]'.f([g^-1].a)."""
    group = lam.group
    A = lam.theta.algebra
    K = A.field
    p = _char(K)
    carrier = hom_A_carrier(A, MA)
    n = len(carrier)
    AG, MG = _crossed_action_matrices(lam, M, xi)

    def flatten(F):
        """F (M.dim x A.dim) as one kernel row, row-major."""
        return {r * A.dim + c: a for r, row in enumerate(F)
                for c, a in row.items()}

    coords_of = coordinates_in(K, M.dim * A.dim, [flatten(F) for F in carrier])
    gen_mats = {}
    for g in range(group.n):
        mono = ktw_dd.monoid.gen(g)
        if not ktw_dd.is_alive(mono):
            continue
        cols = []
        for F in carrier:
            img = _sp_matmul(MG[g], _sp_matmul(F, AG[group.inv(g)], p), p)
            coords = coords_of(flatten(img))
            if coords is None:
                raise EquivarianceFailure("action leaves Hom_{A^e}(A, M)")
            cols.append(coords)
        gen_mats[ktw_dd.position[mono]] = _sp_transpose(cols, n)
    mod = module_from_generator_actions(ktw_dd.algebra, len(carrier),
                                        gen_mats, side="left")
    mod.validate().raise_if_failed()
    return carrier, mod
