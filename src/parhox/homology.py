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
  * Tor^R(X, Y) of a right module X is read on a projective resolution of
    X: the length-0 resolution 0 -> eR -> X -> 0 when X = eR for a
    splitting idempotent e (`splitting_idempotent`, `SplitResolution`),
    which gives [dim eY, 0, ..., 0], a free resolution otherwise;
  * Hochschild homology of R with coefficients in a bimodule M is computed
    both on a bar complex and as Tor over R^e via a projective resolution
    of R: the length-0 resolution R = R^e e when R has a separability
    idempotent e (`hochschild_homology_separable`), a free resolution
    otherwise (`hochschild_homology_resolution`); the two routes must
    agree and that agreement is an acceptance gate, not an assumption.

There is one bar complex, the S-relative one (`relative_bar_complex`):
C_q = M (x)_{S^e} (R/S)^{(x)_S q} for S spanned by orthogonal idempotents
e_i of R that sum to 1 (Hochschild, Trans. AMS 82, 1956; Cibils, JPAA 56,
1989).  S = k^m is separable over every field, so its homology is
H_*(R, M), and its chains are closed paths through the Peirce blocks
e_i R e_j.  S = k.1 gives the normalized bar complex.  The bar route uses
only S's idempotents, re-verified exactly: never a separability idempotent
of R or an R^e-resolution.  The battery takes S spanned by the atoms of
the 1_g (for Lambda and A) or of the e_g (for kappa_par G and
kappa_par^sigma G).

Everything here is homological.  Cohomology with coefficients in M is read
as homology with coefficients in the dual bimodule M* (`dual_bimodule`):
the complex of S-bimodule maps (R/S)^{(x)_S q} -> M is the dual of
C_q(R, M*) (Cartan-Eilenberg, ch. IX), so dim H^q(R, M) = dim H_q(R, M*);
`spectral.module_tower` carries the argument through the group action and
the partial group cohomology.

The diagonal action of the group on the Hochschild chains of the
coefficient algebra A (`diagonal_action`) lives on A's relative complex
over the atoms of the 1_h: [g] sends each atom to an atom or to 0, so it
maps S into S and descends to the relative complex (the proof is in its
docstring).  Degree 0 is C_0 = sum_i e_i M e_i, included into M and
projected from it by `_BarBasis.include_c0` / `project_c0`.  Partial
group homology H_n^par(G, X) = Tor_n^{kpar}(B, X) is `tor_dims` on
kappa_par G.  When |G| is invertible in the field, kappa_par G, a product
of matrix algebras over group algebras of subgroups of G
(Dokuchaev-Exel-Piccione, J. Algebra 226, 2000), is semisimple, and so is
kappa_par^{sigma''} G, a crossed product of the commutative semisimple
B^{sigma''} by G (Bagio-Lazzarin-Paques, Comm. Algebra 38, 2010).  Then B,
Omega and B^sigma are projective, and each that one vector generates
resolves in length 0 through its splitting idempotent.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

from .errors import (EquivarianceFailure, InvalidInput, SizeLimit,
                     ValidationFailure)
from .algebras import (ModuleData, ValidationReport, bimodule_hom,
                       bimodule_to_right_env_module,
                       check_orthogonal_idempotents,
                       check_separability_idempotent, enveloping)
from .linalg import (QuotientSpace, Subspace, _char, _Echelon, _kernel_of,
                     _nonzero, _rank_of, _sp_combination,
                     _sp_identity, _sp_matmul, _sp_matvec, _sp_sum,
                     _sp_transpose, coordinates_in, solve)

__all__ = [
    "ChainComplex", "relative_bar_complex",
    "homology_dims_of_complex",
    "HomologyData", "homology_data", "FreeResolution", "free_resolution",
    "SplitResolution", "splitting_idempotent", "check_splitting_idempotent",
    "tor_dims", "hochschild_homology_bar",
    "hochschild_homology_resolution", "hochschild_homology_separable",
    "GModuleOnChains", "diagonal_action",
    "induced_action_on_homology", "hom_A_module_structure",
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


class _Peirce:
    """The Peirce decomposition X = sum_ij e_i X e_j of X = kappa^n under
    orthogonal idempotents e_i that sum to 1, given by the matrices of
    x -> e_i x (`lefts`) and x -> x e_j (`rights`) as kernel rows.

    Each nonzero block e_i X e_j takes the reduced echelon basis of its
    span; with `drop` (X = R and drop = the e_i), block (i, i) takes e_i
    and that basis without the vector at the first pivot where e_i is
    nonzero, and e_i is then left out: the rest is a basis of
    e_i R e_i / k e_i.  The blocks, in order of (i, j), list one basis of
    X (of X / S with drop): element k lies in block (src[k], tgt[k]) and
    is lift[k]."""

    def __init__(self, K, n, lefts, rights, drop=None):
        p = _char(K)
        self.src, self.tgt, self.lift = [], [], []
        self._coords = {}
        for i, L in enumerate(lefts):
            left_part = Subspace(K, n, _sp_transpose(L, n)).basis()
            for j, Rj in enumerate(rights):
                basis = Subspace(K, n, [_sp_matvec(Rj, u, p)
                                        for u in left_part]).basis()
                if not basis:
                    continue
                head = []
                if drop is not None and i == j:
                    e = drop[i]
                    t = next(s for s, b in enumerate(basis) if min(b) in e)
                    head = [e]
                    del basis[t]
                self._coords[(i, j)] = (coordinates_in(K, n, head + basis),
                                        len(head), len(self.lift) - len(head))
                self.src += [i] * len(basis)
                self.tgt += [j] * len(basis)
                self.lift += basis
        self.dim = len(self.lift)

    def coords(self, i, j, v):
        """The coordinates of v, an element of block (i, j), in the basis
        (modulo e_i with drop)."""
        if not v:
            return {}
        solve, head, offset = self._coords.get((i, j), (None, 0, 0))
        c = solve(v) if solve else None
        if c is None:
            raise ValidationFailure(f"a product leaves the Peirce block "
                                    f"({i}, {j})")
        return {offset + t: a for t, a in c.items() if t >= head}


class _BarBasis:
    """The basis of the S-relative bar complex M (x)_{S^e} (R/S)^{(x)_S q}
    of R with coefficients in the R-bimodule M, S spanned by `atoms`, and
    the face tables of its differentials, built once as kernel rows.  The
    atoms are checked first (`check_orthogonal_idempotents`).

    S = k^m is separable over every field, so Hochschild's relative
    homological algebra (Trans. AMS 82, 1956) gives H_*(R, M) as the
    homology of this complex (Cibils, JPAA 56, 1989, over the vertex
    idempotents of a quiver).  Over S the tensor powers split along the
    Peirce blocks (`_Peirce`), so a chain of degree q is a closed path

        m (x) a_1 (x) ... (x) a_q,  m in e_{i_q} M e_{i_0},
        a_k in e_{i_{k-1}} Rbar e_{i_k},  Rbar = R / S,

    stored as the tuple (m, a_1, .., a_q) of basis indices (of `mb` and
    `w`).  Chains are listed m-major, then lexicographically; with
    atoms = [1] this is the normalized bar complex M (x) (R / k1)^(x q).
    The face tables:

      * prod[x][y]: a_x a_y modulo S, for tgt(x) = src(y);
      * right[x][k]: m_k . a_x, for tgt(m_k) = src(x);
      * left[x][k]: a_x . m_k, for src(m_k) = tgt(x).
    """

    def __init__(self, R, M, atoms):
        check_orthogonal_idempotents(R, atoms).raise_if_failed()
        K = R.field
        self.p = p = R.p
        self.atoms = atoms
        self.w = w = _Peirce(K, R.dim, [R.left_mult_matrix(e) for e in atoms],
                             [R.right_mult_matrix(e) for e in atoms],
                             drop=atoms)
        self.ml = [M.left_matrix_of(e) for e in atoms]
        self.mr = [M.right_matrix_of(e) for e in atoms]
        self.mb = mb = _Peirce(K, M.dim, self.ml, self.mr)
        self.out = [[x for x in range(w.dim) if w.src[x] == i]
                    for i in range(len(atoms))]
        self.prod = [{y: w.coords(w.src[x], w.tgt[y], R.mul(a, w.lift[y]))
                      for y in self.out[w.tgt[x]]}
                     for x, a in enumerate(w.lift)]
        self.right, self.left = [], []
        for x, a in enumerate(w.lift):
            Ra, La = M.right_matrix_of(a), M.left_matrix_of(a)
            self.right.append({
                k: mb.coords(mb.src[k], w.tgt[x], _sp_matvec(Ra, u, p))
                for k, u in enumerate(mb.lift) if mb.tgt[k] == w.src[x]})
            self.left.append({
                k: mb.coords(w.src[x], mb.tgt[k], _sp_matvec(La, u, p))
                for k, u in enumerate(mb.lift) if mb.src[k] == w.tgt[x]})
        self.chains, self.index = [], []

    def dims(self, max_q):
        """dim C_q for q <= max_q, counted from the paths, nothing built."""
        w, mb = self.w, self.mb
        count = {}

        def paths(a, b, q):
            key = (a, b, q)
            if key not in count:
                count[key] = (a == b) if q == 0 else \
                    sum(paths(w.tgt[x], b, q - 1) for x in self.out[a])
            return count[key]
        return [sum(paths(mb.tgt[k], mb.src[k], q) for k in range(mb.dim))
                for q in range(max_q + 1)]

    def build(self, max_q):
        """The chains of degree q <= max_q and their positions."""
        w, mb = self.w, self.mb
        memo = {}

        def paths(a, b, q):
            key = (a, b, q)
            if key not in memo:
                memo[key] = ([()] if a == b else []) if q == 0 else \
                    [(x,) + rest for x in self.out[a]
                     for rest in paths(w.tgt[x], b, q - 1)]
            return memo[key]
        self.chains = [[(k,) + path for k in range(mb.dim)
                        for path in paths(mb.tgt[k], mb.src[k], q)]
                       for q in range(max_q + 1)]
        self.index = [{ch: r for r, ch in enumerate(chains)}
                      for chains in self.chains]

    def include_c0(self, v):
        """A vector of C_0 = sum_i e_i M e_i as an element of M."""
        mb = self.mb
        return _sp_sum(((c, mb.lift[self.chains[0][r][0]])
                        for r, c in v.items()), self.p)

    def project_c0(self, m):
        """m -> sum_i e_i m e_i, an element of M as a vector of C_0: the
        two agree modulo [S, M], as e_i m e_j = [e_i, e_i m e_j] for
        i != j."""
        return _sp_matvec(self._c0_projection, m, self.p)

    @cached_property
    def _c0_projection(self):
        """The matrix of `project_c0` as kernel rows, formed once from the
        blocks e_i u e_i of the unit vectors u of M."""
        p = self.p
        index = self.index[0]
        cols = []
        for u in _sp_identity(len(self.ml[0])):
            col = {}
            for i, (L, Rm) in enumerate(zip(self.ml, self.mr)):
                part = _sp_matvec(L, _sp_matvec(Rm, u, p), p)
                for k, c in self.mb.coords(i, i, part).items():
                    col[index[(k,)]] = c
            cols.append(col)
        return _sp_transpose(cols, len(self.chains[0]))

    def chain_map(self, a_map, m_map, max_q):
        """The matrices, as kernel rows on C_q for q <= max_q, of
        (m, a_1, .., a_q) -> (f(m), g(a_1), .., g(a_q)) for a map g of R
        (`a_map`) that permutes the atoms, sending each to an atom or to 0,
        is multiplicative, and so maps block (i, j) into block
        (g(e_i), g(e_j)) and S into S; and a map f of M (`m_map`) with
        f(a m b) = g(a) f(m) g(b).  An image outside its block raises
        EquivarianceFailure."""
        p = self.p
        w, mb = self.w, self.mb
        perm = []
        for e in self.atoms:
            img = _sp_matvec(a_map, e, p)
            if img and img not in self.atoms:
                raise EquivarianceFailure("an atom maps to a non-atom")
            perm.append(self.atoms.index(img) if img else None)

        def images(space, mat):
            out = []
            for k, u in enumerate(space.lift):
                img = _sp_matvec(mat, u, p)
                i, j = perm[space.src[k]], perm[space.tgt[k]]
                if i is None or j is None:
                    if img:
                        raise EquivarianceFailure(
                            "the map is not multiplicative on the blocks")
                    out.append([])
                else:
                    out.append(list(space.coords(i, j, img).items()))
            return out
        wimg, mimg = images(w, a_map), images(mb, m_map)
        mats = []
        for q in range(max_q + 1):
            index = self.index[q]
            cols = []
            for ch in self.chains[q]:
                col = {}
                for terms in product(mimg[ch[0]], *(wimg[x] for x in ch[1:])):
                    c = 1
                    for _, a in terms:
                        c *= a
                    col[index[tuple(t for t, _ in terms)]] = c
                cols.append(_nonzero(col, p))
            mats.append(_sp_transpose(cols, len(self.chains[q])))
        return mats


def relative_bar_complex(R, M, atoms, max_q, cap=DEFAULT_CHAIN_CAP):
    """The S-relative bar complex C_q = M (x)_{S^e} (R/S)^{(x)_S q}, q <=
    max_q, S spanned by `atoms` (`_BarBasis`), with the boundary

        b(m,a1..aq) = (m.a1, a2..aq)
                      + sum_i (-1)^i (m, a1.. a_i a_{i+1} ..aq)
                      + (-1)^q (aq.m, a1..a_{q-1}).

    The dims are checked against `cap` before any chain is listed.  Each
    column (the boundary of one basis chain) is summed in one sparse dict
    and the columns are transposed into kernel rows once.  Returns
    (ChainComplex, _BarBasis); d.d = 0 is asserted exactly."""
    K = R.field
    p = _char(K)
    bb = _BarBasis(R, M, atoms)
    dims = bb.dims(max_q)
    if any(d > cap for d in dims):
        raise SizeLimit(f"relative bar complex of {R.name} with {M.name} "
                        f"over {len(atoms)} idempotents: dims {dims} exceed "
                        f"cap {cap}")
    bb.build(max_q)
    diffs = {}
    for q in range(1, max_q + 1):
        index = bb.index[q - 1]
        last = 1 if q % 2 == 0 else -1
        cols = []
        for ch in bb.chains[q]:
            k, xs = ch[0], ch[1:]
            col = {}
            # face 0: (m.a1, a2..aq)
            for j, c in bb.right[xs[0]][k].items():
                r = index[(j,) + xs[1:]]
                col[r] = col.get(r, 0) + c
            # inner faces: (-1)^(i+1) (m, a1.. a_i a_{i+1} ..aq)
            for i in range(q - 1):
                for y, c in bb.prod[xs[i]][xs[i + 1]].items():
                    r = index[(k,) + xs[:i] + (y,) + xs[i + 2:]]
                    col[r] = col.get(r, 0) + (c if i % 2 else -c)
            # last face: (-1)^q (aq.m, a1..a_{q-1})
            for j, c in bb.left[xs[-1]][k].items():
                r = index[(j,) + xs[:-1]]
                col[r] = col.get(r, 0) + last * c
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
    as sparse {index: value} rows of the linalg kernel.  `extend` builds
    it, in place, to any length (`free_resolution`)."""

    def __init__(self, R, module, side, ranks=None, gen_images=None,
                 style="greedy", cap=None):
        if style not in RESOLUTION_STYLES:
            raise InvalidInput(f"unknown resolution style {style!r}: expected "
                               f"one of {', '.join(RESOLUTION_STYLES)}")
        self.R = R
        self.module = module
        self.side = side
        self.ranks = [] if ranks is None else ranks
        self.gen_images = [] if gen_images is None else gen_images
        self.acts = _action_table(R, side)
        self.style = style
        self.cap = DEFAULT_CHAIN_CAP if cap is None else cap

    def extend(self, length):
        """Build the degrees up to `length` not built yet; returns self.  A
        resumed resolution forms the columns of its last degree again from
        that degree's generators, instead of keeping them."""
        K = self.R.field
        d = self.R.dim
        m = self.module.dim
        p = _char(K)
        style, cap = self.style, self.cap
        ranks, gen_images = self.ranks, self.gen_images
        mats = self.module.right if self.side == "right" else \
            self.module.left

        def module_images(v):
            return [_sp_matvec(mat, v, p) for mat in mats]

        def free_images(v):
            return [_free_act(act, v, d, p) for act in self.acts]

        start = len(ranks)
        if start == 0:
            # step 0: generators of the module itself, from the unit vectors
            cand = _sp_identity(m)
            if style == "greedy_reversed":
                cand.reverse()
            gens, prev = _select_generators(cand, module_images, p, cap, m)
            _check_size(0, len(gens), d, cap)
            ranks.append(len(gens))
            gen_images.append(gens)
            if _rank_of(K, [dict(c) for c in prev]) != m:
                raise InvalidInput("augmentation not surjective")
            start = 1
        elif start <= length:
            images_of = module_images if start == 1 else free_images
            prev = [u for g in gen_images[-1] for u in images_of(g)]
        for q in range(start, length + 1):
            prev_tgt = m if q == 1 else ranks[q - 2] * d
            ker = _kernel_of(K, _sp_transpose(prev, prev_tgt),
                             ranks[q - 1] * d)
            if style == "greedy_reversed":
                ker.reverse()
            gens, cols = _select_generators(ker, free_images, p, cap,
                                            len(ker), fat=(style == "fat"))
            _check_size(q, len(gens), d, cap)
            ranks.append(len(gens))
            gen_images.append(gens)
            # d.d = 0 on the generators (hence everywhere: module maps)
            if any(_sp_matmul(gens, prev, p)):
                raise InvalidInput(f"d.d != 0 at degree {q}")
            # exactness gate: image of d_q spans exactly ker(d_{q-1})
            if ker and _rank_of(K, [dict(c) for c in cols]) != len(ker):
                raise InvalidInput(f"resolution not exact at degree {q}")
            prev = cols
        return self

    def tor_dims(self, Y_left, max_n):
        """dim Tor_n^R(X, Y) for n <= max_n, X the right module resolved:
        u_j (x) y -> sum_k w_k . y at block k."""
        assert len(self.ranks) >= max_n + 2
        m = Y_left.dim
        return _induced_dims(self, [_sp_transpose(L, m) for L in Y_left.left],
                             m, max_n)


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


def _select_generators(candidates, images_of, p, cap, target, fat=False):
    """Module generators among the sparse `candidates`, taken in order, and
    their columns.  images_of(v) lists b_i . v for the basis b_i of R;
    R is unital, so they span R . v.  A candidate becomes a generator
    unless it lies in the span of the earlier generators' images (every
    one does when `fat`), and its images, formed once, are its columns.
    `target` is the dimension of the module the candidates span (X at
    step 0, the kernel after), which holds every image: once the span
    reaches it, every later candidate and image lies in the span, so
    nothing more is added or taken.  Columns are kept only while there
    are at most `cap` of them: past that the resolution is over its cap
    and is refused by the caller."""
    span = _Echelon(p)
    gens, cols = [], []
    for v in candidates:
        if not fat:
            if len(span) == target:
                break
            if not span.add(dict(v)):
                continue
        gens.append(v)
        images = images_of(v)
        if not fat:
            for u in images:
                if len(span) == target:
                    break
                span.add(dict(u))
        if len(gens) * len(images) <= cap:
            cols += images
    return gens, cols


def _check_size(q, rank_, d, cap):
    if rank_ * d > cap:
        raise SizeLimit(f"free resolution degree {q}: {rank_} generators x "
                        f"dim {d} = {rank_ * d} exceeds cap {cap}")


def free_resolution(R, module, side, length, style="greedy", cap=None,
                    begun=None):
    """A free resolution of `module` (left or right R-module) of the given
    length (boundaries available for q <= length).  style: greedy | fat |
    greedy_reversed (a second, genuinely different resolution).  `begun`,
    a FreeResolution of `module` built to a lower length (with its own R,
    side, style and cap), is continued in place instead, so no degree is
    built twice.

    F_0 is generated by unit vectors of the module and F_q (q >= 1) by
    vectors of ker d_{q-1}, both taken in order (reversed for
    greedy_reversed) by `_select_generators`; `fat` keeps every kernel
    vector.  A generator's images under the basis of R are its columns of
    d_q (of the augmentation for q = 0).  The augmentation, d.d = 0 and
    exactness are each checked on an elimination of their own.  Every
    F_q is checked against `cap` (default DEFAULT_CHAIN_CAP) before its
    columns outgrow it."""
    if begun is None:
        begun = FreeResolution(R, module, side, style=style, cap=cap)
    assert begun.module is module and begun.side == side
    return begun.extend(length)


class SplitResolution:
    """0 -> eR -> X -> 0: the length-0 projective resolution of a right
    R-module X = eR, e a splitting idempotent (`splitting_idempotent`).
    It covers every length."""

    def __init__(self, R, e):
        self.R = R
        self.e = e

    def tor_dims(self, Y_left, max_n):
        """[dim eY, 0, .., 0]: Tor_0^R(eR, Y) = eR (x)_R Y = eY, the image
        of y -> e.y, and Tor_n = 0 for n >= 1, eR being projective."""
        return [_rank_of(self.R.field, Y_left.left_matrix_of(self.e))] + \
            [0] * max_n


def splitting_idempotent(res, cap):
    """e in R with X = eR for the right R-module X of `res`, a
    FreeResolution built to degree >= 1; None when F_0 has more than one
    generator or X is not projective.

    With one generator x_0, F_0 = R and pi: R -> X, r -> x_0 r, is onto;
    its kernel is the right ideal generated by the degree-1 generators
    kappa, as the exactness gate of degree 1 checked.  Suppose x_0 e = x_0
    and e kappa = 0 for every kappa.  Then:

      * e ker(pi) = 0, and 1 - e lies in ker(pi), so e (1 - e) = 0 and
        e = e^2;
      * pi maps eR onto X, as pi(er) = x_0 e r = x_0 r, and one to one: if
        x_0 e r = 0, er lies in ker(pi) and er = e (er) = 0.  So X = eR,
        a summand of R = eR + (1 - e)R: X is projective and
        0 -> eR -> X -> 0 a projective resolution of length 0, whence
        Tor_n^R(X, Y) = 0 for n >= 1 and Tor_0 = eR (x)_R Y = eY, whose
        dim is the rank of y -> e.y (`SplitResolution.tor_dims`);
      * conversely, a projective X splits pi by a module map s, and e =
        s(x_0) has x_0 e = pi(s(x_0)) = x_0 and e kappa = s(x_0 kappa) = 0.
        So the system has no solution exactly when X is not projective.

    One `solve` finds e: its d = dim R unknowns are e's coordinates, its
    equations x_0 e = x_0 (dim X of them, read off X's right action on
    x_0) and e kappa = 0 (d per kappa, the matrices of x -> x kappa).  The
    number of equations is checked against `cap` before any row is built.
    A solution is re-verified on R's own products and X's own action
    (`check_splitting_idempotent`): a failure raises ValidationFailure,
    never a fall-back to the free route."""
    assert res.side == "right" and len(res.ranks) >= 2
    if res.ranks[0] != 1:
        return None
    R, X = res.R, res.module
    d, m = R.dim, X.dim
    x0, = res.gen_images[0]
    kappas = res.gen_images[1]
    equations = m + len(kappas) * d
    if equations > cap:
        raise SizeLimit(f"splitting idempotent of {X.name} over {R.name}: "
                        f"{m} + {len(kappas)} x {d} = {equations} equations "
                        f"exceed cap {cap}")
    rows = _sp_transpose([_sp_matvec(mat, x0, R.p) for mat in X.right], m)
    for kappa in kappas:
        rows += R.right_mult_matrix(kappa)
    e = solve(R.field, rows, d, x0)
    if e is None:
        return None
    check_splitting_idempotent(res, e).raise_if_failed()
    return e


def check_splitting_idempotent(res, e):
    """e^2 = e, x_0 e = x_0 and e kappa = 0 for every degree-1 generator
    kappa of `res`, recomputed from R's own products and X's own action,
    not from the equations `splitting_idempotent` solved.  Over Q they are
    checked on E = D e, D the least common denominator of e's entries, as
    E^2 = D E, x_0 E = D x_0 and E kappa = 0, in int arithmetic."""
    R, X = res.R, res.module
    rep = ValidationReport(f"splitting idempotent of {X.name}")
    x0, = res.gen_images[0]
    D = lcm(*(a.denominator for a in e.values() if type(a) is Fraction))
    E = {k: int(a * D) for k, a in e.items()}
    if R.mul(E, E) != {k: D * a for k, a in E.items()}:
        rep.fail("e^2 != e")
    if X.act_right(x0, E) != {k: D * a for k, a in x0.items()}:
        rep.fail("x_0 e != x_0")
    for i, kappa in enumerate(res.gen_images[1]):
        if R.mul(E, kappa):
            rep.fail("e kappa != 0", i)
    return rep


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
    """dim Tor_n^R(X, Y) for n <= max_n; a precomputed resolution of X may
    be supplied: a FreeResolution that reaches degree max_n + 1, or a
    SplitResolution."""
    res = resolution if resolution is not None else \
        free_resolution(R, X_right, "right", max_n + 1, style=style)
    return res.tor_dims(Y_left, max_n)


# ---------------------------------------------------------------------------
# Hochschild homology


def hochschild_homology_bar(R, M, max_n, atoms=None, cap=DEFAULT_CHAIN_CAP):
    """dim H_q(R, M) for q <= max_n on the S-relative bar complex, S
    spanned by `atoms` (by default k.1: the normalized bar complex)."""
    cc, _ = relative_bar_complex(R, M, [R.unit] if atoms is None else atoms,
                                 max_n + 1, cap=cap)
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
    by equivariance and the partial-representation relations; `basis` is
    the complex's `_BarBasis` when it is a bar complex."""

    def __init__(self, complex_, action, sigma_pattern, basis=None):
        self.complex = complex_
        self.action = action            # action[g][q]: kernel rows on C_q
        self.sigma_pattern = sigma_pattern
        self.basis = basis

    def gate(self, group):
        """Equivariance and the partial-representation relations, checked on
        the kernel rows of every T_g and d[q] as they are stored.  Each
        product T_a T_b is formed once per degree and read by every
        relation that has it."""
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
            Tq = [T[g][q] for g in range(group.n)]
            if Tq[0] != _sp_identity(n):
                rep.fail("unit action", q)
            prod = [[_sp_matmul(Ta, Tb, p) for Tb in Tq] for Ta in Tq]
            for g in range(group.n):
                gi = inv(g)
                for h in range(group.n):
                    gh, hi = mul(g, h), inv(h)
                    s = sigma(g, h)
                    TgTh, TgiTgh, TghThi = prod[g][h], prod[gi][gh], \
                        prod[gh][hi]
                    if _sp_matmul(Tq[gi], TgTh, p) != scaled(s, TgiTgh):
                        rep.fail("left relation", g, h, q)
                    if _sp_matmul(TgTh, Tq[hi], p) != scaled(s, TghThi):
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


def diagonal_action(bar, action, sigma_dd, max_q):
    """The diagonal group action, in degrees q <= max_q, on the S-relative
    Hochschild chains of A with coefficients in M: `bar` is the pair
    (ChainComplex, _BarBasis) of `relative_bar_complex` on A with M
    restricted to A (`m_as_a_bimodule`), to degree at least max_q, with S
    spanned by the atoms of the Boolean algebra generated by the 1_h in A
    (`orthogonalize_idempotents`); `action` is the pair (AG, MG) of
    `_crossed_action_matrices` on M:

        T_g(m, a1..aq) = ([g].m, [g].a1, ..., [g].aq),

    [g].a = theta_g(1_{g^-1} a) and [g].m = xi(g) u_g m u_{g^-1}, u_g =
    1_g delta_g (`_crossed_action_matrices`).  Why T_g descends from
    M (x) A^(x q) to M (x)_{S^e} (A/S)^{(x)_S q}:

      * [g] is multiplicative on A, as theta_g is on D_{g^-1} = 1_{g^-1} A
        and 1_{g^-1} is a central idempotent;
      * [g] sends each atom to an atom or to 0.  An atom is
        e = prod_h f_h with f_h = 1_h or 1 - 1_h.  If f_{g^-1} = 1 - 1_{g^-1},
        then 1_{g^-1} e = 0 and [g].e = 0.  Otherwise e = 1_{g^-1} e and,
        by theta_g(1_{g^-1} 1_h) = 1_g 1_{gh}, [g].e = prod_h [g].f_h with
        [g].1_h = 1_g 1_{gh} and [g].(1 - 1_h) = 1_g - 1_g 1_{gh}: that is
        1_g prod_k f'_k with f'_k = 1_k or 1 - 1_k as k = gh runs over G,
        an atom, nonzero as theta_g is injective on D_{g^-1}.  So [g]
        maps S into S;
      * [g].(a m b) = [g].a [g].m [g].b for a, b in A: in Lambda,
        u_{g^-1} ([g].a delta_1) = 1_{g^-1} a delta_{g^-1} = (a delta_1)
        u_{g^-1}, as theta_{g^-1} theta_g = id on D_{g^-1}, and likewise
        ([g].a delta_1) u_g = [g].a delta_g = u_g (a delta_1);
      * so T_g preserves the span of the chains with a factor in S and of
        the S-balancing relations (m s, a1, ..) - (m, s a1, ..),
        (.., a_i s, a_{i+1}, ..) - (.., a_i, s a_{i+1}, ..) and
        (.., a_q s) (x) m - (.., a_q) (x) s m: the kernel of the quotient
        chain map onto the relative complex.  T_g is a chain map upstairs,
        so it induces one on the quotient, and the partial-representation
        relations pass to it.

    T_g is built directly on the relative basis (`_BarBasis.chain_map`):
    block (i, j) of A goes to block ([g].e_i, [g].e_j), or to 0.  The
    gate (`GModuleOnChains.gate`) checks every T_g exactly as stored.
    Returns the GModuleOnChains, whose `basis` is the _BarBasis."""
    group = sigma_dd.group
    cc, bb = bar
    AG, MG = action
    mats = [bb.chain_map(AG[g], MG[g], max_q) for g in range(group.n)]
    gmod = GModuleOnChains(cc, mats, sigma_dd, basis=bb)
    rep = gmod.gate(group)
    if not rep.ok:
        raise EquivarianceFailure(
            f"chain action gate failed: {rep.violations[:5]}")
    return gmod


def induced_action_on_homology(gmod, q, target_algebra,
                               annihilator_vectors=None, hd=None):
    """The module structure on H_q induced by an equivariant action,
    returned as a validated left ModuleData over a monomial group algebra
    (kappa_par G or kappa_par^{sigma''} G, passed as the ktw object).
    hd: the homology data of degree q from an earlier call on the same
    complex, reused instead of recomputed."""
    cc = gmod.complex
    p = _char(cc.field)
    n = cc.dims[q]
    if hd is None:
        hd = homology_data(cc, q)
    # the representatives as the columns of a matrix on C_q
    R = _sp_transpose(hd.reps, n)

    def on_homology(g):
        TR = _sp_matmul(gmod.action[g][q], R, p)
        cols = [hd.express(img) for img in _sp_transpose(TR, hd.dim)]
        return _sp_transpose(cols, hd.dim)
    mod = target_algebra.group_module(hd.dim, on_homology, "left")
    if any(any(mod.left_matrix_of(v)) for v in annihilator_vectors or ()):
        raise EquivarianceFailure(
            "ker(zeta) does not annihilate the homology module")
    return hd, mod


def hom_A_module_structure(A_reg, MA, action, ktw_dd):
    """The kappa_par^{sigma''} G-module structure on Hom_{A^e}(A, M), for
    A_reg the regular A-bimodule, MA the Lambda-bimodule M restricted to A
    and `action` = (AG, MG) of `_crossed_action_matrices` on M:
    ([g].f)(a) = xi(g) [g]'.f([g^-1].a).  Returns (a basis of
    Hom_{A^e}(A, M) as matrices A -> M in kernel rows, the module)."""
    A = A_reg.algebra
    K = A.field
    p = _char(K)
    carrier = bimodule_hom(A_reg, MA)
    n = len(carrier)
    AG, MG = action
    inv = ktw_dd.group.inv

    def flatten(F):
        """F (M.dim x A.dim) as one kernel row, row-major."""
        return {r * A.dim + c: a for r, row in enumerate(F)
                for c, a in row.items()}

    coords_of = coordinates_in(K, MA.dim * A.dim,
                               [flatten(F) for F in carrier])

    def on_hom(g):
        cols = []
        for F in carrier:
            img = _sp_matmul(MG[g], _sp_matmul(F, AG[inv(g)], p), p)
            coords = coords_of(flatten(img))
            if coords is None:
                raise EquivarianceFailure("action leaves Hom_{A^e}(A, M)")
            cols.append(coords)
        return _sp_transpose(cols, n)
    return carrier, ktw_dd.group_module(n, on_hom, "left")
