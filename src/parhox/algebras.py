"""Finite-dimensional associative algebras by structure constants, their
modules and bimodules, and idempotent machinery.

Convention table (used consistently by every module):

  * structure constants:  b_i . b_j = sum_k  sc[(i,j)][k] . b_k,
    stored sparsely as  sc[(i, j)] = [(k, coeff), ...];
  * elements of algebras and modules are kernel rows of `linalg`
    (`{index: value}` dicts normalized like `linalg._nonzero`), and every
    matrix of an action or of a map is a list of kernel rows, the shape
    carried by `dim`;
  * a left module action is a list L of matrices, one per algebra basis
    element, acting on column vectors:  b_i . x = L[i] @ x,
    with  L of a product satisfying  L[i] @ L[j] = sum_k c_ijk L[k];
  * a right module action R satisfies  R[j] @ R[i] = sum_k c_ijk R[k]
    (x . b_i . b_j applies R[i] first);
  * a bimodule is a left and a right action that commute;
  * an algebra map f is the list of its images f(b_j), one kernel row per
    source basis element in target coordinates (the columns of its
    matrix);
  * an A-bimodule is the same thing as a left A**e = A (x) A^op module via
    (a (x) b) . m = a . m . b,  and as a right A**e-module via
    m . (a (x) b) = b . m . a;
  * `A.generators` are basis indices whose words span A.  A property that
    holds for 1 and for the generators, and whose holders are closed under
    products, holds on all of A (they form a unital subalgebra);
    associativity and the module axioms are checked over the generators
    only.
"""

from fractions import Fraction
from functools import cached_property

from .errors import (InvalidInput, NotCommuting, NotIdempotent, SchemaError,
                     SizeLimit, ValidationFailure)
from .linalg import (QuotientSpace, Subspace, _char, _dense, _kernel_of,
                     _nonzero, _rank_of, _scalar, _sp_combination,
                     _sp_identity, _sp_matmul, _sp_matvec, _sp_sum,
                     _sp_transpose, _sparse, coordinates_in, solve)

__all__ = [
    "ValidationReport", "StructureAlgebra", "AlgebraHom", "ModuleData",
    "opposite", "enveloping", "bimodule_to_left_env_module",
    "bimodule_to_right_env_module", "subalgebra_generated",
    "orthogonalize_idempotents", "separability_idempotent",
    "tensor_over_algebra", "hom_over_algebra", "restrict_along_hom",
    "regular_bimodule", "dual_bimodule", "module_from_generator_actions",
    "matrix_algebra", "product_field_algebra", "dual_numbers",
    "group_algebra", "commutator_quotient",
]


class ValidationReport:
    """Outcome of a validation pass; `violations` is a list of tuples."""

    def __init__(self, subject=""):
        self.subject = subject
        self.violations = []
        self.notes = []

    @property
    def ok(self):
        return not self.violations

    def fail(self, *info):
        self.violations.append(tuple(info))

    def note(self, *info):
        self.notes.append(tuple(info))

    def merge(self, other):
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)
        return self

    def raise_if_failed(self, exc=ValidationFailure):
        if not self.ok:
            raise exc(f"{self.subject}: {self.violations[:5]}"
                      + ("..." if len(self.violations) > 5 else ""), self)
        return self

    def to_json(self):
        return {"subject": self.subject, "ok": self.ok,
                "violations": [list(map(str, v)) for v in self.violations[:50]],
                "notes": [list(map(str, v)) for v in self.notes]}

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"<ValidationReport {self.subject}: {state}>"


class StructureAlgebra:
    """Associative unital algebra given by sparse structure constants (field
    values); the unit and every element are kernel rows."""

    def __init__(self, field, dim, sc, unit, labels=None, name=""):
        self.field = field
        self.p = _char(field)
        self.dim = dim
        # one pass; a row is copied only to drop a zero coefficient, since
        # no code mutates a row after construction
        self.sc = {}
        for ij, row in sc.items():
            for _, c in row:
                if not c:
                    row = [kc for kc in row if kc[1]]
                    break
            if row:
                self.sc[ij] = row
        self.unit = unit
        self.labels = labels or [f"b{i}" for i in range(dim)]
        self.name = name or f"algebra(dim={dim})"

    def mul_basis(self, i, j):
        return self.sc.get((i, j), [])

    @cached_property
    def kernel_sc(self):
        """The structure constants with kernel scalars (`linalg._scalar`):
        ints over F_p, and over Q ints where integral; built once."""
        K = self.field
        return {ij: [(k, _scalar(K, c)) for k, c in row]
                for ij, row in self.sc.items()}

    @cached_property
    def generators(self):
        """Basis indices, increasing, whose words span the algebra; built
        once, on first use, from `kernel_sc`.  b_i is kept unless it lies
        in the closure of the unit under left multiplication by the earlier
        picks already.

        If the elements with some linear property contain 1 and are closed
        under products, they form a unital subalgebra, which is the whole
        algebra as soon as it holds the generators.  So (xy)z = x(yz) for
        all y, z (`validate`) and L(xy) = L(x) L(y) for all y
        (`ModuleData.validate`) need checking for generators x only."""
        span = Subspace(self.field, self.dim)
        elems = []          # the closure, as the products that reached it
        picks = []
        applied = []        # picks[t] has multiplied elems[:applied[t]]

        def push(v):
            if span.add(v):
                elems.append(v)

        push(self.unit)
        for i in range(self.dim):
            if span.dim == self.dim:
                break
            if span.contains({i: 1}):
                continue
            picks.append(i)
            applied.append(0)
            while min(applied) < len(elems):
                for t, s in enumerate(picks):
                    while applied[t] < len(elems):
                        push(self.mul({s: 1}, elems[applied[t]]))
                        applied[t] += 1
        return picks

    def mul(self, u, v):
        """The product of two elements."""
        sc = self.kernel_sc
        out = {}
        get = out.get
        for i, a in u.items():
            for j, b in v.items():
                row = sc.get((i, j))
                if row:
                    ab = a * b
                    for k, c in row:
                        out[k] = get(k, 0) + ab * c
        return _nonzero(out, self.p)

    def basis_vector(self, i):
        return {i: 1}

    def left_mult_matrix(self, v):
        """Kernel rows of x |-> v . x: entry (k, j) is sum_i v_i c_ijk."""
        return self._mult_rows(v, True)

    def right_mult_matrix(self, v):
        """Kernel rows of x |-> x . v: entry (k, j) is sum_i v_i c_jik."""
        return self._mult_rows(v, False)

    def _mult_rows(self, v, left):
        """The matrix of multiplication by v, read off the structure
        constants."""
        d = self.dim
        sc = self.kernel_sc
        rows = [{} for _ in range(d)]
        for i, a in v.items():
            for j in range(d):
                for k, c in sc.get((i, j) if left else (j, i), ()):
                    row = rows[k]
                    row[j] = row.get(j, 0) + a * c
        return [_nonzero(row, self.p) for row in rows]

    def validate(self):
        """The unit law and associativity, compared on sparse sums of
        structure constants.

        `ok` is decided over the generators s: the unit law for every basis
        element and (b_s b_j) b_k = b_s (b_j b_k) for every j, k.  That is
        exact: the x with (xy)z = x(yz) for all y, z form a subspace that
        holds 1 once the unit law does, and is closed under products, since
        ((xx')y)z = (x(x'y))z = x((x'y)z) = x(x'(yz)) = (xx')(yz); so it is
        a unital subalgebra, all of A once it holds the generators.  Only a
        failed pass runs the sweep over every basis triple, so the
        violations are those of all triples, in order."""
        rep = self._check(self.generators)
        return rep if rep.ok else self._check(range(self.dim))

    def _check(self, firsts):
        """The unit law, and associativity on the triples (i, j, k) with i
        in firsts."""
        rep = ValidationReport(f"algebra {self.name}")
        d = self.dim
        for i in range(d):
            bi = self.basis_vector(i)
            if self.mul(self.unit, bi) != bi or self.mul(bi, self.unit) != bi:
                rep.fail("unit", i)
        sc = self.kernel_sc
        p = self.p
        for i in firsts:
            left = [sc.get((i, t), ()) for t in range(d)]     # b_i b_t
            for j in range(d):
                for k in range(d):
                    # (b_i b_j) b_k and b_i (b_j b_k), sparse and not yet
                    # normalized
                    lhs, rhs = {}, {}
                    for t, c in left[j]:
                        for u, e in sc.get((t, k), ()):
                            lhs[u] = lhs.get(u, 0) + c * e
                    for t, c in sc.get((j, k), ()):
                        for u, e in left[t]:
                            rhs[u] = rhs.get(u, 0) + c * e
                    # equal unnormalized sums are equal; others are
                    # normalized first
                    if lhs != rhs and _nonzero(lhs, p) != _nonzero(rhs, p):
                        rep.fail("associativity", i, j, k)
        return rep

    def to_json(self):
        K = self.field
        sc = [[i, j, k, K.dump(c)] for (i, j), row in sorted(self.sc.items())
              for (k, c) in row]
        return {"dim": self.dim,
                "unit": [K.dump(a) for a in _dense(K, self.unit, self.dim)],
                "sc": sc, "labels": self.labels}

    @staticmethod
    def from_json(field, obj, name=""):
        dim = obj["dim"]
        if type(dim) is not int or dim < 0:
            raise SchemaError(f"algebra dim must be a natural number: {dim!r}")
        sc = {}
        for entry in obj["sc"]:
            if not (isinstance(entry, list) and len(entry) == 4 and all(
                    type(x) is int and 0 <= x < dim for x in entry[:3])):
                raise SchemaError(f"structure constant {entry!r}: need "
                                  f"[i, j, k, c] with indices in [0, {dim})")
            i, j, k, c = entry
            sc.setdefault((i, j), []).append((k, field.parse(c)))
        if len(obj["unit"]) != dim:
            raise SchemaError(f"unit must have {dim} coordinates")
        unit = _sparse(field, [field.parse(a) for a in obj["unit"]])
        return StructureAlgebra(field, dim, sc, unit,
                                labels=obj.get("labels"), name=name)

    def __repr__(self):
        return f"StructureAlgebra({self.name}, dim={self.dim})"


class AlgebraHom:
    """Linear map between algebras given by the images f(b_j) of the source
    basis, as kernel rows in target coordinates."""

    def __init__(self, source, target, images, name=""):
        self.source = source
        self.target = target
        self.images = images
        self.name = name or "hom"

    def apply(self, v):
        return _sp_sum(((c, self.images[j]) for j, c in v.items()),
                       self.source.p)

    def verify(self, unital=True):
        """f(b_i) f(b_j) = f(b_i b_j) for every pair of basis elements, and
        f(1) = 1, both sides expanded by structure constants."""
        rep = ValidationReport(f"hom {self.name}")
        src, tgt = self.source, self.target
        p = src.p
        imgs = self.images
        ssc, tsc = src.kernel_sc, tgt.kernel_sc

        def combine(terms):
            """sum c . (sum e b_t) over (c, [(t, e), ...]) terms."""
            out = {}
            for c, row in terms:
                for t, e in row:
                    out[t] = out.get(t, 0) + c * e
            return _nonzero(out, p)

        for i, fi in enumerate(imgs):
            for j, fj in enumerate(imgs):
                lhs = combine((x * y, tsc.get((a, b), ()))
                              for a, x in fi.items() for b, y in fj.items())
                rhs = combine((c, imgs[k].items())
                              for k, c in ssc.get((i, j), ()))
                if lhs != rhs:
                    rep.fail("multiplicative", i, j)
        if unital and self.apply(src.unit) != tgt.unit:
            rep.fail("unit")
        return rep

    def is_bijective(self):
        return (self.source.dim == self.target.dim
                and _rank_of(self.source.field,
                             [dict(img) for img in self.images])
                == self.source.dim)


class ModuleData:
    """Module/bimodule over one algebra: one action matrix per basis
    element and side, each a list of `dim` kernel rows."""

    def __init__(self, algebra, dim, left=None, right=None, name=""):
        self.algebra = algebra
        self.dim = dim
        self.left = left
        self.right = right
        self.name = name or "module"
        if left is None and right is None:
            raise InvalidInput("module needs at least one action")

    @property
    def sidedness(self):
        if self.left is not None and self.right is not None:
            return "bi"
        return "left" if self.left is not None else "right"

    def act_left(self, a_vec, x):
        return self._act(self.left, a_vec, x)

    def act_right(self, x, a_vec):
        return self._act(self.right, a_vec, x)

    def _act(self, mats, a_vec, x):
        return _sp_matvec(self._matrix_of(mats, a_vec), x, self.algebra.p)

    def left_matrix_of(self, a_vec):
        return self._matrix_of(self.left, a_vec)

    def right_matrix_of(self, a_vec):
        return self._matrix_of(self.right, a_vec)

    def _matrix_of(self, mats, a_vec):
        """sum_i a_i mats[i], as kernel rows."""
        return _sp_combination([(c, mats[i]) for i, c in a_vec.items()],
                               self.dim, self.algebra.p)

    def validate(self):
        """The unit and product axioms of each action and, for a bimodule,
        the commutation of the two, compared on the kernel rows as
        stored.

        `ok` is decided over the algebra's generators s: the unit axiom,
        b_s b_j for every j, and the commutation of generator pairs.  That
        is exact: the x with L(xy) = L(x) L(y) for every y (R(xy) =
        R(y) R(x) on the right) contain 1 and are closed under products,
        so they are all of the algebra once they hold the generators, and
        then the x whose action commutes with the other side's action of
        a generator are a unital subalgebra too.  Only a failed pass runs
        the full sweep over every basis pair, so the violations are those
        of all pairs, in order."""
        rep = self._check(self.algebra.generators)
        return rep if rep.ok else self._check(range(self.algebra.dim))

    def _check(self, firsts):
        """The axioms for the products b_i b_j, i in firsts and every j,
        and the commutation of L_i and R_j for i, j in firsts."""
        rep = ValidationReport(f"module {self.name} over {self.algebra.name}")
        left, right = self.left, self.right
        if left is not None:
            self._check_action(rep, "left", left, firsts)
        if right is not None:
            self._check_action(rep, "right", right, firsts)
        if left is not None and right is not None:
            p = self.algebra.p
            for i in firsts:
                for j in firsts:
                    if _sp_matmul(left[i], right[j], p) != \
                       _sp_matmul(right[j], left[i], p):
                        rep.fail("actions do not commute", i, j)
        return rep

    def _check_action(self, rep, side, mats, firsts):
        """The unit acts as 1, and b_i b_j = sum_k c_ijk b_k (i in firsts)
        acts as sum_k c_ijk mats[k]: as L_i L_j on the left, R_j R_i on the
        right."""
        A = self.algebra
        p = A.p
        n = self.dim

        def combination(terms):
            return _sp_combination([(c, mats[k]) for k, c in terms], n, p)

        if combination(A.unit.items()) != _sp_identity(n):
            rep.fail(f"{side} unit")
        for i in firsts:
            for j in range(A.dim):
                lhs = _sp_matmul(mats[i], mats[j], p) if side == "left" \
                    else _sp_matmul(mats[j], mats[i], p)
                if lhs != combination(A.kernel_sc.get((i, j), ())):
                    rep.fail(f"{side} action", i, j)


# ---------------------------------------------------------------------------
# constructions on algebras


def opposite(A):
    sc = {}
    for (i, j), row in A.sc.items():
        sc[(j, i)] = list(row)
    return StructureAlgebra(A.field, A.dim, sc, A.unit, labels=A.labels,
                            name=f"{A.name}^op")


def enveloping(A, size_limit=1 << 16):
    """A (x) A^op; basis (i, j) at index i * dim + j."""
    d = A.dim
    if d * d > size_limit:
        raise SizeLimit(f"enveloping dimension {d * d} over limit")
    K = A.field
    sc = {}
    for (i, k), row1 in A.sc.items():
        for (l, j), row2 in A.sc.items():
            # (b_i (x) b_j)(b_k (x) b_l) = b_i b_k (x) b_l b_j
            entries = []
            for m, c1 in row1:
                for n_, c2 in row2:
                    entries.append((m * d + n_, K.mul(c1, c2)))
            if entries:
                sc.setdefault((i * d + j, k * d + l), []).extend(entries)
    unit = _nonzero({i * d + j: a * b for i, a in A.unit.items()
                     for j, b in A.unit.items()}, A.p)
    labels = [f"{A.labels[i]}(x){A.labels[j]}" for i in range(d) for j in range(d)]
    return StructureAlgebra(K, d * d, sc, unit, labels=labels, name=f"{A.name}^e")


def bimodule_to_left_env_module(env, A, M):
    """Left A^e-action (a (x) b).m = a.m.b from a bimodule M over A."""
    d = A.dim
    p = _char(A.field)
    left = [_sp_matmul(M.left[i], M.right[j], p)
            for i in range(d) for j in range(d)]
    return ModuleData(env, M.dim, left=left, name=f"{M.name} as left {env.name}")


def bimodule_to_right_env_module(env, A, M):
    """Right A^e-action m.(a (x) b) = b.m.a."""
    d = A.dim
    p = _char(A.field)
    right = [_sp_matmul(M.left[j], M.right[i], p)
             for i in range(d) for j in range(d)]
    return ModuleData(env, M.dim, right=right, name=f"{M.name} as right {env.name}")


def _sc_row(K, row):
    """A kernel row as a row of structure constants: (index, field value)
    pairs by increasing index."""
    if K.kind == "Q":
        return [(k, Fraction(c)) for k, c in sorted(row.items())]
    return sorted(row.items())


class SubalgebraResult:
    def __init__(self, algebra, span, inclusion):
        self.algebra = algebra
        self.span = span                      # the Subspace of the ambient
        self.basis_vectors = span.basis()
        self.inclusion = inclusion

    def to_sub_coords(self, vec):
        """Coordinates of an ambient vector in the subalgebra basis, or None."""
        return self.span.coords(vec)


def subalgebra_generated(A, gens, adjoin_unit=True, name=""):
    """Span-closure of gens (plus the unit) under the product of A."""
    K = A.field
    span = Subspace(K, A.dim)
    vecs = []
    def push(v):
        if span.add(v):
            vecs.append(v)
    if adjoin_unit:
        push(A.unit)
    for g in gens:
        push(g)
    frontier = list(vecs)
    while frontier:
        new = []
        for u in list(vecs):
            for v in frontier:
                for w in (A.mul(u, v), A.mul(v, u)):
                    if span.add(w):
                        vecs.append(w)
                        new.append(w)
        frontier = new
    basis = span.basis()  # deterministic echelon basis, lowest pivots first
    sub_dim = len(basis)
    sc = {}
    for i in range(sub_dim):
        for j in range(sub_dim):
            coords = span.coords(A.mul(basis[i], basis[j]))
            assert coords is not None, "subalgebra closure failed"
            if coords:
                sc[(i, j)] = _sc_row(K, coords)
    unit_coords = span.coords(A.unit)
    if unit_coords is None:
        raise InvalidInput("unit of the ambient algebra not in the subalgebra")
    sub = StructureAlgebra(K, sub_dim, sc, unit_coords, name=name or f"sub({A.name})")
    incl = AlgebraHom(sub, A, basis, name=f"incl {sub.name}")
    return SubalgebraResult(sub, span, incl)


def orthogonalize_idempotents(A, gens, max_gens=14):
    """Orthogonal idempotent basis of the unital subalgebra generated by
    commuting idempotents, via inclusion-exclusion atoms.

    Returns a list of pairwise-orthogonal idempotents v_i with sum(v_i) = 1
    whose span equals span(products of gens, 1).
    """
    if len(gens) > max_gens:
        raise SizeLimit(f"{len(gens)} idempotent generators (limit {max_gens})")
    for g in gens:
        if A.mul(g, g) != g:
            raise NotIdempotent(str(g))
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if A.mul(g, h) != A.mul(h, g):
                raise NotCommuting(f"{g} vs {h}")
    atoms = [A.unit]
    for g in gens:
        comp = _sp_sum([(1, A.unit), (-1, g)], A.p)
        atoms = [part for at in atoms
                 for part in (A.mul(at, g), A.mul(at, comp)) if part]
    assert _sp_sum(((1, at) for at in atoms), A.p) == A.unit
    for i, u in enumerate(atoms):
        assert A.mul(u, u) == u
        for v in atoms[i + 1:]:
            assert not A.mul(u, v)
    return atoms


def separability_idempotent(A):
    """Solve for e in A (x) A with mult(e) = 1 and (a (x) 1)e = (1 (x) a)e.

    The unknown e_ij of e = sum e_ij b_i (x) b_j is variable i * d + j.
    Equation k < d is mult(e)_k = 1_k; equation d + (t * d + k) * d + l is
    the (k, l) coefficient of b_t e - e b_t = 0.  The rows are read off the
    structure constants, each constant once.  Returns e as d kernel rows
    (row i holds the e_ij) or None when the system is inconsistent.
    """
    d = A.dim
    rows = [{} for _ in range(d + d ** 3)]

    def add(eq, var, c):
        rows[eq][var] = rows[eq].get(var, 0) + c

    for (i, j), terms in A.kernel_sc.items():
        for k, c in terms:
            add(k, i * d + j, c)
            for l in range(d):
                # b_i e: c e_jl at the (k, l) coefficient of equation t = i
                add(d + (i * d + k) * d + l, j * d + l, c)
                # e b_j: c e_li at the (l, k) coefficient of equation t = j
                add(d + (j * d + l) * d + k, l * d + i, -c)
    x = solve(A.field, [_nonzero(row, A.p) for row in rows], d * d, A.unit)
    if x is None:
        return None
    e = [{} for _ in range(d)]
    for var, a in x.items():
        i, j = divmod(var, d)
        e[i][j] = a
    return e


# ---------------------------------------------------------------------------
# module constructions


def regular_bimodule(A):
    left = [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    right = [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    return ModuleData(A, A.dim, left=left, right=right, name=f"{A.name} regular")


def dual_bimodule(M):
    """M* = Hom_k(M, k) with (a.f.b)(m) = f(b.m.a), in the dual basis: the
    left action of a_i is (m -> m.a_i)^T, the right one (m -> a_i.m)^T."""
    n = M.dim
    return ModuleData(M.algebra, n,
                      left=[_sp_transpose(R, n) for R in M.right],
                      right=[_sp_transpose(L, n) for L in M.left],
                      name=f"{M.name}*")


class TensorOverAlgebra:
    """X (x)_R Y for a right module X and a left module Y over R.

    The quotient coordinates come from `QuotientSpace` over the span of the
    balancing relations x.b (x) y - x (x) b.y.  The ambient index of the
    pure tensor (ix, iy) is ix * dimY + iy; it is private to this class,
    and maps are passed in as their two factors (`tensor_map`).
    """

    def __init__(self, R, X, Y):
        if X.right is None or Y.left is None:
            raise InvalidInput("need a right module and a left module")
        K = R.field
        self.R, self.X, self.Y, self.K = R, X, Y, K
        mx, my = X.dim, Y.dim
        N = mx * my
        p = _char(K)
        rel = Subspace(K, N)
        for b in range(R.dim):
            colsX = _sp_transpose(X.right[b], mx)
            colsY = _sp_transpose(Y.left[b], my)
            for ix in range(mx):
                for iy in range(my):
                    v = {r * my + iy: a for r, a in colsX[ix].items()}
                    for r, a in colsY[iy].items():
                        key = ix * my + r
                        v[key] = v.get(key, 0) - a
                    rel.ech.add(_nonzero(v, p))
        self.ambient_dim = N
        self.relations = rel
        self.quotient = QuotientSpace(K, N, rel)
        self.dim = self.quotient.dim

    def pure(self, xvec, yvec):
        """Quotient coordinates of x (x) y."""
        my = self.Y.dim
        return self.quotient.project(_nonzero(
            {ix * my + iy: a * b for ix, a in xvec.items()
             for iy, b in yvec.items()}, self.R.p))

    def tensor_map(self, P=None, Q=None):
        """The matrix (kernel rows), in quotient coordinates, of the map
        induced by P (x) Q for linear maps P of X and Q of Y, both kernel
        rows (None is the identity); raises InvalidInput unless P (x) Q
        maps every balancing relation into the relation span, i.e.
        descends to X (x)_R Y.  Callers pass the two factors only: the
        ambient index of a pure tensor is private to this class."""
        K = self.K
        my = self.Y.dim

        def columns(F, n):
            return _sp_identity(n) if F is None else _sp_transpose(F, n)

        colsP, colsQ = columns(P, self.X.dim), columns(Q, my)
        p = _char(K)
        ech = self.relations.ech

        def image(vec):
            out = {}
            for idx, c in vec.items():
                ix, iy = divmod(idx, my)
                for r, a in colsP[ix].items():
                    ca = c * a
                    for s, b in colsQ[iy].items():
                        key = r * my + s
                        out[key] = out.get(key, 0) + ca * b
            return ech.reduce(_nonzero(out, p))

        for c, tail in ech.rref():
            if image({c: 1, **tail}):
                raise InvalidInput("map does not descend to the tensor product")
        index = self.quotient.index
        rows = [{} for _ in range(self.dim)]
        for j, c in enumerate(self.quotient.free):
            for t, a in image({c: 1}).items():
                rows[index[t]][j] = a
        return rows

    def map_from(self, pure_images, target_dim):
        """Matrix (kernel rows, target_dim x self.dim) of the linear map
        sending the pure tensor of basis elements (ix, iy) to the vector
        pure_images[ix][iy]; raises InvalidInput unless the map kills the
        balancing relations.  Quotient coordinate t lifts to the ambient
        basis tensor at `quotient.free[t]`, so its column is that image."""
        p = self.R.p
        imgs = [w for row in pure_images for w in row]
        for c, tail in self.relations.ech.rref():
            if _sp_matmul([{c: 1, **tail}], imgs, p)[0]:
                raise InvalidInput("map is not balanced over the algebra")
        return _sp_transpose([imgs[c] for c in self.quotient.free],
                             target_dim)


def tensor_over_algebra(R, X, Y):
    return TensorOverAlgebra(R, X, Y)


def hom_over_algebra(R, X, Y):
    """Basis of Hom_R(X, Y) for left modules X, Y: matrices F (kernel rows,
    my x mx) with F L_X(b) = L_Y(b) F for every algebra basis element b.
    The unknown F[r][s] is variable r * mx + s."""
    if X.left is None or Y.left is None:
        raise InvalidInput("need left modules")
    K = R.field
    p = _char(K)
    mx, my = X.dim, Y.dim
    rows = []
    for b in range(R.dim):
        colsX, LY = _sp_transpose(X.left[b], mx), Y.left[b]
        for r in range(my):
            for c in range(mx):
                # (F LX)[r][c] - (LY F)[r][c]
                row = {r * mx + s: a for s, a in colsX[c].items()}
                for s, a in LY[r].items():
                    key = s * mx + c
                    row[key] = row.get(key, 0) - a
                rows.append(_nonzero(row, p))
    basis = []
    for v in _kernel_of(K, rows, my * mx):
        F = [{} for _ in range(my)]
        for idx, a in v.items():
            r, s = divmod(idx, mx)
            F[r][s] = a
        basis.append(F)
    return basis


def restrict_along_hom(hom, M):
    """Pull a module over hom.target back to a module over hom.source."""
    src = hom.source
    p = _char(src.field)

    def pulled(mats):
        return None if mats is None else [
            _sp_combination([(c, mats[k]) for k, c in img.items()], M.dim, p)
            for img in hom.images]

    left, right = pulled(M.left), pulled(M.right)
    return ModuleData(src, M.dim, left=left, right=right,
                      name=f"{M.name} via {hom.name}")


def module_from_generator_actions(A, dim, given, side="left"):
    """Complete a module action specified only on generators of A.

    `given` maps basis indices to action matrices (kernel rows).  The
    closure tracks the span of algebra elements with known action;
    multiplication order follows the side convention.  Each ordered pair
    of known elements is multiplied once: a round pairs known[i] only with
    the elements new to it.
    """
    K = A.field
    if dim == 0:
        empty = [[] for _ in range(A.dim)]
        if side == "left":
            return ModuleData(A, 0, left=empty)
        return ModuleData(A, 0, right=empty)
    p = _char(K)
    span = Subspace(K, A.dim)
    known = []  # (algebra vector, action matrix as kernel rows)

    def push(vec, mat):
        if span.add(vec):
            known.append((vec, mat))

    push(A.unit, _sp_identity(dim))
    for i, mat in given.items():
        push(A.basis_vector(i), mat)
    paired = []     # known[i] was multiplied with known[:paired[i]]
    while len(paired) < len(known) and span.dim < A.dim:
        paired += [0] * (len(known) - len(paired))
        for i in range(len(paired)):
            u, Mu = known[i]
            start, paired[i] = paired[i], len(known)
            for (v, Mv) in known[start:paired[i]]:
                w = A.mul(u, v)
                # the product of the actions is formed only for a new w
                if span.add(w):
                    known.append((w, _sp_matmul(Mu, Mv, p) if side == "left"
                                  else _sp_matmul(Mv, Mu, p)))
    if span.dim < A.dim:
        raise InvalidInput("the given generators do not generate the algebra")
    coords_of = coordinates_in(K, A.dim, [u for (u, _) in known])
    actions = []
    for i in range(A.dim):
        coords = coords_of(A.basis_vector(i))
        actions.append(_sp_combination(
            [(c, known[k][1]) for k, c in coords.items()], dim, p))
    if side == "left":
        return ModuleData(A, dim, left=actions)
    return ModuleData(A, dim, right=actions)


def commutator_quotient(M):
    """M / [A, M] for a bimodule M: returns (QuotientSpace, dim)."""
    A = M.algebra
    K = A.field
    n = M.dim
    span = Subspace(K, n)
    for i in range(A.dim):
        diff = _sp_combination([(1, M.left[i]), (-1, M.right[i])], n,
                               _char(K))
        for col in _sp_transpose(diff, n):
            span.ech.add(col)
    return QuotientSpace(K, n, span)


# ---------------------------------------------------------------------------
# stock algebras used by fixtures and tests


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


def group_algebra(K, G, name=None):
    sc = {(i, j): [(G.mul(i, j), K.one)] for i in range(G.n) for j in range(G.n)}
    return StructureAlgebra(K, G.n, sc, {0: 1}, name=name or f"K[{G.name}]")
