"""Finite-dimensional associative algebras by structure constants, their
modules and bimodules, and idempotent machinery.

Convention table (used consistently by every module):

  * structure constants:  b_i . b_j = sum_k  sc[(i,j)][k] . b_k,
    stored sparsely as  sc[(i, j)] = [(k, coeff), ...], each coeff a
    nonzero field value (a kernel scalar of `linalg`);
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
    m . (a (x) b) = b . m . a;  A**e is generated by the a (x) 1 and the
    1 (x) b, so an A**e-linear condition is one on the two actions
    (`bimodule_hom`, `bimodule_tensor`), and A**e itself is built only
    for the free A**e-modules of a resolution;
  * `A.generators` are an irredundant set of basis indices whose words
    span A.  A property that holds for 1 and for the generators, and whose
    holders are closed under products, holds on all of A (they form a
    unital subalgebra); associativity, the module axioms, algebra maps,
    Hom, balanced tensors, commutators and separability are decided over
    the generators only, and give the same answers and coordinates over
    any generating set;
  * a module given by the matrices of some generators is built and
    checked by the same products (`WordPlan`): each generator's matrix
    times each word's, once.
"""

from functools import cached_property
from itertools import islice
from operator import lt

from .errors import (InvalidInput, NotCommuting, NotIdempotent, SchemaError,
                     SizeLimit, ValidationFailure)
from .linalg import (QuotientSpace, Subspace, _char, _kernel_of, _nonzero,
                     _rank_of, _sp_combination, _sp_identity, _sp_matmul,
                     _sp_matvec, _sp_sum, _sp_transpose, _sparse,
                     coordinates_in, solve)

__all__ = [
    "ValidationReport", "StructureAlgebra", "AlgebraHom", "ModuleData",
    "opposite", "enveloping", "bimodule_to_right_env_module",
    "subalgebra_span", "subalgebra_generated",
    "orthogonalize_idempotents", "check_orthogonal_idempotents",
    "separability_idempotent", "check_separability_idempotent",
    "tensor_over_algebra", "bimodule_tensor", "hom_over_algebra",
    "bimodule_hom", "restrict_along_hom",
    "regular_bimodule", "dual_bimodule", "WordPlan",
    "module_from_generator_actions",
    "group_algebra", "commutator_quotient",
]

ENVELOPING_LIMIT = 1 << 16       # the largest dim of an enveloping algebra


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
    """Associative unital algebra given by sparse structure constants; the
    unit and every element are kernel rows.

    No code mutates a row of `sc` after construction, so one row object may
    be the value of many keys: the builders of kappa_par^sigma G give
    products with the same target and scalar one shared row."""

    def __init__(self, field, dim, sc, unit, labels=None, name=""):
        self.field = field
        self.p = _char(field)
        self.dim = dim
        # each distinct row object is normalized once: it is copied only to
        # drop a zero coefficient or to store an integral Fraction, which
        # Python arithmetic on field values can leave behind, as the int
        # that `fields` makes of it, and an empty row is dropped; the ids
        # are fixed while sc holds the rows
        changed = {}       # id of a row that normalizing changes -> result
        for key, row in {id(row): row for row in sc.values()}.items():
            if not row:
                changed[key] = row
            for _, c in row:
                if not c or type(c) is not int and c.denominator == 1:
                    changed[key] = [
                        (k, c.numerator if c.denominator == 1 else c)
                        for k, c in row if c]
                    break
        self.sc = ({ij: norm for ij, row in sc.items()
                    if (norm := changed.get(id(row), row))}
                   if changed else dict(sc))
        self.unit = unit
        self.labels = labels or [f"b{i}" for i in range(dim)]
        self.name = name or f"algebra(dim={dim})"

    def mul_basis(self, i, j):
        return self.sc.get((i, j), [])

    @cached_property
    def generators(self):
        """An irredundant set of basis indices, increasing, whose words
        span the algebra; built once, on first use, from `sc`.

        A greedy pass keeps b_i unless it lies in the closure of the unit
        under left multiplication by the earlier picks already.  Then,
        earliest pick first, each pick that the remaining picks generate
        is dropped.  The picks left generate at every step, as the dropped
        one lies in their closure.  A kept pick lies outside the closure
        of the others as they were when it was tested, a superset of the
        final others, so no final generator lies in the closure of the
        rest: the set is irredundant.  On kappa_par^sigma G the greedy
        pass keeps the e_g = ({1, g}, 1) ahead of the [g], and the pruning
        drops them again wherever [g][g^-1] is a nonzero multiple of e_g.

        If the elements with some linear property contain 1 and are closed
        under products, they form a unital subalgebra, which is the whole
        algebra as soon as it holds the generators.  So these gates check
        generators x only, and any generating set decides them alike:
        (xy)z = x(yz) for all y, z (`validate`); L(xy) = L(x) L(y) for all
        y, and the commutation of the two sides (`ModuleData.validate`);
        f(xy) = f(x) f(y) for all y (`AlgebraHom.verify`); and L(sw) =
        L(s) L(w) for the words w, when a module is built from the
        matrices of given generators s, which need not be these
        (`WordPlan.module`, `module_from_generator_actions`).

        Which generating set is used changes no coordinate either.  The
        balancing relations x.b (x) y - x (x) b.y of the generators b span
        those of every basis element, as
        x.bc (x) y - x (x) bc.y = (x.b.c (x) y - x.b (x) c.y)
                                  + (x.b (x) c.y - x (x) b.(c.y)),
        and [A, M] is spanned by the [b, m] alike (`commutator_quotient`);
        the maps commuting with the action of the generators are those
        commuting with all of A (`hom_over_algebra`), and the solutions of
        the separability system are the same (`separability_idempotent`).
        The rows of a consistent linear system span the equations that
        vanish on its solution set, so the row span, and with it its one
        reduced row echelon form, depends on the solutions only.  The
        `QuotientSpace` coordinates, the `_kernel_of` bases and the
        solution `solve` returns are read off that form, so they do not
        depend on the generating set."""
        span = Subspace(self.field, self.dim)
        elems = [self.unit] if span.add(self.unit) else []  # the closure
        picks = []
        for i in range(self.dim):
            if span.dim == self.dim:
                break
            if span.contains({i: 1}):
                continue
            # the closure so far times b_i, each element new to it times
            # every pick; elems grows while it is read
            picks.append(i)
            old = len(elems)
            for t, v in enumerate(elems):
                for s in (i,) if t < old else picks:
                    w = self.mul({s: 1}, v)
                    if span.add(w):
                        elems.append(w)
        # the closure of the other picks stops as soon as it holds b_i; the
        # last pick needs none, as the others all come before it and the
        # greedy pass found it outside the closure of those
        for i in picks[:-1]:
            others = [{s: 1} for s in picks if s != i]
            if any(closure.contains({i: 1})
                   for closure in _growing_closure(self, others)):
                picks.remove(i)
        return picks

    def mul(self, u, v):
        """The product of two elements."""
        sc = self.sc
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
        sc = self.sc
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
        sc = self.sc
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
        """dim, unit, labels and the structure constants [i, j, k, c] in
        increasing (i, j).  `sc` is read as stored when one pass finds its
        keys increasing already, and sorted otherwise; each distinct scalar
        object is dumped once, found by its id, which is fixed while `sc`
        holds the scalar."""
        K = self.field
        keys = list(self.sc)
        items = self.sc.items()
        if not all(map(lt, keys, islice(keys, 1, None))):
            items = sorted(items)
        dumps = {}
        sc = []
        for (i, j), row in items:
            for k, c in row:
                d = dumps.get(id(c))
                if d is None:
                    d = dumps[id(c)] = K.dump(c)
                sc.append([i, j, k, d])
        return {"dim": self.dim,
                "unit": [K.dump(self.unit.get(i, 0)) for i in range(self.dim)],
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

    def verify(self):
        """f(b_i) f(b_j) = f(b_i b_j) and f(1) = 1, both sides expanded by
        structure constants.

        `ok` is decided over the source's generators i and every j.  That
        is exact: once f(1) = 1, the x with f(xy) = f(x) f(y) for every y
        contain 1 and are closed under products, as f(xx'y) = f(x) f(x'y)
        = f(x) f(x') f(y) = f(xx') f(y), so they are a unital subalgebra,
        all of the source once it holds the generators.  Only a failed
        pass sweeps every basis pair, so the violations are those of all
        pairs, in order."""
        rep = self._check(self.source.generators)
        return rep if rep.ok else self._check(range(self.source.dim))

    def _check(self, firsts):
        """f(b_i) f(b_j) = f(b_i b_j) for i in firsts and every j, then
        f(1) = 1."""
        rep = ValidationReport(f"hom {self.name}")
        src, tgt = self.source, self.target
        p = src.p
        imgs = self.images
        ssc, tsc = src.sc, tgt.sc

        def combine(terms):
            """sum c . (sum e b_t) over (c, [(t, e), ...]) terms."""
            out = {}
            for c, row in terms:
                for t, e in row:
                    out[t] = out.get(t, 0) + c * e
            return _nonzero(out, p)

        for i in firsts:
            fi = imgs[i]
            for j, fj in enumerate(imgs):
                lhs = combine((x * y, tsc.get((a, b), ()))
                              for a, x in fi.items() for b, y in fj.items())
                rhs = combine((c, imgs[k].items())
                              for k, c in ssc.get((i, j), ()))
                if lhs != rhs:
                    rep.fail("multiplicative", i, j)
        if self.apply(src.unit) != tgt.unit:
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
                if lhs != combination(A.sc.get((i, j), ())):
                    rep.fail(f"{side} action", i, j)


# ---------------------------------------------------------------------------
# constructions on algebras


def opposite(A):
    sc = {}
    for (i, j), row in A.sc.items():
        sc[(j, i)] = list(row)
    return StructureAlgebra(A.field, A.dim, sc, A.unit, labels=A.labels,
                            name=f"{A.name}^op")


def enveloping(A):
    """A (x) A^op; basis (i, j) at index i * dim + j.  Its dim^2 is checked
    against ENVELOPING_LIMIT, not the chain cap, before any product is
    formed, as the build forms |A.sc|^2 products."""
    d = A.dim
    if d * d > ENVELOPING_LIMIT:
        raise SizeLimit(f"enveloping algebra of {A.name}: {d} x {d} = "
                        f"{d * d} exceeds limit {ENVELOPING_LIMIT}")
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


def bimodule_to_right_env_module(env, A, M):
    """Right A^e-action m.(a (x) b) = b.m.a."""
    d = A.dim
    p = _char(A.field)
    right = [_sp_matmul(M.left[j], M.right[i], p)
             for i in range(d) for j in range(d)]
    return ModuleData(env, M.dim, right=right, name=f"{M.name} as right {env.name}")


class SubalgebraResult:
    def __init__(self, algebra, span, inclusion):
        self.algebra = algebra
        self.span = span                      # the Subspace of the ambient
        self.basis_vectors = span.basis()
        self.inclusion = inclusion


def _growing_closure(A, gens):
    """The unit closed under left multiplication by the gens (elements of
    A), each element multiplied once: yields the one Subspace of A it
    builds, first with the unit and then each time it grows."""
    span = Subspace(A.field, A.dim)
    vecs = [A.unit] if span.add(A.unit) else []
    yield span
    for v in vecs:                      # vecs grows while it is read
        for g in gens:
            w = A.mul(g, v)
            if span.add(w):
                vecs.append(w)
                yield span


def subalgebra_span(A, gens):
    """The subalgebra generated by gens, as a Subspace of A."""
    for span in _growing_closure(A, gens):
        pass
    return span


def subalgebra_generated(A, gens, name=""):
    """The subalgebra generated by gens, on the echelon basis of its span."""
    K = A.field
    span = subalgebra_span(A, gens)
    basis = span.basis()  # deterministic echelon basis, lowest pivots first
    sub_dim = len(basis)
    sc = {}
    for i in range(sub_dim):
        for j in range(sub_dim):
            coords = span.coords(A.mul(basis[i], basis[j]))
            assert coords is not None, "subalgebra closure failed"
            if coords:
                sc[(i, j)] = sorted(coords.items())
    unit_coords = span.coords(A.unit)
    if unit_coords is None:
        raise InvalidInput("unit of the ambient algebra not in the subalgebra")
    sub = StructureAlgebra(K, sub_dim, sc, unit_coords, name=name or f"sub({A.name})")
    incl = AlgebraHom(sub, A, basis, name=f"incl {sub.name}")
    return SubalgebraResult(sub, span, incl)


def orthogonalize_idempotents(A, gens):
    """Orthogonal idempotent basis of the unital subalgebra generated by
    commuting idempotents, via inclusion-exclusion atoms.

    Returns a list of pairwise-orthogonal idempotents v_i with sum(v_i) = 1
    whose span equals span(products of gens, 1).  Nonzero orthogonal
    idempotents are linearly independent, so there are at most dim A atoms
    at every step, whatever the number of gens.  The result is gated
    exactly (`check_orthogonal_idempotents`, ValidationFailure)."""
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
    check_orthogonal_idempotents(A, atoms).raise_if_failed()
    return atoms


def check_orthogonal_idempotents(A, idems):
    """Nonzero idempotents of A, pairwise orthogonal, summing to 1, checked
    exactly on A's own products: e_i e_i = e_i != 0, e_i e_j = 0 for
    i != j and sum e_i = 1."""
    rep = ValidationReport(f"idempotents of {A.name}")
    if _sp_sum(((1, e) for e in idems), A.p) != A.unit:
        rep.fail("sum is not 1")
    for i, e in enumerate(idems):
        if not e or A.mul(e, e) != e:
            rep.fail("not a nonzero idempotent", i)
        for j, f in enumerate(idems[i + 1:], i + 1):
            if A.mul(e, f) or A.mul(f, e):
                rep.fail("not orthogonal", i, j)
    return rep


def separability_idempotent(A, cap):
    """Solve for e in A (x) A with mult(e) = 1 and a e = e a, A acting on
    the outer factors (a.(x (x) y) = ax (x) y, (x (x) y).a = x (x) ya).

    The unknown e_ij of e = sum e_ij b_i (x) b_j is variable i * d + j.
    Equation k < d is mult(e)_k = 1_k; equation d + (t * d + k) * d + l is
    the (k, l) coefficient of b_s e - e b_s = 0 for the t-th generator s
    (the a with a e = e a form a unital subalgebra).  The rows are read off
    the structure constants, each constant once.  Returns e as d kernel
    rows (row i holds the e_ij) or None when the system is inconsistent.
    The d^2 unknowns are checked against `cap` before any row is built.
    """
    d = A.dim
    if d * d > cap:
        raise SizeLimit(f"separability idempotent of {A.name}: {d} x {d} = "
                        f"{d * d} unknowns exceed cap {cap}")
    slot = {s: t for t, s in enumerate(A.generators)}
    rows = [{} for _ in range(d + len(slot) * d * d)]

    def add(eq, var, c):
        rows[eq][var] = rows[eq].get(var, 0) + c

    for (i, j), terms in A.sc.items():
        ti, tj = slot.get(i), slot.get(j)
        for k, c in terms:
            add(k, i * d + j, c)
            for l in range(d):
                # b_i e: c e_jl at the (k, l) coefficient of generator i
                if ti is not None:
                    add(d + (ti * d + k) * d + l, j * d + l, c)
                # e b_j: c e_li at the (l, k) coefficient of generator j
                if tj is not None:
                    add(d + (tj * d + l) * d + k, l * d + i, -c)
    x = solve(A.field, [_nonzero(row, A.p) for row in rows], d * d, A.unit)
    if x is None:
        return None
    e = [{} for _ in range(d)]
    for var, a in x.items():
        i, j = divmod(var, d)
        e[i][j] = a
    return e


def check_separability_idempotent(A, e):
    """mult(e) = 1 and b_s e = e b_s for every generator s, for e given as
    d kernel rows (row i holds the e_ij), recomputed from A's own products
    and not from the equations `separability_idempotent` solved.  With E
    the matrix of the e_ij, b_s e has the matrix L_s E and e b_s the matrix
    E R_s^T, L_s and R_s being the multiplication matrices of b_s.  The
    generators decide it exactly: the a with a e = e a form a unital
    subalgebra."""
    rep = ValidationReport(f"separability idempotent of {A.name}")
    d = A.dim
    p = A.p
    if _sp_sum(((1, A.mul({i: 1}, row)) for i, row in enumerate(e)),
               p) != A.unit:
        rep.fail("mult(e) != 1")
    for s in A.generators:
        b = A.basis_vector(s)
        if _sp_matmul(A.left_mult_matrix(b), e, p) != \
           _sp_matmul(e, _sp_transpose(A.right_mult_matrix(b), d), p):
            rep.fail("b e != e b", s)
    return rep


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


def _balancing_rows(col_pairs, mx, my, p):
    """The relations P x (x) y - x (x) Q y for the basis vectors x of K^mx
    and y of K^my, as kernel rows over the pure tensors (ix, iy) at
    ix * my + iy, for each pair of operators (P, Q) given by its columns."""
    for colsP, colsQ in col_pairs:
        for ix in range(mx):
            for iy in range(my):
                v = {r * my + iy: a for r, a in colsP[ix].items()}
                for r, a in colsQ[iy].items():
                    key = ix * my + r
                    v[key] = v.get(key, 0) - a
                yield _nonzero(v, p)


class TensorOverAlgebra:
    """X (x) Y modulo the balancing relations P x (x) y - x (x) Q y of the
    pairs (P, Q) of operators on X and Y that `tensor_over_algebra` and
    `bimodule_tensor` pass.

    The quotient coordinates come from `QuotientSpace` over the span of the
    relations.  The ambient index of the pure tensor (ix, iy) is
    ix * dimY + iy; it is private to this class, and maps are passed in as
    their two factors (`tensor_map`).
    """

    def __init__(self, K, X, Y, pairs):
        self.X, self.Y, self.K = X, Y, K
        mx, my = X.dim, Y.dim
        N = mx * my
        self.p = _char(K)
        rel = Subspace(K, N)
        for v in _balancing_rows([(_sp_transpose(P, mx), _sp_transpose(Q, my))
                                  for P, Q in pairs], mx, my, self.p):
            rel.ech.add(v)
        self.ambient_dim = N
        self.relations = rel
        self.quotient = QuotientSpace(K, N, rel)
        self.dim = self.quotient.dim

    def pure(self, xvec, yvec):
        """Quotient coordinates of x (x) y."""
        my = self.Y.dim
        return self.quotient.project(_nonzero(
            {ix * my + iy: a * b for ix, a in xvec.items()
             for iy, b in yvec.items()}, self.p))

    def tensor_map(self, P=None, Q=None):
        """The matrix (kernel rows), in quotient coordinates, of the map
        induced by P (x) Q for linear maps P of X and Q of Y, both kernel
        rows (None is the identity); raises InvalidInput unless P (x) Q
        maps every balancing relation into the relation span, i.e.
        descends to X (x)_R Y.  Callers pass the two factors only: the
        ambient index of a pure tensor is private to this class."""
        my = self.Y.dim

        def columns(F, n):
            return _sp_identity(n) if F is None else _sp_transpose(F, n)

        colsP, colsQ = columns(P, self.X.dim), columns(Q, my)
        p = self.p
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
        p = self.p
        imgs = [w for row in pure_images for w in row]
        for c, tail in self.relations.ech.rref():
            if _sp_matmul([{c: 1, **tail}], imgs, p)[0]:
                raise InvalidInput("map is not balanced over the algebra")
        return _sp_transpose([imgs[c] for c in self.quotient.free],
                             target_dim)


def tensor_over_algebra(R, X, Y):
    """X (x)_R Y for a right module X and a left module Y over R, balanced
    over the generators b of R: x.b (x) y - x (x) b.y."""
    if X.right is None or Y.left is None:
        raise InvalidInput("need a right module and a left module")
    return TensorOverAlgebra(R.field, X, Y, [(X.right[b], Y.left[b])
                                             for b in R.generators])


def bimodule_tensor(X, Y):
    """X (x)_{A^e} Y for A-bimodules X, Y (x.(a (x) b) = b x a on X), from
    the A^e-generators a (x) 1 and 1 (x) b: the relations x.b (x) y -
    x (x) b.y and b.x (x) y - x (x) y.b for the generators b of A."""
    gens = X.algebra.generators
    return TensorOverAlgebra(
        X.algebra.field, X, Y, [(X.right[b], Y.left[b]) for b in gens]
        + [(X.left[b], Y.right[b]) for b in gens])


def _intertwiners(K, pairs, mx, my):
    """Basis of the maps F (kernel rows, my x mx) with F P = Q F for every
    pair (P, Q) of operators on K^mx and K^my.  As a tensor of K^my (x)
    K^mx (F[r][s] at r * mx + s), (Q F - F P)[r][c] is the balancing
    relation of (r, c) for (Q^T, P), whose columns are Q's rows."""
    rows = list(_balancing_rows([(Q, _sp_transpose(P, mx)) for P, Q in pairs],
                                my, mx, _char(K)))
    basis = []
    for v in _kernel_of(K, rows, my * mx):
        F = [{} for _ in range(my)]
        for idx, a in v.items():
            r, s = divmod(idx, mx)
            F[r][s] = a
        basis.append(F)
    return basis


def hom_over_algebra(R, X, Y):
    """Basis of Hom_R(X, Y) for left modules X, Y: matrices F (kernel rows,
    my x mx) with F L_X(b) = L_Y(b) F for the generators b of R."""
    if X.left is None or Y.left is None:
        raise InvalidInput("need left modules")
    return _intertwiners(R.field, [(X.left[b], Y.left[b])
                                   for b in R.generators], X.dim, Y.dim)


def bimodule_hom(X, Y):
    """Basis of Hom_{A^e}(X, Y) for A-bimodules X, Y: the maps F (kernel
    rows, my x mx) commuting with both actions of the generators of A."""
    gens = X.algebra.generators
    return _intertwiners(X.algebra.field,
                         [(X.left[b], Y.left[b]) for b in gens]
                         + [(X.right[b], Y.right[b]) for b in gens],
                         X.dim, Y.dim)


def restrict_along_hom(hom, M, name=None):
    """Pull a module over hom.target back to a module over hom.source.  No
    `validate` is needed: the module axioms of the restriction are those of
    M at the images f(a), since f(ab) = f(a) f(b) and f(1) = 1, so they
    hold once M is a module and `hom` an algebra map."""
    src = hom.source
    p = _char(src.field)

    def pulled(mats):
        return None if mats is None else [
            _sp_combination([(c, mats[k]) for k, c in img.items()], M.dim, p)
            for img in hom.images]

    left, right = pulled(M.left), pulled(M.right)
    return ModuleData(src, M.dim, left=left, right=right,
                      name=name or f"{M.name} via {hom.name}")


class WordPlan:
    """The words in given generators of an algebra A, and the products of
    their actions that a module over A is built and checked by.  It depends
    on A and the generators alone, so one plan serves every module built
    from matrices of the same generators (`module`).

    The words are the unit, then each given generator s that the unit and
    the earlier ones do not span (the others are not used), then each
    product s.w (generator s, word w, the words read in order as they
    grow) that is new to their span.  Every other product s.w, w not the
    unit, is a relation, kept with the coordinates of s.w in the words,
    and so is each basis element b_i.  Then `spans` tells whether the
    words span A."""

    def __init__(self, A, gens):
        self.algebra = A
        span = Subspace(A.field, A.dim, [A.unit])
        words = [A.unit]
        self.gens = []
        for s in gens:
            if span.add({s: 1}):
                self.gens.append(s)
                words.append({s: 1})
        # (k, t) names the product s.w of the k-th word, generator s, and
        # the t-th word w; w = 1 is skipped, as s.1 = s is a word
        self.products = []     # (k, t) of each new word, in order
        relations = []         # (k, t, s.w) of every other product
        for t, w in enumerate(words):     # words grows while it is read
            for k, s in enumerate(self.gens, 1) if t else ():
                sw = A.mul({s: 1}, w)
                if span.add(sw):
                    self.products.append((k, t))
                    words.append(sw)
                else:
                    relations.append((k, t, sw))
        self.spans = span.dim == A.dim
        self.relations, self.basis = [], []
        if self.spans:
            coords_of = coordinates_in(A.field, A.dim, words)
            self.relations = [(k, t, coords_of(sw))
                              for k, t, sw in relations]
            self.basis = [coords_of({i: 1}) for i in range(A.dim)]

    def module(self, dim, given, side="left", name="module"):
        """The module on K^dim in which each generator s of the plan acts
        by given[s] (kernel rows) on `side`, every other element by the
        products of those matrices; raises InvalidInput unless the words
        span A and ValidationFailure unless it is a module.

        The actions are built from one matrix per word: the identity for
        the unit, given[s] for a generator s, and M_s M_w for a new word
        s.w (M_w M_s on the right).  L(x) is the combination of the word
        matrices by x's coordinates in the words, so L(w) = M_w for each
        word.  Each relation s.w compares the product M_s M_w with
        L(s.w); so every product of a generator and a word is formed
        once, |generators| x (dim A - 1) of them, and s.1 = s needs none.

        That decides exactly what `ModuleData.validate().ok` decides.  If
        L is a module, every relation holds.  Conversely, if they all hold
        then L(s) L(w) = L(sw) for every generator s and word w, so for
        every y, the words being a basis; L(1) = 1 by construction; and
        the x with L(xy) = L(x) L(y) for every y contain 1 and are closed
        under products (L(xx'y) = L(x) L(x'y) = L(x) L(x') L(y) =
        L(xx') L(y)), a unital subalgebra that holds the generators, so
        all of A.  On the right, R(xy) = R(y) R(x) alike.  Only a failed
        relation runs `validate` on L and raises its ValidationFailure,
        whose violations are those of every basis pair, in order.  A
        module of dim 0 forms no product.

        A given matrix that the plan does not use (its element is spanned
        by the unit and the earlier generators) must equal the action
        L(s) the others complete, or ValidationFailure is raised: a module
        in which s acts by given[s] is then no module over A at all."""
        A = self.algebra
        p = A.p
        ok = True
        actions = [[] for _ in range(A.dim)]
        if dim:
            if not self.spans:
                raise InvalidInput("the given generators do not generate "
                                   "the algebra")

            def product(k, t):
                return (_sp_matmul(mats[k], mats[t], p) if side == "left"
                        else _sp_matmul(mats[t], mats[k], p))

            def combination(coords):
                return _sp_combination(
                    [(c, mats[k]) for k, c in coords.items()], dim, p)

            mats = [_sp_identity(dim)] + [given[s] for s in self.gens]
            for k, t in self.products:
                mats.append(product(k, t))
            ok = all(product(k, t) == combination(coords)
                     for k, t, coords in self.relations)
            actions = [combination(coords) for coords in self.basis]
        mod = (ModuleData(A, dim, left=actions, name=name) if side == "left"
               else ModuleData(A, dim, right=actions, name=name))
        if not ok:
            mod.validate().raise_if_failed()
        rep = ValidationReport(f"module {name}")
        for s, mat in given.items():
            if s not in self.gens and mat != actions[s]:
                rep.fail("given matrix differs from the action it "
                         "generates", side, A.labels[s])
        rep.raise_if_failed()
        return mod


def module_from_generator_actions(A, dim, given, side="left",
                                  name="module"):
    """The module on K^dim in which each generator i of A in `given` acts
    by the matrix given[i] (kernel rows) on `side`, verified: the
    `WordPlan` of the given generators, used once."""
    return WordPlan(A, list(given)).module(dim, given, side, name)


def commutator_quotient(M):
    """M / [A, M] for a bimodule M, as a QuotientSpace: [A, M] is spanned
    by the [b, m] for generators b, as [bc, m] = [b, c.m] + [c, m.b]."""
    A = M.algebra
    K = A.field
    n = M.dim
    span = Subspace(K, n)
    for i in A.generators:
        diff = _sp_combination([(1, M.left[i]), (-1, M.right[i])], n,
                               _char(K))
        for col in _sp_transpose(diff, n):
            span.ech.add(col)
    return QuotientSpace(K, n, span)


# ---------------------------------------------------------------------------
# group algebras


def group_algebra(K, G, name=None):
    sc = {(i, j): [(G.mul(i, j), K.one)] for i in range(G.n) for j in range(G.n)}
    return StructureAlgebra(K, G.n, sc, {0: 1}, name=name or f"K[{G.name}]")
