"""Partial group algebras and their twisted versions.

The untwisted algebra is the semigroup algebra of S(G); its basis monomials
are written E_A[g] for the normal form (A, g).  For a twist sigma the same
monomials are used, with the candidate product rule

    E_A[g] . E_B[h]  =  sigma(g, h) . E_{A | gB}[gh],

pruned by a *vanishing set* V of monomials forced to zero.  V is the
closure (`_close_vanishing`) of the seeds

  R4  every monomial whose letter set meets {a : sigma(a, a^-1) = 0};
  C   for each cocycle defect sigma(g,h)sigma(gh,t) != sigma(g,ht)sigma(h,t):
      the idempotent monomial with letters {g, gh, ght};

so V holds m.n whenever m is in V and sigma(grade m, grade n) != 0, and
n.m whenever sigma(grade n, grade m) != 0.  The table is built once on the
monomials outside V, and Light's associativity test is its one gate: every
triple whose middle factor lies in a generating set of the table, which is
complete because the associating elements form a subalgebra.  Partial
factor sets and their domains follow Dokuchaev-Novikov, J. Pure Appl.
Algebra 214 (2010).  The precheck gives sigma(1, g) = sigma(g, 1) = 1 for
each live letter g (sigma(g, g^-1) != 0), so the test never fails:

Lemma 1 (the table associates).  Take monomials x = E_A[g], y = E_B[h],
z = E_C[t] outside V.  Both bracketings land on the same monomial
xyz = E_{A | gB | ghC}[ght], whose letters include g, gh and ght.  (xy)z is
sigma(g,h)sigma(gh,t) xyz when sigma(g,h) != 0, xy is not in V,
sigma(gh,t) != 0 and xyz is not in V, and 0 otherwise; x(yz) is the same
with sigma(h,t)sigma(g,ht) and yz.
  - If xyz is in V, both sides are 0.
  - If sigma(g,h)sigma(gh,t) != sigma(g,ht)sigma(h,t), the C seed
    e = E_{g,gh,ght} is in V, and xyz = e.xyz.  If ght is live,
    sigma(1, ght) = 1 and the closure puts xyz in V; if ght is dead, R4
    does.  Either way both sides are 0.
  - Otherwise both sides carry one scalar s.  If s = 0 both are 0.  If
    s != 0, all four sigma factors are nonzero; then xy in V would put
    (xy)z = xyz in V, as sigma(gh, t) != 0, and yz in V would put
    x(yz) = xyz in V, as sigma(g, ht) != 0.  So both sides are s xyz.

Lemma 2 (the zero-pair monomials need no seeds).  Each zero pair
sigma(g, h) = 0 forces E_{g,gh}, [g^-1][gh] and [gh][h^-1] to vanish; V
already holds them.
  - E_{g,gh} is the C seed of (g, g^-1, gh) when g and gh are live, since
    sigma(g,g^-1)sigma(1,gh) != 0 = sigma(g,h)sigma(g^-1,gh); otherwise it
    has a dead letter and R4 holds it.
  - [g^-1][gh] = E_{g^-1,h}[h] = E_{g^-1,h}.[h], and E_{g^-1,h} is the C
    seed of (g^-1, g, h) when g and h are live; then sigma(1, h) = 1 puts
    the product in V.  Otherwise R4 holds it (g^-1 is dead with g).
  - [gh][h^-1] = E_{g,gh}[g] = E_{g,gh}.[g], which V holds by the first
    case and sigma(1, g) = 1 when g and gh are live; otherwise R4 does.

So seeding the zero-pair monomials too gives the same V, and by Lemma 1 a
completion loop, which adds the first defect of Light's test to V and
closes again until none is left, stops where it starts: one pass gives its
V, its table and its log.  Nor does the identity monomial ever vanish: no
seed is the identity (sigma(1, 1) = 1, and the C seed with letters {1}
needs g = h = t = 1, which is no defect), and a product with a factor
other than the identity has two letters or more.  Both stay as gates.

These loops run on Python ints only.  The closure and the table build read
the zero pattern of sigma once.  Light's test takes every scalar s of the
table once as the integer w = sD, D the least common multiple of the
table's denominators (D = 1 over F_p), and decides s1 s2 = s3 s4 by
w1 w2 - w3 w4 = 0, taken mod p over F_p.
"""

from functools import cached_property
from math import lcm

from .errors import (AssociativityFailure, InvalidInput, NotARepresentation,
                     IsomorphismFailure, ValidationFailure)
from .algebras import (AlgebraHom, ModuleData, StructureAlgebra,
                       ValidationReport, WordPlan, subalgebra_span)
from .factor_sets import MonoidFactorSet, trivial_factor_set
from .groups import enumerate_exel
from .linalg import (_char, _sp_identity, _sp_matmul, _sp_sum,
                     _sp_transpose)
from .partial_actions import (PartialProjRepresentation, TwistedPartialAction,
                              build_crossed_product, induced_partial_action)

__all__ = [
    "TwistedPartialGroupAlgebra", "PartialGroupAlgebra", "build_kpar",
    "build_kpar_sigma", "build_kpar_idempotent", "check_defining_relations",
    "universal_hom", "opposite_iso", "BSigmaData", "OmegaData",
    "build_B_sigma_omega", "phi_psi_crossed_iso", "b_sigma_module_structures",
    "b_sigma_iota", "monoid_factor_set_from_twisted",
]


class TwistedPartialGroupAlgebra:
    """kappa_par^sigma G on the surviving monomial basis."""

    def __init__(self, group, field, sigma, monoid, surviving, vanished,
                 algebra, completion_log=None):
        self.group = group
        self.field = field
        self.sigma = sigma
        self.monoid = monoid
        self.surviving = list(surviving)       # monoid element indices
        self.vanished = set(vanished)
        self.algebra = algebra
        self.completion_log = completion_log or []
        self.position = {m: p for p, m in enumerate(self.surviving)}
        self.gens = [self.monomial_vector(monoid.gen(g))
                     for g in range(group.n)]
        self.e_vectors = [self.monomial_vector(monoid.e(g))
                          for g in range(group.n)]

    @property
    def dim(self):
        return self.algebra.dim

    def is_alive(self, monoid_index):
        return monoid_index in self.position

    def monomial_vector(self, monoid_index):
        """The monomial as an element: zero when it vanished."""
        p = self.position.get(monoid_index)
        return {} if p is None else {p: 1}

    def gen_vector(self, g):
        return self.gens[g]

    def e_vector(self, g):
        return self.e_vectors[g]

    def idempotent_positions(self):
        """Basis positions of the monomials (A, 1)."""
        return [p for p, m in enumerate(self.surviving)
                if self.monoid.elements[m][1] == 0]

    def canonical_representation(self):
        return PartialProjRepresentation(self.algebra, self.gens, self.sigma)

    @cached_property
    def idempotent_subalgebra(self):
        """B^sigma: the span of the surviving idempotent monomials (A, 1),
        as a StructureAlgebra plus its positions inside this algebra,
        built once."""
        positions = self.idempotent_positions()
        pos_index = {p: i for i, p in enumerate(positions)}
        sc = {}
        for i, p in enumerate(positions):
            for j, q in enumerate(positions):
                row = self.algebra.mul_basis(p, q)
                if row:
                    (t, c), = row
                    assert t in pos_index, "idempotent span not closed"
                    sc[(i, j)] = [(pos_index[t], c)]
        unit = {pos_index[self.position[self.monoid.identity]]: 1}
        labels = [self.algebra.labels[p] for p in positions]
        return StructureAlgebra(self.field, len(positions), sc, unit,
                                labels=labels,
                                name=f"B^{self.sigma.name}"), positions

    @cached_property
    def word_plan(self):
        """The `WordPlan` of the surviving [g], built once: every module
        `group_module` builds over this algebra reads it."""
        return WordPlan(self.algebra,
                        [self.position[m] for m in map(self.monoid.gen,
                                                       range(self.group.n))
                         if m in self.position])

    def group_module(self, dim, matrix_of, side="left"):
        """The module on kappa^dim in which each surviving generator [g]
        acts by matrix_of(g), kernel rows on the given `side`, verified
        by the products that build it (`WordPlan.module`).  matrix_of is
        called only for the [g] the plan uses: [1], a multiple of the
        unit, is not one."""
        plan = self.word_plan
        g_of = {self.position.get(self.monoid.gen(g)): g
                for g in range(self.group.n)}
        return plan.module(dim, {s: matrix_of(g_of[s]) for s in plan.gens},
                           side)

    def monomial_label(self, p):
        return self.monoid.label(self.surviving[p])


class PartialGroupAlgebra(TwistedPartialGroupAlgebra):
    """kappa_par G = kappa S(G); the sigma = 1 instance."""


def _monoid_quotient(K, monoid, seeds, name):
    """kappa S(G) modulo the two-sided semigroup ideal generated by the
    monomials `seeds` (untwisted, closed under multiplication by every
    monomial on either side): (vanished monomials, surviving monomials,
    the StructureAlgebra on the surviving ones).  With no seeds it is
    kappa_par G itself.

    Lemma (the quotient table associates, so no `validate` runs on it).
      - S(G) is a monoid: (A, g)(B, h) = (A | gB, gh) gives both
        bracketings of three factors (A | gB | ghC, ght), since
        g(hC) = (gh)C and g(B | C') = gB | gC'.  The first is the
        associativity of G, which `FiniteGroup._validate` decides; the
        second holds for any map of G applied elementwise.  So kappa S(G)
        is an associative algebra with unit ({1}, 1).
      - The loop below closes the seeds under multiplication by every
        monomial on either side, so the vanished set I is a two-sided
        semigroup ideal and its span kappa I a two-sided ideal of
        kappa S(G).
      - The table on the surviving monomials is m1 m2 when that survives
        and 0 otherwise: the product of kappa S(G) / kappa I on the
        classes of the surviving monomials, which form its basis.  A
        quotient of an associative algebra by a two-sided ideal
        associates, and ({1}, 1) is its unit unless it vanished, which
        the gate below rejects.
    So `AlgebraHom.verify` over generators, which presumes an associative
    target, is exact on maps into these quotients (`monomial_projection_hom`,
    the projection onto Omega)."""
    mt = monoid.mul_table
    vanished = set(seeds)
    work = list(vanished)
    while work:
        m = work.pop()
        new = {row[m] for row in mt}
        new.update(mt[m])
        new -= vanished
        vanished |= new
        work.extend(new)
    if monoid.identity in vanished:
        raise ValidationFailure("the identity monomial vanished: the ideal "
                                "is the whole algebra")
    surviving = [m for m in range(monoid.size) if m not in vanished]
    pos = {m: p for p, m in enumerate(surviving)}
    rows = [[(t, K.one)] for t in range(len(surviving))]   # one per target
    sc = {}
    for p1, m1 in enumerate(surviving):
        row = mt[m1]
        for p2, m2 in enumerate(surviving):
            t = pos.get(row[m2])
            if t is not None:
                sc[p1, p2] = rows[t]
    alg = StructureAlgebra(K, len(surviving), sc, {pos[monoid.identity]: 1},
                           labels=[monoid.label(m) for m in surviving],
                           name=name)
    return vanished, surviving, alg


def build_kpar(G, field, monoid=None):
    monoid = monoid or enumerate_exel(G)
    _, surviving, alg = _monoid_quotient(field, monoid, (),
                                        name=f"kpar({G.name})")
    return PartialGroupAlgebra(G, field, trivial_factor_set(G, field), monoid,
                               surviving, set(), alg)


def _precheck_sigma(sigma):
    G = sigma.group
    K = sigma.field
    if sigma(0, 0) != K.one:
        raise InvalidInput("sigma(1,1) must be 1")
    for g in range(G.n):
        if sigma(g, G.inv(g)) != sigma(G.inv(g), g):
            raise InvalidInput(f"sigma(g, g^-1) != sigma(g^-1, g) at g={g}")
    dead = {g for g in range(G.n) if sigma.is_zero(g, G.inv(g))}
    for g in range(G.n):
        if g in dead:
            continue
        if sigma(g, 0) != K.one or sigma(0, g) != K.one:
            raise InvalidInput(f"sigma(g,1) and sigma(1,g) must be 1 for live g={g}")
    return dead


def _mask_of(letters):
    m = 1
    for a in letters:
        m |= 1 << a
    return m


def _close_vanishing(monoid, sigma, vanished):
    """Two-sided monomial-ideal closure, gated by the product scalars."""
    zero = sigma.zero_pattern()
    grade = [g for _, g in monoid.elements]
    mt = monoid.mul_table
    # the rows n with sigma(grade n, g) != 0, and the columns n with
    # sigma(g, grade n) != 0, for each grade g
    left = [[row for row, gn in zip(mt, grade) if not zero[gn][g]]
            for g in range(len(zero))]
    right = [[n for n, gn in enumerate(grade) if not zero[g][gn]]
             for g in range(len(zero))]
    work = list(vanished)
    while work:
        m = work.pop()
        gm, row = grade[m], mt[m]
        new = {r[m] for r in left[gm]}
        new.update([row[n] for n in right[gm]])
        new -= vanished
        vanished |= new
        work.extend(new)
    return vanished


def _presence(targ_row):
    """The presence pattern of a target row: 1 where a product is present
    (target >= 0), 0 where it is absent (-1); b"" when all are present."""
    return bytes(map((-1).__lt__, targ_row)) if -1 in targ_row else b""


def _build_table(monoid, sigma, vanished):
    """Sparse (scalar, target) tables over the surviving monomials.

    A scalar row holds sigma(g, h) at each present product and None at
    the others, so it depends on the grade g of its monomial and on which
    of its products are present alone; the rows with the same grade and
    the same presence pattern are one shared list, and no code mutates a
    row.  The target rows are each their own."""
    zero = sigma.zero_pattern()
    surviving = [m for m in range(monoid.size) if m not in vanished]
    pos = {m: p for p, m in enumerate(surviving)}
    grades = [monoid.elements[m][1] for m in surviving]
    shared = {}            # (grade, presence pattern) -> scalar row
    scal, targ = [], []
    for m1, g1 in zip(surviving, grades):
        row = monoid.mul_table[m1]
        zrow = zero[g1]
        targ_row = [-1 if zrow[g2] else pos.get(row[m2], -1)
                    for m2, g2 in zip(surviving, grades)]
        key = (g1, _presence(targ_row))
        scal_row = shared.get(key)
        if scal_row is None:
            srow = sigma.table[g1]
            scal_row = shared[key] = [srow[g2] if t >= 0 else None
                                      for g2, t in zip(grades, targ_row)]
        scal.append(scal_row)
        targ.append(targ_row)
    return surviving, pos, scal, targ


def _light_generators(targ, gens):
    """Sorted positions of a generating set of the table: the surviving
    generators `gens` plus every monomial that right multiplication by them
    does not reach from them."""
    reached = set(gens)
    work = list(gens)
    while work:
        row = targ[work.pop()]
        for g in gens:
            t = row[g]
            if t >= 0 and t not in reached:
                reached.add(t)
                work.append(t)
    return sorted(set(gens) | (set(range(len(targ))) - reached))


def _int_rows(K, scal, targ):
    """The table as rows of targets and of integer scalars, each row with
    one more cell at the end.  A scalar s becomes w = sD, D the least common
    multiple of the denominators of the table (over F_p every scalar is an
    int and D = 1), so s1 s2 = s3 s4 exactly when w1 w2 = w3 w4 (mod p
    over F_p).  Cells without a target, the extra one included, get target
    -1 and scalar 0, so reading a row at the target -1 of an absent product
    gives an absent product again.

    An integer row depends on the scalar row and on its presence pattern
    alone, so it is converted once per distinct pair of them, and the
    monomials that share both share one integer row."""
    keys = [(id(srow), _presence(trow)) for srow, trow in zip(scal, targ)]
    distinct = dict(zip(keys, zip(scal, targ)))   # key -> one of its rows
    if K.characteristic:
        D = 1
    else:
        D = lcm(*{s.denominator for srow, trow in distinct.values()
                  for s, t in zip(srow, trow) if t >= 0})
    rows = {key: [s.numerator * (D // s.denominator) if t >= 0 else 0
                  for s, t in zip(srow, trow)] + [0]
            for key, (srow, trow) in distinct.items()}
    return [trow + [-1] for trow in targ], [rows[key] for key in keys]


def _scalar_sweep(w1, wq, wj, wi, tj, p):
    """The first k with w1 wq[k] != wj[k] wi[tj[k]] (mod p over F_p) on
    integer rows of `_int_rows`, or the last index of the rows, whose
    extra cell never differs."""
    if p:
        bad = (k for k, (a, b, t) in enumerate(zip(wq, wj, tj))
               if (w1 * a - b * wi[t]) % p)
    else:
        bad = (k for k, (a, b, t) in enumerate(zip(wq, wj, tj))
               if w1 * a != b * wi[t])
    return next(bad, len(tj) - 1)


def _associativity_defect(K, surviving, scal, targ, middles):
    """The first monomial whose bracketings disagree, or None (Light's test).

    Only the triples (x, a, y) with a in `middles` are checked, in the order
    of the full sweep.  This is exhaustive when `middles` generates the table
    (Clifford-Preston I, 1.2): the product is bilinear, so the associating
    elements T = {a : (xa)y = x(ay) for all x, y} form a subspace, and T is
    closed under products because for a, b in T

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).

    T contains the generating set, hence the whole table.  When only one
    bracketing is nonzero, its monomial is the defect; when both are, the
    left one is (on tables over S(G) both land on the same monomial).

    For each (x_i, x_j) the targets tq of (x_i x_j) x_k over all k form one
    list, compared with the targets of x_i (x_j x_k) at once.  The scalars
    count only before `stop`, the first k where those differ, and are
    compared on the integers of `_int_rows`.  Before `stop` an absent
    product is 0 on both sides: both targets are -1 there, and an integer
    row holds 0 at every absent cell.  So the scalars w1 wq[k] and
    wj[k] wi[tj[k]] (w1 = wi[j]) differ at some k < stop, where tq[k] >= 0
    then, exactly when the first k at which they differ over the whole row
    (`_scalar_sweep`) is below stop.  That first k depends on the integer
    rows wi of x_i and wq of x_i x_j and on j alone, as j fixes wj and tj;
    it is found once per distinct (wi, wq, j), and only read through tq
    for each pair.  So the first defect, the one `build_kpar_sigma` names
    and the one a completion loop adds to V, is the one of the plain
    sweep.
    """
    p = K.characteristic
    targets, ints = _int_rows(K, scal, targ)
    n = len(surviving)
    absent = ([-1] * (n + 1), [0] * (n + 1))
    first_bad = {}         # (id(wi), id(wq), j) -> `_scalar_sweep`
    for ti, wi in zip(targets, ints):
        for j in middles:
            q = ti[j]
            tj, wj = targets[j], ints[j]
            tq, wq = (targets[q], ints[q]) if q >= 0 else absent
            right = [ti[r] for r in tj]           # targets of x_i (x_j x_k)
            if tq == right:
                stop = n
            else:
                stop = next(k for k, (a, b) in enumerate(zip(tq, right))
                            if a != b)
            key = (id(wi), id(wq), j)
            bad = first_bad.get(key)
            if bad is None:
                bad = first_bad[key] = _scalar_sweep(wi[j], wq, wj, wi, tj,
                                                     p)
            if bad < stop:
                return surviving[tq[bad]]
            if stop < n:
                t = tq[stop]
                return surviving[t if t >= 0 else right[stop]]
    return None


def _acts_as_unit(scal, targ, u):
    """Whether row and column u of the table are the identity with scalar 1,
    so that every triple with u in the middle associates."""
    ident = list(range(len(targ)))
    col = [row[u] for row in scal]
    return (targ[u] == ident and [row[u] for row in targ] == ident
            and scal[u].count(1) == len(ident) and col.count(1) == len(ident))


def _table_defect(K, monoid, table):
    """Light's test on a table of `_build_table`, with the surviving
    generators of S(G) as the middles (`_light_generators`).  The unit
    monomial is left out of them once its row and column are checked to be
    the identity; otherwise it stays a middle."""
    surviving, pos, scal, targ = table
    gens = [pos[m] for m in (monoid.gen(g) for g in range(monoid.group.n))
            if m in pos]
    middles = _light_generators(targ, gens)
    unit = pos[monoid.identity]
    if _acts_as_unit(scal, targ, unit):
        middles.remove(unit)
    return _associativity_defect(K, surviving, scal, targ, middles)


def _cocycle_seeds(monoid, sigma):
    """The C seeds: the idempotent monomial with letters {g, gh, ght} for
    each cocycle defect sigma(g,h)sigma(gh,t) != sigma(g,ht)sigma(h,t)."""
    G, K = sigma.group, sigma.field
    mul = G.mul
    seeds = set()
    for g in range(G.n):
        for h in range(G.n):
            gh = mul(g, h)
            for t in range(G.n):
                lhs = K.mul(sigma(g, h), sigma(gh, t))
                rhs = K.mul(sigma(g, mul(h, t)), sigma(h, t))
                if lhs != rhs:
                    seeds.add(monoid.idempotent_of_mask(
                        _mask_of((g, gh, mul(gh, t)))))
    return seeds


def build_kpar_sigma(sigma, monoid=None):
    """kappa_par^sigma G in one pass: the R4 and C seeds, their closure,
    the table on the monomials outside it, and Light's test as the gate
    (see the module docstring for why that gate never fails).  The
    completion log holds the dead letters and the size of V."""
    G = sigma.group
    K = sigma.field
    monoid = monoid or enumerate_exel(G)
    dead_letters = _precheck_sigma(sigma)
    log = []
    vanished = set()
    # seed R4: dead letters anywhere in the monomial
    if dead_letters:
        dead_mask = 0
        for a in dead_letters:
            dead_mask |= 1 << a
        for m, (A, g) in enumerate(monoid.elements):
            if A & dead_mask:
                vanished.add(m)
        log.append(("dead-letters", sorted(dead_letters)))
    vanished |= _cocycle_seeds(monoid, sigma)
    vanished = _close_vanishing(monoid, sigma, vanished)
    log.append(("seed-vanished", len(vanished)))
    if monoid.identity in vanished:
        raise ValidationFailure(
            "the identity monomial vanished: sigma admits no twisted "
            "partial group algebra (not a partial factor set)")
    surviving, pos, scal, targ = _build_table(monoid, sigma, vanished)
    defect = _table_defect(K, monoid, (surviving, pos, scal, targ))
    if defect is not None:
        raise AssociativityFailure(
            f"kpar^{sigma.name}({G.name}) does not associate: the two "
            f"bracketings differ at the monomial {monoid.label(defect)}")
    n = len(surviving)
    # one shared row [(t, s)] per target t and grade h of the right factor:
    # the left factor then has grade g = grade(t) h^-1, so s = sigma(g, h)
    grades = [monoid.elements[m][1] for m in surviving]
    sc = {}
    rows = [[None] * G.n for _ in range(n)]
    for p1, (srow, trow) in enumerate(zip(scal, targ)):
        for p2, (t, h) in enumerate(zip(trow, grades)):
            if t >= 0:
                row = rows[t][h]
                if row is None:
                    row = rows[t][h] = [(t, srow[p2])]
                sc[p1, p2] = row
    labels = [monoid.label(m) for m in surviving]
    alg = StructureAlgebra(K, n, sc, {pos[monoid.identity]: 1}, labels=labels,
                           name=f"kpar^{sigma.name}({G.name})")
    return TwistedPartialGroupAlgebra(G, K, sigma, monoid, surviving, vanished,
                                      alg, completion_log=log)


def build_kpar_idempotent(sigma_dd, monoid=None):
    """Quotient construction for an idempotent factor set: kill the
    semigroup ideal generated by [g^-1][gh], [gh][h^-1], [g^-1][g][h] and
    [g][h][h^-1] over all zero pairs, inside kappa S(G).  The quotient
    associates by the lemma of `_monoid_quotient`."""
    G = sigma_dd.group
    K = sigma_dd.field
    if not sigma_dd.is_idempotent():
        raise InvalidInput("factor set is not {0,1}-valued")
    _precheck_sigma(sigma_dd)
    monoid = monoid or enumerate_exel(G)
    mul, inv = G.mul, G.inv
    seeds = set()
    for g in range(G.n):
        for h in range(G.n):
            if not sigma_dd.is_zero(g, h):
                continue
            gh = mul(g, h)
            mt = monoid.mul_table
            x_ginv, x_g, x_h = monoid.gen(inv(g)), monoid.gen(g), monoid.gen(h)
            x_gh, x_hinv = monoid.gen(gh), monoid.gen(inv(h))
            seeds.add(mt[x_ginv][x_gh])
            seeds.add(mt[x_gh][x_hinv])
            seeds.add(mt[mt[x_ginv][x_g]][x_h])
            seeds.add(mt[mt[x_g][x_h]][x_hinv])
    vanished, surviving, alg = _monoid_quotient(
        K, monoid, seeds, name=f"kpar^{sigma_dd.name}({G.name})//ideal")
    return TwistedPartialGroupAlgebra(G, K, sigma_dd, monoid, surviving,
                                      vanished, alg,
                                      completion_log=[("semigroup-ideal",
                                                       len(vanished))])


def check_defining_relations(ktw):
    """The defining relations of the twisted partial group algebra and the
    zero-pattern biconditionals, checked exhaustively in the built algebra
    on its canonical representation g -> [g] (`PartialProjRepresentation`:
    [1] = 1, both absorption relations, the zero relations and the factor
    set property, with `zero_pattern_equivalences`), plus the two
    relations only the algebra has: [g] = 0 exactly when
    sigma(g, g^-1) = 0, and [g][1] = [g] = [1][g]."""
    R, G, gm = ktw.algebra, ktw.group, ktw.gens
    can = ktw.canonical_representation()
    rep = ValidationReport(f"defining relations of {R.name}")
    rep.merge(can.validate()).merge(can.zero_pattern_equivalences())
    for g in range(G.n):
        if ktw.sigma.is_zero(g, G.inv(g)) != (not gm[g]):
            rep.fail("generator zero pattern", g)
        if R.mul(gm[g], gm[0]) != gm[g] or R.mul(gm[0], gm[g]) != gm[g]:
            rep.fail("unit relation", g)
    return rep


def universal_hom(ktw, rep):
    """The algebra map kappa_par^sigma G -> R sending [g] to Gamma(g),
    for a validated partial sigma-representation Gamma."""
    report = rep.validate(factor_set_property=False)
    report.raise_if_failed(NotARepresentation)
    R = rep.target
    G = ktw.group
    from .partial_actions import induced_idempotents
    es = induced_idempotents(rep)
    cols = []
    for p, m in enumerate(ktw.surviving):
        A, g = ktw.monoid.elements[m]
        acc = R.unit
        for a in ktw.monoid.mask_elements(A):
            if a == 0 or a == g:
                continue
            acc = R.mul(acc, es[a])
        cols.append(R.mul(acc, rep.gamma[g]))
    hom = AlgebraHom(ktw.algebra, R, cols, name="universal hom")
    hom.verify().raise_if_failed(NotARepresentation)
    for g in range(G.n):
        if hom.apply(ktw.gen_vector(g)) != rep.gamma[g]:
            raise NotARepresentation(f"universal hom misses Gamma({g})")
    if subalgebra_span(ktw.algebra, [ktw.gen_vector(g)
                                     for g in range(G.n)]).dim != ktw.dim:
        raise ValidationFailure("the generators do not span; universal "
                                "hom would not be unique")
    return hom


def opposite_iso(ktw_star, ktw):
    """kappa_par^{sigma*} G -> (kappa_par^sigma G)^op, [g] -> [g^-1]."""
    from .algebras import opposite as _opposite
    G = ktw.group
    op = _opposite(ktw.algebra)
    gamma = [ktw.gen_vector(G.inv(g)) for g in range(G.n)]
    rep = PartialProjRepresentation(op, gamma, ktw_star.sigma)
    hom = universal_hom(ktw_star, rep)
    if not hom.is_bijective():
        raise IsomorphismFailure("opposite map is not bijective")
    return hom


class BSigmaData:
    def __init__(self, algebra, positions, e_coords, zeta, ker_zeta_basis):
        self.algebra = algebra          # B^sigma as a StructureAlgebra
        self.positions = positions      # positions inside kappa_par^sigma G
        self.e_coords = e_coords        # e_g^sigma in B^sigma coordinates
        self.zeta = zeta                # AlgebraHom B -> B^sigma
        self.ker_zeta_basis = ker_zeta_basis

    def to_ambient(self, w):
        """w in kappa_par^sigma G coordinates."""
        positions = self.positions
        return {positions[i]: c for i, c in w.items()}


class OmegaData:
    def __init__(self, algebra, surviving, projection):
        self.algebra = algebra
        self.surviving = surviving
        self.projection = projection    # AlgebraHom kpar -> Omega


def build_B_sigma_omega(kpar, ktw):
    """B^sigma with zeta: B -> B^sigma, ker(zeta), the ideal J it generates
    and Omega = kappa_par G / J with the projection kpar ->> Omega, through
    which the checks read Omega as a kappa_par G-module; none reads it
    over kappa_par^{sigma''} G.  Omega associates by the lemma of
    `_monoid_quotient`, so `proj.verify()` over generators, which presumes
    an associative target (its step f(x) f(x') f(y)), decides that the
    projection is an algebra map."""
    K = ktw.field
    G = ktw.group
    monoid = kpar.monoid
    Bsig_alg, positions = ktw.idempotent_subalgebra
    pos_index = {p: i for i, p in enumerate(positions)}
    # e_g^sigma in B^sigma coordinates
    e_coords = [{pos_index[ktw.position[m]]: 1} if ktw.is_alive(m) else {}
                for m in map(monoid.e, range(G.n))]
    # zeta on the monomial basis of B
    B_positions = kpar.idempotent_positions()
    zeta_cols = []
    ker_basis = []
    for i, bp in enumerate(B_positions):
        m = kpar.surviving[bp]
        if ktw.is_alive(m):
            zeta_cols.append({pos_index[ktw.position[m]]: 1})
        else:
            zeta_cols.append({})
            ker_basis.append({i: 1})
    B_alg, _ = kpar.idempotent_subalgebra
    zeta = AlgebraHom(B_alg, Bsig_alg, zeta_cols, name="zeta")
    zeta.verify().raise_if_failed()
    bsig = BSigmaData(Bsig_alg, positions, e_coords, zeta, ker_basis)
    # J: the two-sided monomial ideal of kappa_par G generated by ker(zeta)
    dead_idem = [kpar.surviving[B_positions[i]]
                 for i, col in enumerate(zeta_cols) if not col]
    vanished, surv, omega_alg = _monoid_quotient(
        K, monoid, dead_idem, name=f"Omega_{ktw.sigma.name}")
    pos = {m: p for p, m in enumerate(surv)}
    proj = AlgebraHom(kpar.algebra, omega_alg,
                      [{} if m in vanished else {pos[m]: 1}
                       for m in range(monoid.size)], name="kpar->>Omega")
    proj.verify().raise_if_failed()
    return bsig, OmegaData(omega_alg, surv, proj)


def phi_psi_crossed_iso(ktw):
    """The crossed-product decomposition: Phi: kpar^sigma G -> B^sigma * G
    with inverse Psi, both verified exactly: `universal_hom` verifies Phi,
    and Phi o Psi = Psi o Phi = id makes Psi an algebra map too, as
    Psi(xy) = Psi(Phi(Psi x) Phi(Psi y)) = Psi x . Psi y and
    Psi(1) = Psi(Phi(1)) = 1."""
    G = ktw.group
    K = ktw.field
    can = ktw.canonical_representation()
    can.validate().raise_if_failed(NotARepresentation)
    subres, act = induced_partial_action(can)
    theta = TwistedPartialAction(act, ktw.sigma)
    lam = build_crossed_product(theta, name=f"B^{ktw.sigma.name}*{G.name}")
    gamma = [lam.one_delta(g) for g in range(G.n)]
    rep = PartialProjRepresentation(lam.algebra, gamma, ktw.sigma)
    phi = universal_hom(ktw, rep)
    # Psi: b delta_g -> b [g]
    cols = [ktw.algebra.mul(subres.inclusion.apply(lam.dg_bases[g][li]),
                            ktw.gen_vector(g))
            for (g, li) in lam.basis_index]
    psi = AlgebraHom(lam.algebra, ktw.algebra, cols, name="Psi")
    # the images of Phi o Psi are psi.images . phi.images, and conversely
    p = _char(K)
    if _sp_matmul(psi.images, phi.images, p) != _sp_identity(lam.algebra.dim) \
       or _sp_matmul(phi.images, psi.images, p) != _sp_identity(ktw.dim):
        raise IsomorphismFailure("Phi and Psi are not mutually inverse")
    return lam, phi, psi, subres, act


def b_sigma_module_structures(ktw, ksdd, xi):
    """Module structures induced on B^sigma over kappa_par^{sigma''} G:

      * the left action  [g].w = xi(g) [g]^s w [g^-1]^s;
      * the right action w.[g] = [g^-1].w.

    Returns (left ModuleData, right ModuleData)."""
    G = ktw.group
    bsig_alg, positions = ktw.idempotent_subalgebra
    pos_index = {p: i for i, p in enumerate(positions)}

    def to_sub(vec):
        if any(p not in pos_index for p in vec):
            raise InvalidInput("action leaves B^sigma")
        return {pos_index[p]: c for p, c in vec.items()}

    def conjugation(g):
        mul = ktw.algebra.mul
        gv, giv = ktw.gen_vector(g), ktw.gen_vector(G.inv(g))
        cols = [to_sub(_sp_sum([(xi(g), mul(gv, mul({p: 1}, giv)))],
                               ktw.algebra.p))
                for p in positions]
        return _sp_transpose(cols, bsig_alg.dim)
    left_mod = ksdd.group_module(bsig_alg.dim, conjugation, "left")
    right_mod = ksdd.group_module(
        bsig_alg.dim, lambda g: left_mod.left_matrix_of(
            ksdd.monomial_vector(ksdd.monoid.gen(G.inv(g)))), "right")
    return left_mod, right_mod


def b_sigma_iota(ktw, ksdd):
    """The algebra map iota: B^{sigma''} -> B^sigma, e_A -> e_A^sigma on
    the idempotent monomials (to 0 where e_A^sigma vanished), verified."""
    bsig_alg, positions = ktw.idempotent_subalgebra
    pos_index = {p: i for i, p in enumerate(positions)}
    ksdd_bsig_alg, ksdd_positions = ksdd.idempotent_subalgebra
    iota_cols = []
    for p in ksdd_positions:
        m = ksdd.surviving[p]
        iota_cols.append({pos_index[ktw.position[m]]: 1}
                         if ktw.is_alive(m) else {})
    iota = AlgebraHom(ksdd_bsig_alg, bsig_alg, iota_cols, name="iota")
    iota.verify().raise_if_failed()
    return iota


def lambda_as_bsdd_module(lam, ksdd):
    """Lambda as a left module over B^{sigma''}: e_A acts as multiplication
    by (prod of 1_a) delta_1."""
    ksdd_bsig_alg, positions = ksdd.idempotent_subalgebra
    left = []
    for p in positions:
        mask, _ = ksdd.monoid.elements[ksdd.surviving[p]]
        e = lam.theta.mask_idempotent(ksdd.monoid, mask)
        left.append(lam.algebra.left_mult_matrix(lam.embed_a(e)))
    mod = ModuleData(ksdd_bsig_alg, lam.algebra.dim, left=left,
                     name="Lambda as left B^{sigma''} module")
    mod.validate().raise_if_failed()
    return ksdd_bsig_alg, mod


def monomial_projection_hom(src, dst):
    """The monomial-to-monomial algebra map between two partial group
    algebras over the same Exel monoid (e.g. kappa_par G ->> kappa_par^{s''}G),
    verified multiplicative."""
    if src.monoid is not dst.monoid and src.monoid.elements != dst.monoid.elements:
        raise InvalidInput("projection requires a shared monoid")
    hom = AlgebraHom(src.algebra, dst.algebra,
                     [dst.monomial_vector(m) for m in src.surviving],
                     name=f"{src.algebra.name}->{dst.algebra.name}")
    hom.verify().raise_if_failed()
    return hom


def supports_from_twisted(ktw):
    """The pair/triple support tables induced by a constructed twisted
    partial group algebra: support(g, h) iff e_g e_{gh} survives, and
    triple(g, h, t) iff e_g e_{gh} e_{ght} survives.  These feed
    validate_twist, certifying the factor set against its own algebra."""
    G = ktw.group
    monoid = ktw.monoid
    mul = G.mul

    def alive_mask(letters):
        return ktw.is_alive(monoid.idempotent_of_mask(_mask_of(letters)))

    support = [[alive_mask((g, mul(g, h))) for h in range(G.n)]
               for g in range(G.n)]
    triple = [[[alive_mask((g, mul(g, h), mul(mul(g, h), t)))
                for t in range(G.n)] for h in range(G.n)]
              for g in range(G.n)]
    return support, triple


def monoid_factor_set_from_twisted(ktw):
    """The factor set of the basis of kappa_par^sigma G as a projective
    monoid representation of S(G): rho(x, y) = sigma(g_x, g_y) when the
    product monomial survives, else 0."""
    S = ktw.monoid
    K = ktw.field
    table = []
    for x in range(S.size):
        gx = S.elements[x][1]
        row = []
        for y in range(S.size):
            gy = S.elements[y][1]
            t = S.mul_table[x][y]
            if ktw.is_alive(t):
                row.append(ktw.sigma(gx, gy))
            else:
                row.append(K.zero)
        table.append(row)
    return MonoidFactorSet(S, K, table, name=f"rho({ktw.sigma.name})")
