"""Partial group algebras and their twisted versions.

The untwisted algebra is the semigroup algebra of S(G); its basis monomials
are written E_A[g] for the normal form (A, g).  For a twist sigma the same
monomials are used, with the candidate product rule

    E_A[g] . E_B[h]  =  sigma(g, h) . E_{A | gB}[gh],

pruned by a *vanishing set* V of monomials forced to zero.  V is seeded by

  R4  every monomial whose letter set meets {a : sigma(a, a^-1) = 0};
  Z   for each zero pair sigma(g, h) = 0: the idempotent monomial with
      letters {g, gh}, and the monomial parts of [g^-1][gh] and [gh][h^-1]
      whenever their own scalars do not already vanish;
  C   for each cocycle defect sigma(g,h)sigma(gh,t) != sigma(g,ht)sigma(h,t):
      the idempotent monomial with letters {g, gh, ght};

then closed into a two-sided monomial ideal.  A completion loop re-checks
associativity of the resulting table: whenever two bracketings of a triple
produce the same monomial with different scalars, that monomial joins V and
the closure reruns.  The loop terminates because V only grows; reaching the
identity monomial means sigma admits no algebra at all and is reported.
The final table is gated by Light's associativity test: every triple whose
middle factor lies in a generating set of the table, which is complete
because the associating elements form a subalgebra.

These loops run on Python ints only.  The closure and the table build read
the zero pattern of sigma once.  Light's test takes every scalar of the
table once as an integer pair n/d (exact over Q, (residue, 1) over F_p) and
decides s1 s2 = s3 s4 by cross-multiplying: n1 n2 d3 d4 - n3 n4 d1 d2 = 0,
taken mod p over F_p.
"""

from .errors import (CompletionDiverged, InvalidInput, NotARepresentation,
                     IsomorphismFailure, ValidationFailure)
from .algebras import (AlgebraHom, ModuleData, StructureAlgebra,
                       ValidationReport, module_from_generator_actions,
                       subalgebra_generated)
from .factor_sets import MonoidFactorSet, trivial_factor_set
from .groups import enumerate_exel
from .linalg import _char, _sp_identity, _sp_matmul, _sp_transpose, _sparse
from .partial_actions import (PartialProjRepresentation, TwistedPartialAction,
                              build_crossed_product, induced_partial_action)

__all__ = [
    "TwistedPartialGroupAlgebra", "PartialGroupAlgebra", "build_kpar",
    "build_kpar_sigma", "build_kpar_idempotent", "check_defining_relations",
    "universal_hom", "opposite_iso", "BSigmaData", "OmegaData",
    "build_B_sigma_omega", "phi_psi_crossed_iso", "b_sigma_module_structures",
    "monoid_factor_set_from_twisted", "extract_idempotent_subalgebra",
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
        K = field
        self.gens = []
        self.e_vectors = []
        for g in range(group.n):
            self.gens.append(self.monomial_vector(monoid.gen(g)))
            self.e_vectors.append(self.monomial_vector(monoid.e(g)))

    @property
    def dim(self):
        return self.algebra.dim

    def is_alive(self, monoid_index):
        return monoid_index in self.position

    def monomial_vector(self, monoid_index):
        v = [self.field.zero] * len(self.surviving)
        p = self.position.get(monoid_index)
        if p is not None:
            v[p] = self.field.one
        return v

    def gen_vector(self, g):
        return list(self.gens[g])

    def e_vector(self, g):
        return list(self.e_vectors[g])

    def idempotent_positions(self):
        """Basis positions of the monomials (A, 1)."""
        return [p for p, m in enumerate(self.surviving)
                if self.monoid.elements[m][1] == 0]

    def canonical_representation(self):
        return PartialProjRepresentation(self.algebra, self.gens, self.sigma)

    def monomial_label(self, p):
        return self.monoid.label(self.surviving[p])


class PartialGroupAlgebra(TwistedPartialGroupAlgebra):
    """kappa_par G = kappa S(G); the sigma = 1 instance."""


def build_kpar(G, field, monoid=None):
    monoid = monoid or enumerate_exel(G)
    K = field
    sigma = trivial_factor_set(G, K)
    surviving = list(range(monoid.size))
    sc = {}
    for i in range(monoid.size):
        row = monoid.mul_table[i]
        for j in range(monoid.size):
            sc[(i, j)] = [(row[j], K.one)]
    unit = [K.zero] * monoid.size
    unit[monoid.identity] = K.one
    labels = [monoid.label(i) for i in range(monoid.size)]
    alg = StructureAlgebra(K, monoid.size, sc, unit, labels=labels,
                           name=f"kpar({G.name})")
    return PartialGroupAlgebra(G, K, sigma, monoid, surviving, set(), alg)


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
    work = list(vanished)
    while work:
        m = work.pop()
        gm, row = grade[m], mt[m]
        for n in range(monoid.size):
            gn = grade[n]
            for z, t in ((zero[gn][gm], mt[n][m]), (zero[gm][gn], row[n])):
                if not z and t not in vanished:
                    vanished.add(t)
                    work.append(t)
    return vanished


def _build_table(monoid, sigma, vanished):
    """Sparse (scalar, target) tables over the surviving monomials."""
    zero = sigma.zero_pattern()
    surviving = [m for m in range(monoid.size) if m not in vanished]
    pos = {m: p for p, m in enumerate(surviving)}
    grades = [monoid.elements[m][1] for m in surviving]
    n = len(surviving)
    scal = [[None] * n for _ in range(n)]
    targ = [[-1] * n for _ in range(n)]
    for p1, m1 in enumerate(surviving):
        g1 = grades[p1]
        row = monoid.mul_table[m1]
        srow, zrow = sigma.table[g1], zero[g1]
        scal_row, targ_row = scal[p1], targ[p1]
        for p2, m2 in enumerate(surviving):
            g2 = grades[p2]
            if zrow[g2]:
                continue
            t = pos.get(row[m2])
            if t is not None:
                scal_row[p2] = srow[g2]
                targ_row[p2] = t
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


def _int_pairs(K, scal, targ):
    """The scalars of the table as integer (numerator, denominator) rows:
    exact over Q, (residue, 1) over F_p.  Cells without a target get
    (0, 1)."""
    p = K.characteristic
    nums, dens = [], []
    for srow, trow in zip(scal, targ):
        if p:
            nums.append([srow[k] % p if t >= 0 else 0
                         for k, t in enumerate(trow)])
            dens.append([1] * len(trow))
        else:
            nums.append([srow[k].numerator if t >= 0 else 0
                         for k, t in enumerate(trow)])
            dens.append([srow[k].denominator if t >= 0 else 1
                         for k, t in enumerate(trow)])
    return nums, dens


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

    The scalars are compared on Python ints only: with s = n/d from
    `_int_pairs`, s1 s2 = s3 s4 exactly when n1 n2 d3 d4 - n3 n4 d1 d2 is 0,
    over F_p when it is 0 mod p (there every d is 1).
    """
    p = K.characteristic
    num, den = _int_pairs(K, scal, targ)
    for i in range(len(surviving)):
        ti, ni, di = targ[i], num[i], den[i]
        for j in middles:
            q = ti[j]
            tj, nj, dj = targ[j], num[j], den[j]
            if q >= 0:
                n1, d1, tq, nq, dq = ni[j], di[j], targ[q], num[q], den[q]
            for k, r in enumerate(tj):
                left_t = tq[k] if q >= 0 else -1
                right_t = ti[r] if r >= 0 else -1
                if left_t >= 0 and right_t >= 0:
                    if left_t != right_t:
                        return surviving[left_t]
                    lhs = n1 * nq[k] * dj[k] * di[r]
                    rhs = nj[k] * ni[r] * d1 * dq[k]
                    if lhs != rhs and (not p or (lhs - rhs) % p):
                        return surviving[left_t]
                elif left_t >= 0:
                    return surviving[left_t]
                elif right_t >= 0:
                    return surviving[right_t]
    return None


def _complete(monoid, sigma, vanished):
    """The completion loop from a closed vanishing set: one defect per round
    joins V until the table associates.  Returns the final V, its table
    (surviving, pos, scal, targ) and the completion-round log entries."""
    K = sigma.field
    gens = [monoid.gen(g) for g in range(sigma.group.n)]
    log = []
    max_rounds = monoid.size + 2
    for round_no in range(max_rounds):
        if monoid.identity in vanished:
            raise ValidationFailure(
                "the identity monomial vanished: sigma admits no twisted "
                "partial group algebra (not a partial factor set)")
        table = _build_table(monoid, sigma, vanished)
        surviving, pos, scal, targ = table
        middles = _light_generators(targ, [pos[m] for m in gens if m in pos])
        defect = _associativity_defect(K, surviving, scal, targ, middles)
        if defect is None:
            return vanished, table, log
        vanished.add(defect)
        log.append(("completion-round", round_no, [defect]))
        vanished = _close_vanishing(monoid, sigma, vanished)
    raise CompletionDiverged(f"no fixpoint after {max_rounds} rounds")


def build_kpar_sigma(sigma, monoid=None):
    """The rewriting/completion construction of kappa_par^sigma G."""
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
    # seeds Z and C
    inv, mul = G.inv, G.mul
    for g in range(G.n):
        for h in range(G.n):
            gh = mul(g, h)
            if sigma.is_zero(g, h):
                vanished.add(monoid.idempotent_of_mask(_mask_of((g, gh))))
                if not sigma.is_zero(inv(g), gh):
                    vanished.add(monoid.mul_table[monoid.gen(inv(g))][monoid.gen(gh)])
                if not sigma.is_zero(gh, inv(h)):
                    vanished.add(monoid.mul_table[monoid.gen(gh)][monoid.gen(inv(h))])
            for t in range(G.n):
                lhs = K.mul(sigma(g, h), sigma(gh, t))
                rhs = K.mul(sigma(g, mul(h, t)), sigma(h, t))
                if lhs != rhs:
                    vanished.add(monoid.idempotent_of_mask(
                        _mask_of((g, gh, mul(gh, t)))))
    vanished = _close_vanishing(monoid, sigma, vanished)
    log.append(("seed-vanished", len(vanished)))
    vanished, (surviving, pos, scal, targ), rounds = _complete(
        monoid, sigma, vanished)
    log.extend(rounds)
    n = len(surviving)
    sc = {}
    for p1 in range(n):
        for p2 in range(n):
            t = targ[p1][p2]
            if t >= 0:
                sc[(p1, p2)] = [(t, scal[p1][p2])]
    unit = [K.zero] * n
    unit[pos[monoid.identity]] = K.one
    labels = [monoid.label(m) for m in surviving]
    alg = StructureAlgebra(K, n, sc, unit, labels=labels,
                           name=f"kpar^{sigma.name}({G.name})")
    return TwistedPartialGroupAlgebra(G, K, sigma, monoid, surviving, vanished,
                                      alg, completion_log=log)


def build_kpar_idempotent(sigma_dd, monoid=None):
    """Quotient construction for an idempotent factor set: kill the
    semigroup ideal generated by [g^-1][gh], [gh][h^-1], [g^-1][g][h] and
    [g][h][h^-1] over all zero pairs, inside kappa S(G)."""
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
    # untwisted two-sided semigroup ideal closure
    vanished = set(seeds)
    work = list(seeds)
    while work:
        m = work.pop()
        for x in range(monoid.size):
            for t in (monoid.mul_table[x][m], monoid.mul_table[m][x]):
                if t not in vanished:
                    vanished.add(t)
                    work.append(t)
    if monoid.identity in vanished:
        raise ValidationFailure("identity vanished: invalid idempotent factor set")
    surviving = [m for m in range(monoid.size) if m not in vanished]
    pos = {m: p for p, m in enumerate(surviving)}
    sc = {}
    for p1, m1 in enumerate(surviving):
        for p2, m2 in enumerate(surviving):
            t = monoid.mul_table[m1][m2]
            if t not in vanished:
                sc[(p1, p2)] = [(pos[t], K.one)]
    unit = [K.zero] * len(surviving)
    unit[pos[monoid.identity]] = K.one
    labels = [monoid.label(m) for m in surviving]
    alg = StructureAlgebra(K, len(surviving), sc, unit, labels=labels,
                           name=f"kpar^{sigma_dd.name}({G.name})//ideal")
    alg.validate().raise_if_failed()
    return TwistedPartialGroupAlgebra(G, K, sigma_dd, monoid, surviving,
                                      vanished, alg,
                                      completion_log=[("semigroup-ideal",
                                                       len(vanished))])


def check_defining_relations(ktw):
    """The defining relations of the twisted partial group algebra and the
    zero-pattern biconditionals, checked exhaustively in the built algebra."""
    G = ktw.group
    K = ktw.field
    R = ktw.algebra
    sigma = ktw.sigma
    rep = ValidationReport(f"defining relations of {R.name}")
    zero = [K.zero] * R.dim
    gm = ktw.gens
    if gm[0] != R.unit:
        rep.fail("[1] != 1")
    for g in range(G.n):
        gi = G.inv(g)
        if sigma.is_zero(g, gi) != (gm[g] == zero):
            rep.fail("generator zero pattern", g)
        for h in range(G.n):
            gh = G.mul(g, h)
            hi = G.inv(h)
            s = sigma(g, h)
            lhs = R.mul(gm[gi], R.mul(gm[g], gm[h]))
            rhs = [K.mul(s, c) for c in R.mul(gm[gi], gm[gh])]
            if lhs != rhs:
                rep.fail("relation [g^-1][g][h]", g, h)
            lhs2 = R.mul(R.mul(gm[g], gm[h]), gm[hi])
            rhs2 = [K.mul(s, c) for c in R.mul(gm[gh], gm[hi])]
            if lhs2 != rhs2:
                rep.fail("relation [g][h][h^-1]", g, h)
            z = sigma.is_zero(g, h)
            z1 = R.mul(gm[g], gm[h]) == zero
            z2 = R.mul(gm[gi], gm[gh]) == zero
            z3 = R.mul(gm[gh], gm[hi]) == zero
            if not (z == z1 == z2 == z3):
                rep.fail("zero biconditional", g, h)
        if R.mul(gm[g], gm[0]) != gm[g] or R.mul(gm[0], gm[g]) != gm[g]:
            rep.fail("unit relation", g)
    return rep


def universal_hom(ktw, rep, check_uniqueness=True):
    """The algebra map kappa_par^sigma G -> R sending [g] to Gamma(g),
    for a validated partial sigma-representation Gamma."""
    report = rep.validate(factor_set_property=False)
    report.raise_if_failed(NotARepresentation)
    R = rep.target
    K = R.field
    G = ktw.group
    sigma = ktw.sigma
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
    hom = AlgebraHom(ktw.algebra, R, [_sparse(K, c) for c in cols],
                     name="universal hom")
    hom.verify().raise_if_failed(NotARepresentation)
    for g in range(G.n):
        if hom.apply(ktw.gen_vector(g)) != rep.gamma[g]:
            raise NotARepresentation(f"universal hom misses Gamma({g})")
    if check_uniqueness:
        gen_span = subalgebra_generated(ktw.algebra,
                                        [ktw.gen_vector(g) for g in range(G.n)])
        if gen_span.algebra.dim != ktw.dim:
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


def extract_idempotent_subalgebra(ktw, name=None):
    """B^sigma: the span of the surviving idempotent monomials (A, 1),
    returned as a StructureAlgebra plus its positions inside ktw."""
    K = ktw.field
    positions = ktw.idempotent_positions()
    pos_index = {p: i for i, p in enumerate(positions)}
    n = len(positions)
    sc = {}
    for i, p in enumerate(positions):
        for j, q in enumerate(positions):
            row = ktw.algebra.mul_basis(p, q)
            if row:
                (t, c), = row
                assert t in pos_index, "idempotent span not closed"
                sc[(i, j)] = [(pos_index[t], c)]
    unitpos = ktw.position[ktw.monoid.identity]
    unit = [K.zero] * n
    unit[pos_index[unitpos]] = K.one
    labels = [ktw.algebra.labels[p] for p in positions]
    return StructureAlgebra(K, n, sc, unit, labels=labels,
                            name=name or f"B^{ktw.sigma.name}"), positions


class BSigmaData:
    def __init__(self, algebra, positions, e_coords, zeta, ker_zeta_basis):
        self.algebra = algebra          # B^sigma as a StructureAlgebra
        self.positions = positions      # positions inside kappa_par^sigma G
        self.e_coords = e_coords        # e_g^sigma in B^sigma coordinates
        self.zeta = zeta                # AlgebraHom B -> B^sigma
        self.ker_zeta_basis = ker_zeta_basis

    def to_ambient(self, w, ktw):
        K = self.algebra.field
        out = [K.zero] * ktw.dim
        for i, p in enumerate(self.positions):
            out[p] = w[i]
        return out


class OmegaData:
    def __init__(self, algebra, surviving, projection, left_module, right_module):
        self.algebra = algebra
        self.surviving = surviving
        self.projection = projection    # AlgebraHom kpar -> Omega
        self.left_module = left_module  # over kappa_par^{sigma''} G
        self.right_module = right_module


def build_B_sigma_omega(kpar, ktw, ksdd=None):
    """B^sigma with zeta: B -> B^sigma, ker(zeta), the ideal J it generates
    and Omega = kappa_par G / J with its module structures over
    kappa_par^{sigma''} G (when ksdd is given)."""
    K = ktw.field
    G = ktw.group
    monoid = kpar.monoid
    Bsig_alg, positions = extract_idempotent_subalgebra(ktw)
    pos_index = {p: i for i, p in enumerate(positions)}
    # e_g^sigma in B^sigma coordinates
    e_coords = []
    for g in range(G.n):
        v = [K.zero] * Bsig_alg.dim
        m = monoid.e(g)
        if ktw.is_alive(m):
            v[pos_index[ktw.position[m]]] = K.one
        e_coords.append(v)
    # zeta on the monomial basis of B
    B_positions = kpar.idempotent_positions()
    zeta_cols = []
    ker_basis = []
    for bp in B_positions:
        m = kpar.surviving[bp]
        col = {}
        if ktw.is_alive(m):
            col[pos_index[ktw.position[m]]] = 1
        else:
            kv = [K.zero] * len(B_positions)
            kv[B_positions.index(bp)] = K.one
            ker_basis.append(kv)
        zeta_cols.append(col)
    B_alg, _ = extract_idempotent_subalgebra(kpar, name="B")
    zeta = AlgebraHom(B_alg, Bsig_alg, zeta_cols, name="zeta")
    zeta.verify().raise_if_failed()
    bsig = BSigmaData(Bsig_alg, positions, e_coords, zeta, ker_basis)
    # J: the two-sided monomial ideal of kappa_par G generated by ker(zeta)
    dead_idem = [kpar.surviving[B_positions[i]]
                 for i, col in enumerate(zeta_cols) if not col]
    vanished = set(dead_idem)
    work = list(dead_idem)
    while work:
        m = work.pop()
        for x in range(monoid.size):
            for t in (monoid.mul_table[x][m], monoid.mul_table[m][x]):
                if t not in vanished:
                    vanished.add(t)
                    work.append(t)
    surv = [m for m in range(monoid.size) if m not in vanished]
    pos = {m: p for p, m in enumerate(surv)}
    sc = {}
    for p1, m1 in enumerate(surv):
        for p2, m2 in enumerate(surv):
            t = monoid.mul_table[m1][m2]
            if t not in vanished:
                sc[(p1, p2)] = [(pos[t], K.one)]
    unit = [K.zero] * len(surv)
    unit[pos[monoid.identity]] = K.one
    omega_alg = StructureAlgebra(K, len(surv), sc, unit,
                                 labels=[monoid.label(m) for m in surv],
                                 name=f"Omega_{ktw.sigma.name}")
    omega_alg.validate().raise_if_failed()
    proj = AlgebraHom(kpar.algebra, omega_alg,
                      [{} if m in vanished else {pos[m]: 1}
                       for m in range(monoid.size)], name="kpar->>Omega")
    proj.verify().raise_if_failed()
    left_mod = right_mod = None
    if ksdd is not None:
        # [g]^{sigma''} . x = image of [g] x in Omega; per basis monomial of
        # kappa_par^{sigma''} G the action is multiplication by its image.
        left = []
        right = []
        for m in ksdd.surviving:
            img = [K.zero] * len(surv)
            if m not in vanished:
                img[pos[m]] = K.one
            left.append(omega_alg.left_mult_matrix(img))
            right.append(omega_alg.right_mult_matrix(img))
        left_mod = ModuleData(ksdd.algebra, len(surv), left=left,
                              name="Omega as left module")
        right_mod = ModuleData(ksdd.algebra, len(surv), right=right,
                               name="Omega as right module")
        left_mod.validate().raise_if_failed()
        right_mod.validate().raise_if_failed()
    return bsig, OmegaData(omega_alg, surv, proj, left_mod, right_mod)


def phi_psi_crossed_iso(ktw):
    """The crossed-product decomposition: Phi: kpar^sigma G -> B^sigma * G
    with inverse Psi, both verified exactly."""
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
    cols = []
    for (g, li) in lam.basis_index:
        b_sub = lam.dg_bases[g][li]
        amb = [K.zero] * ktw.dim
        for i, bv in enumerate(subres.basis_vectors):
            if b_sub[i] != K.zero:
                amb = [K.add(a, K.mul(b_sub[i], c)) for a, c in zip(amb, bv)]
        cols.append(ktw.algebra.mul(amb, ktw.gen_vector(g)))
    psi = AlgebraHom(lam.algebra, ktw.algebra, [_sparse(K, c) for c in cols],
                     name="Psi")
    psi.verify().raise_if_failed(IsomorphismFailure)
    # the images of Phi o Psi are psi.images . phi.images, and conversely
    p = _char(K)
    if _sp_matmul(psi.images, phi.images, p) != _sp_identity(lam.algebra.dim) \
       or _sp_matmul(phi.images, psi.images, p) != _sp_identity(ktw.dim):
        raise IsomorphismFailure("Phi and Psi are not mutually inverse")
    return lam, phi, psi, subres, act


def b_sigma_module_structures(ktw, ksdd, xi, bsig=None):
    """Module structures induced on B^sigma:

      * left kappa_par^{sigma''} G-action  [g].w = xi(g) [g]^s w [g^-1]^s;
      * right action w.[g] = [g^-1].w;
      * the algebra map iota: B^{sigma''} -> B^sigma, e_g -> e_g^sigma.

    Returns (left ModuleData, right ModuleData, iota AlgebraHom)."""
    K = ktw.field
    G = ktw.group
    if bsig is None:
        bsig_alg, positions = extract_idempotent_subalgebra(ktw)
    else:
        bsig_alg, positions = bsig.algebra, bsig.positions
    pos_index = {p: i for i, p in enumerate(positions)}

    def to_sub(vec):
        out = [K.zero] * bsig_alg.dim
        for p, c in enumerate(vec):
            if c != K.zero:
                if p not in pos_index:
                    raise InvalidInput("action leaves B^sigma")
                out[pos_index[p]] = c
        return out

    def from_sub(w):
        out = [K.zero] * ktw.dim
        for i, c in enumerate(w):
            out[positions[i]] = c
        return out

    gen_left = {}
    for g in range(G.n):
        mono = ksdd.monoid.gen(g)
        if not ksdd.is_alive(mono):
            continue
        cols = []
        gv, giv = ktw.gen_vector(g), ktw.gen_vector(G.inv(g))
        for i in range(bsig_alg.dim):
            w = from_sub(bsig_alg.basis_vector(i))
            img = ktw.algebra.mul(gv, ktw.algebra.mul(w, giv))
            img = [K.mul(xi(g), c) for c in img]
            cols.append(_sparse(K, to_sub(img)))
        gen_left[ksdd.position[mono]] = _sp_transpose(cols, bsig_alg.dim)
    left_mod = module_from_generator_actions(ksdd.algebra, bsig_alg.dim,
                                             gen_left, side="left")
    left_mod.validate().raise_if_failed()
    gen_right = {}
    for g in range(G.n):
        mono = ksdd.monoid.gen(g)
        if not ksdd.is_alive(mono):
            continue
        ginv_mono = ksdd.monoid.gen(G.inv(g))
        gen_right[ksdd.position[mono]] = left_mod.left_matrix_of(
            ksdd.monomial_vector(ginv_mono))
    right_mod = module_from_generator_actions(ksdd.algebra, bsig_alg.dim,
                                              gen_right, side="right")
    right_mod.validate().raise_if_failed()
    # iota: B^{sigma''} -> B^sigma on idempotent monomials
    ksdd_bsig_alg, ksdd_positions = extract_idempotent_subalgebra(ksdd)
    iota_cols = []
    for p in ksdd_positions:
        m = ksdd.surviving[p]
        iota_cols.append({pos_index[ktw.position[m]]: 1}
                         if ktw.is_alive(m) else {})
    iota = AlgebraHom(ksdd_bsig_alg, bsig_alg, iota_cols, name="iota")
    iota.verify().raise_if_failed()
    return left_mod, right_mod, iota


def lambda_as_bsdd_module(lam, ksdd):
    """Lambda as a left module over B^{sigma''}: e_A acts as multiplication
    by (prod of 1_a) delta_1."""
    K = lam.algebra.field
    A = lam.theta.algebra
    ksdd_bsig_alg, positions = extract_idempotent_subalgebra(ksdd)
    left = []
    for p in positions:
        m = ksdd.surviving[p]
        mask, _ = ksdd.monoid.elements[m]
        prod = A.unit
        for a in ksdd.monoid.mask_elements(mask):
            if a == 0:
                continue
            prod = A.mul(prod, lam.theta.one[a])
        left.append(lam.algebra.left_mult_matrix(lam.embed_a(prod)))
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
    K = src.field
    hom = AlgebraHom(src.algebra, dst.algebra,
                     [_sparse(K, dst.monomial_vector(m))
                      for m in src.surviving],
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
