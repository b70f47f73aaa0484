"""Unital twisted partial actions, crossed products, and the translation
between partial projective representations and partial actions.

A unital partial action stores, per group element g, the central idempotent
1_g generating the ideal D_g, as a kernel row of `linalg`, and the map
theta_g as a full d x d matrix of kernel rows that vanishes off D_{g^-1}
and lands in D_g.  Every element of A, of the crossed product and of a
representation's target is a kernel row.  The crossed product has basis
pairs (g, ideal basis vector of D_g) and the product rule

    (a delta_g)(b delta_h) = sigma(g,h) . a theta_g(1_{g^-1} b) 1_{gh} delta_{gh}.
"""

from functools import cached_property

from .errors import (AssociativityFailure, InvalidInput, NotCovariant,
                     NotARepresentation, PropertyFailure, ValidationFailure)
from .algebras import (AlgebraHom, StructureAlgebra, ValidationReport,
                       subalgebra_generated)
from .factor_sets import validate_twist
from .linalg import (Subspace, _sp_identity, _sp_matvec, _sp_sum,
                     _sp_transpose)

__all__ = [
    "UnitalPartialAction", "TwistedPartialAction", "CrossedProductAlgebra",
    "PartialProjRepresentation", "validate_partial_action", "validate_twisted",
    "build_crossed_product", "gamma_sigma", "induced_idempotents",
    "induced_partial_action", "validate_covariant", "pi_times_gamma",
    "transport_by_equivalence", "check_ideal_splittings",
]


class UnitalPartialAction:
    def __init__(self, algebra, one, theta):
        self.algebra = algebra
        self.one = list(one)            # 1_g as kernel rows of A
        self.theta = list(theta)        # theta_g as kernel-row matrices
        if len(theta) != len(one):
            raise InvalidInput("need one idempotent and one map per group element")

    @cached_property
    def _ideals(self):
        A = self.algebra
        spans = [Subspace(A.field, A.dim,
                          (A.mul(e, A.basis_vector(j)) for j in range(A.dim)))
                 for e in self.one]
        return [(span, span.basis()) for span in spans]

    def ideal_space(self, g):
        """D_g = 1_g . A as a Subspace of A, built once."""
        return self._ideals[g][0]

    def ideal_basis(self, g):
        """Echelonized basis of D_g: the reduced basis of `ideal_space`."""
        return self._ideals[g][1]

    def apply_theta(self, g, vec):
        return _sp_matvec(self.theta[g], vec, self.algebra.p)


class TwistedPartialAction:
    def __init__(self, action, sigma):
        self.action = action
        self.sigma = sigma
        self.algebra = action.algebra
        self.group = sigma.group

    @property
    def one(self):
        return self.action.one

    def apply_theta(self, g, vec):
        return self.action.apply_theta(g, vec)

    def mask_idempotent(self, monoid, mask):
        """prod 1_a in A over the nonzero letters a of a mask of the Exel
        monoid: the image of the idempotent monomial (mask, 1)."""
        A = self.algebra
        e = A.unit
        for a in monoid.mask_elements(mask):
            if a:
                e = A.mul(e, self.one[a])
        return e


def validate_partial_action(action, group):
    """All the unital partial action axioms, on ideal bases."""
    A = action.algebra
    K = A.field
    rep = ValidationReport("partial action")
    n = group.n
    if len(action.one) != n:
        rep.fail("arity", len(action.one), n)
        return rep
    # central idempotents: the centralizer of 1_g in the unital associative
    # A is a unital subalgebra, so the generators decide it; only a failure
    # sweeps the whole basis, to report every basis element that does not
    # commute
    for g in range(n):
        e = action.one[g]
        if A.mul(e, e) != e:
            rep.fail("1_g not idempotent", g)
        if any(A.mul(e, A.basis_vector(j)) != A.mul(A.basis_vector(j), e)
               for j in A.generators):
            for j in range(A.dim):
                b = A.basis_vector(j)
                if A.mul(e, b) != A.mul(b, e):
                    rep.fail("1_g not central", g, j)
    if action.one[0] != A.unit:
        rep.fail("D_1 != A")
    if action.theta[0] != _sp_identity(A.dim):
        rep.fail("theta_1 != id")
    inv = group.inv
    mul = group.mul
    for g in range(n):
        ginv = inv(g)
        e_g, e_ginv = action.one[g], action.one[ginv]
        # vanishes off D_{g^-1}: theta_g(x) = theta_g(1_{g^-1} x)
        for j in range(A.dim):
            b = A.basis_vector(j)
            if action.apply_theta(g, b) != action.apply_theta(g, A.mul(e_ginv, b)):
                rep.fail("theta_g not supported on D_{g^-1}", g, j)
        # lands in D_g and is multiplicative there, on theta_g of each basis
        # element of D_{g^-1}, formed once
        src_basis = action.ideal_basis(ginv)
        images = [action.apply_theta(g, u) for u in src_basis]
        for u, tu in zip(src_basis, images):
            if A.mul(e_g, tu) != tu:
                rep.fail("theta_g does not land in D_g", g)
            for v, tv in zip(src_basis, images):
                if action.apply_theta(g, A.mul(u, v)) != A.mul(tu, tv):
                    rep.fail("theta_g not multiplicative", g)
        # theta_g : D_{g^-1} -> D_g bijective
        dim_src = len(src_basis)
        img = Subspace(K, A.dim)
        for tu in images:
            img.add(tu)
        if img.dim != dim_src or dim_src != len(action.ideal_basis(g)):
            rep.fail("theta_g not an isomorphism onto D_g", g)
        for h in range(n):
            # theta_g(1_{g^-1} 1_h) = 1_g 1_{gh}
            lhs = action.apply_theta(g, A.mul(e_ginv, action.one[h]))
            rhs = A.mul(e_g, action.one[mul(g, h)])
            if lhs != rhs:
                rep.fail("unity transport", g, h)
            # theta_g(D_{g^-1} D_h) = D_g D_{gh}; theta_g is linear, so the
            # images of a basis of D_{g^-1} D_h span the left side
            prod = Subspace(K, A.dim)
            for u in src_basis:
                for v in action.ideal_basis(h):
                    prod.add(A.mul(u, v))
            src = Subspace(K, A.dim, (action.apply_theta(g, b)
                                      for b in prod.basis()))
            tgt = Subspace(K, A.dim)
            for u in action.ideal_basis(g):
                for v in action.ideal_basis(mul(g, h)):
                    tgt.add(A.mul(u, v))
            if src.basis() != tgt.basis():
                rep.fail("ideal image", g, h)
            # composition on D_{h^-1} D_{(gh)^-1}
            gh = mul(g, h)
            dom = Subspace(K, A.dim)
            for u in action.ideal_basis(inv(h)):
                for v in action.ideal_basis(inv(gh)):
                    dom.add(A.mul(u, v))
            for a in dom.basis():
                if action.apply_theta(g, action.apply_theta(h, a)) != \
                   action.apply_theta(gh, a):
                    rep.fail("composition", g, h)
    return rep


def validate_twisted(theta, group=None):
    """Axioms for a kappa-based twist on top of a valid partial action."""
    group = group or theta.group
    action, sigma = theta.action, theta.sigma
    A = action.algebra
    rep = validate_partial_action(action, group)
    n = group.n
    support = [[bool(A.mul(action.one[g], action.one[group.mul(g, h)]))
                for h in range(n)] for g in range(n)]
    triple = [[[bool(A.mul(A.mul(action.one[g], action.one[group.mul(g, h)]),
                           action.one[group.mul(g, group.mul(h, t))]))
                for t in range(n)] for h in range(n)] for g in range(n)]
    rep.merge(validate_twist(sigma, support, triple))
    return rep


class CrossedProductAlgebra:
    """A *_Theta G as a StructureAlgebra with bookkeeping."""

    def __init__(self, theta, algebra, basis_index, dg_bases):
        self.theta = theta
        self.algebra = algebra               # the StructureAlgebra of Lambda
        self.basis_index = basis_index       # list of (g, local_index)
        self.dg_bases = dg_bases             # per g: list of elements of A
        self.group = theta.group
        self._offsets = {}
        for pos, (g, li) in enumerate(basis_index):
            self._offsets.setdefault(g, {})[li] = pos

    @property
    def dim(self):
        return self.algebra.dim

    def delta(self, g, a_vec):
        """Element a delta_g of Lambda for a in D_g."""
        coords = self.theta.action.ideal_space(g).coords(a_vec)
        if coords is None:
            raise InvalidInput(f"element not in D_{g}")
        return {self._offsets[g][li]: c for li, c in coords.items()}

    def embed_a(self, a_vec):
        return self.delta(0, a_vec)

    def one_delta(self, g):
        return self.delta(g, self.theta.one[g])


def build_crossed_product(theta, name=None):
    """Construct Lambda = A *_Theta G; exhaustive associativity is a gate
    that reports invalid input (AssociativityFailure)."""
    action = theta.action
    sigma = theta.sigma
    group = theta.group
    A = action.algebra
    K = A.field
    dg_bases = [action.ideal_basis(g) for g in range(group.n)]
    basis_index = [(g, li) for g in range(group.n)
                   for li in range(len(dg_bases[g]))]
    pos = {bi: p for p, bi in enumerate(basis_index)}
    dim = len(basis_index)
    sc = {}
    p1 = 0
    for g in range(group.n):
        if not dg_bases[g]:
            continue
        # theta_g(1_{g^-1} b) depends on (g, b) only: formed once per pair
        one_gi = action.one[group.inv(g)]
        moved = [action.apply_theta(g, A.mul(one_gi, dg_bases[h][lj]))
                 if sigma(g, h) else None for (h, lj) in basis_index]
        for a in dg_bases[g]:
            for p2, (h, lj) in enumerate(basis_index):
                s = sigma(g, h)
                if not s:
                    continue
                gh = group.mul(g, h)
                w = A.mul(a, moved[p2])
                w = _sp_sum([(s, A.mul(w, action.one[gh]))], A.p)
                if not w:
                    continue
                coords = action.ideal_space(gh).coords(w)
                if coords is None:
                    raise InvalidInput("crossed product does not close")
                sc[(p1, p2)] = [(pos[(gh, lk)], c)
                                for lk, c in sorted(coords.items())]
            p1 += 1
    unit_coords = action.ideal_space(0).coords(A.unit)
    if unit_coords is None:
        raise InvalidInput("the unit of A is not in D_1")
    unit = {pos[(0, li)]: c for li, c in unit_coords.items()}
    labels = [f"d{g}[{li}]" for (g, li) in basis_index]
    alg = StructureAlgebra(K, dim, sc, unit, labels=labels,
                           name=name or f"{A.name}*{group.name}")
    rep = alg.validate()
    if not rep.ok:
        raise AssociativityFailure(
            "crossed product is not associative; the input twisted "
            f"partial action is invalid: {rep.violations[:3]}", rep)
    return CrossedProductAlgebra(theta, alg, basis_index, dg_bases)


class PartialProjRepresentation:
    """A map g -> Gamma(g) into a StructureAlgebra, with its factor set."""

    def __init__(self, target, gamma, sigma):
        self.target = target
        self.gamma = list(gamma)        # Gamma(g) as kernel rows of target
        self.sigma = sigma
        self.group = sigma.group

    def __call__(self, g):
        return self.gamma[g]

    def validate(self, factor_set_property=True):
        R = self.target
        G = self.group
        sigma = self.sigma
        rep = ValidationReport("partial projective representation")
        if self.gamma[0] != R.unit:
            rep.fail("Gamma(1) != 1")
        for g in range(G.n):
            ginv = G.inv(g)
            for h in range(G.n):
                gh = G.mul(g, h)
                s = sigma(g, h)
                left = R.mul(self.gamma[ginv], R.mul(self.gamma[g], self.gamma[h]))
                right = _sp_sum([(s, R.mul(self.gamma[ginv], self.gamma[gh]))],
                                R.p)
                if left != right:
                    rep.fail("left absorption", g, h)
                left2 = R.mul(R.mul(self.gamma[g], self.gamma[h]),
                              self.gamma[G.inv(h)])
                right2 = _sp_sum([(s, R.mul(self.gamma[gh],
                                            self.gamma[G.inv(h)]))], R.p)
                if left2 != right2:
                    rep.fail("right absorption", g, h)
                if sigma.is_zero(g, h):
                    if R.mul(self.gamma[ginv], self.gamma[gh]):
                        rep.fail("zero relation left", g, h)
                    if R.mul(self.gamma[gh], self.gamma[G.inv(h)]):
                        rep.fail("zero relation right", g, h)
                if factor_set_property:
                    if (not R.mul(self.gamma[g], self.gamma[h])) != \
                       sigma.is_zero(g, h):
                        rep.fail("factor set property", g, h)
        return rep

    def zero_pattern_equivalences(self):
        """Gamma(g^-1)Gamma(gh) = 0 <=> Gamma(g)Gamma(h) = 0 <=>
        Gamma(gh)Gamma(h^-1) = 0 for every pair."""
        R = self.target
        G = self.group
        rep = ValidationReport("zero pattern equivalences")
        for g in range(G.n):
            for h in range(G.n):
                gh = G.mul(g, h)
                z1 = not R.mul(self.gamma[G.inv(g)], self.gamma[gh])
                z2 = not R.mul(self.gamma[g], self.gamma[h])
                z3 = not R.mul(self.gamma[gh], self.gamma[G.inv(h)])
                if not (z1 == z2 == z3):
                    rep.fail("zero pattern", g, h)
        return rep


def gamma_sigma(crossed):
    """The canonical representation g -> 1_g delta_g inside Lambda."""
    theta = crossed.theta
    gamma = [crossed.one_delta(g) for g in range(crossed.group.n)]
    rep_obj = PartialProjRepresentation(crossed.algebra, gamma, theta.sigma)
    report = rep_obj.validate(factor_set_property=True)
    report.merge(rep_obj.zero_pattern_equivalences())
    report.raise_if_failed(NotARepresentation)
    return rep_obj


def induced_idempotents(rep):
    """e_g = Gamma(g) Gamma(g^-1) sigma(g^-1, g)^-1 (zero when the scalar
    vanishes), with the four commutation identities verified."""
    R = rep.target
    K = R.field
    G = rep.group
    sigma = rep.sigma
    es = []
    for g in range(G.n):
        s = sigma(G.inv(g), g)
        if s == K.zero:
            es.append({})
        else:
            prod = R.mul(rep.gamma[g], rep.gamma[G.inv(g)])
            es.append(_sp_sum([(K.inv(s), prod)], R.p))
    report = ValidationReport("induced idempotents")
    for g in range(G.n):
        if R.mul(es[g], es[g]) != es[g]:
            report.fail("idempotent", g)
        for h in range(G.n):
            if R.mul(es[g], es[h]) != R.mul(es[h], es[g]):
                report.fail("commute", g, h)
            if R.mul(rep.gamma[g], es[h]) != R.mul(es[G.mul(g, h)], rep.gamma[g]):
                report.fail("left shift", g, h)
            if R.mul(es[h], rep.gamma[g]) != \
               R.mul(rep.gamma[g], es[G.mul(G.inv(g), h)]):
                report.fail("right shift", g, h)
    report.raise_if_failed(PropertyFailure)
    return es


def induced_partial_action(rep):
    """The unital partial action on the subalgebra generated by the induced
    idempotents; returns (SubalgebraResult, UnitalPartialAction in the
    subalgebra basis)."""
    R = rep.target
    K = R.field
    G = rep.group
    sigma = rep.sigma
    es = induced_idempotents(rep)
    subres = subalgebra_generated(R, es, name="B^Gamma")
    B = subres.algebra
    basis = subres.basis_vectors
    one = []
    for g in range(G.n):
        coords = subres.span.coords(es[g])
        assert coords is not None
        one.append(coords)
    thetas = []
    for g in range(G.n):
        ginv = G.inv(g)
        s = sigma(ginv, g)
        cols = []
        for bvec in basis:
            if s == K.zero:
                cols.append({})
                continue
            dom = R.mul(es[ginv], bvec)
            img = R.mul(rep.gamma[g], R.mul(dom, rep.gamma[ginv]))
            img = _sp_sum([(K.inv(s), img)], R.p)
            coords = subres.span.coords(img)
            if coords is None:
                raise PropertyFailure("theta^Gamma leaves the subalgebra")
            cols.append(coords)
        thetas.append(_sp_transpose(cols, B.dim))
    act = UnitalPartialAction(B, one, thetas)
    # the partial action axioms are validate_twisted's first step
    validate_twisted(TwistedPartialAction(act, sigma), G).raise_if_failed()
    return subres, act


def validate_covariant(pi, rep, theta, group):
    """pi: A -> R algebra hom, rep a partial sigma-representation on R;
    checks Gamma(g) pi(a) Gamma(g^-1) = sigma(g, g^-1) pi(theta_g(a)) for a
    in an ideal basis of D_{g^-1}."""
    R = rep.target
    sigma = rep.sigma
    report = ValidationReport("covariant representation")
    for g in range(group.n):
        ginv = group.inv(g)
        s = sigma(g, ginv)
        for a in theta.action.ideal_basis(ginv):
            lhs = R.mul(rep.gamma[g], R.mul(pi.apply(a), rep.gamma[ginv]))
            rhs = _sp_sum([(s, pi.apply(theta.apply_theta(g, a)))], R.p)
            if lhs != rhs:
                report.fail("covariance", g)
                break
    return report


def pi_times_gamma(pi, rep, crossed):
    """The hom Lambda -> R determined by a delta_g -> pi(a) Gamma(g)."""
    R = rep.target
    report = validate_covariant(pi, rep, crossed.theta, crossed.group)
    report.raise_if_failed(NotCovariant)
    cols = [R.mul(pi.apply(crossed.dg_bases[g][li]), rep.gamma[g])
            for (g, li) in crossed.basis_index]
    hom = AlgebraHom(crossed.algebra, R, cols, name="pi x Gamma")
    hom.verify().raise_if_failed(NotCovariant)
    return hom


def transport_by_equivalence(theta_rho, eta):
    """Replace the twist rho by its eta-transport nu and return the
    isomorphism  A *_{theta,nu} G -> A *_{theta,rho} G,
    a delta_g^nu -> eta(g) a delta_g^rho."""
    nu = eta.transport(theta_rho.sigma)
    theta_nu = TwistedPartialAction(theta_rho.action, nu)
    validate_twisted(theta_nu).raise_if_failed()
    lam_rho = build_crossed_product(theta_rho)
    lam_nu = build_crossed_product(theta_nu)
    A = theta_rho.algebra
    cols = [_sp_sum([(eta(g), lam_rho.delta(g, lam_nu.dg_bases[g][li]))],
                    A.p)
            for (g, li) in lam_nu.basis_index]
    hom = AlgebraHom(lam_nu.algebra, lam_rho.algebra, cols,
                     name="eta transport")
    hom.verify().raise_if_failed()
    if not hom.is_bijective():
        raise ValidationFailure("eta transport is not bijective")
    return theta_nu, lam_nu, lam_rho, hom


def check_ideal_splittings(theta):
    """A = D_g + (1 - 1_g)A directly, per group element (projectivity of
    each D_g as a one-sided A-module)."""
    A = theta.algebra
    K = A.field
    rep = ValidationReport("ideal splittings")
    for g in range(theta.group.n):
        comp = _sp_sum([(1, A.unit), (-1, theta.one[g])], A.p)
        span = Subspace(K, A.dim, theta.action.ideal_basis(g))
        d1 = span.dim
        comp_span = Subspace(K, A.dim, (A.mul(comp, A.basis_vector(j))
                                        for j in range(A.dim)))
        d2 = comp_span.dim
        for u in comp_span.basis():
            span.add(u)
        if d1 + d2 != A.dim or span.dim != A.dim:
            rep.fail("splitting", g, d1, d2)
    return rep
