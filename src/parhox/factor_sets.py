"""The calculus of partial factor sets of a finite group.

A partial factor set is a table sigma(g, h) of field values with zeros
allowed, in the one format that `fields` makes (over Q an int where
integral); its values enter structure constants and kernel rows as they
are.  It is validated against the support pattern of a concrete partial
action (or of a constructed twisted partial group algebra), never in the
abstract.
The derived tables sigma*, sigma' = sigma.sigma*, the rescaling xi and the
idempotent representative sigma'' are all materialized eagerly.
"""

from .errors import InvalidInput, NotNormalized
from .fields import ensure_same_field
from .algebras import ValidationReport

__all__ = [
    "PartialFactorSet", "MonoidFactorSet", "EquivalenceWitness",
    "trivial_factor_set", "product", "involution_star", "sigma_prime",
    "xi_sigma_double_prime", "normalize_inverse_pairs",
    "check_good_factor_set_identities", "validate_twist",
    "validate_monoid_factor_set", "derive_sigma_from_monoid",
    "inverse_pair_split",
]


class PartialFactorSet:
    """Table sigma: G x G -> field values, zeros allowed."""

    def __init__(self, group, field, table, name="sigma"):
        self.group = group
        self.field = field
        n = group.n
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidInput("factor set table must be n x n")
        self.table = [list(row) for row in table]
        self.name = name

    def __call__(self, g, h):
        return self.table[g][h]

    def is_zero(self, g, h):
        return self.table[g][h] == self.field.zero

    def is_idempotent(self):
        K = self.field
        return all(a == K.zero or a == K.one for row in self.table for a in row)

    def zero_pattern(self):
        K = self.field
        return [[a == K.zero for a in row] for row in self.table]

    def is_inverse_normalized(self):
        """sigma(g, g^-1) in {0, 1} for every g outside G_2."""
        K = self.field
        G = self.group
        g2 = set(G.order_two_elements())
        for g in range(G.n):
            if g in g2:
                continue
            a = self.table[g][G.inv(g)]
            if a != K.zero and a != K.one:
                return False
        return True

    def to_json(self):
        K = self.field
        return [[K.dump(a) for a in row] for row in self.table]

    @staticmethod
    def from_json(group, field, obj, name="sigma"):
        table = [[field.parse(a) for a in row] for row in obj]
        return PartialFactorSet(group, field, table, name=name)

    def __repr__(self):
        return f"PartialFactorSet({self.name}, G={self.group.name})"


class EquivalenceWitness:
    """A map eta: G -> nonzero scalars with eta(1) = 1."""

    def __init__(self, group, field, eta):
        if eta[0] != field.one:
            raise InvalidInput("eta(1) must be 1")
        if any(a == field.zero for a in eta):
            raise InvalidInput("eta takes only nonzero values")
        self.group = group
        self.field = field
        self.eta = list(eta)

    def __call__(self, g):
        return self.eta[g]

    def transport(self, sigma, name=None):
        """nu(g,h) = eta(g) eta(h) eta(gh)^-1 sigma(g,h)."""
        K = self.field
        G = self.group
        table = []
        for g in range(G.n):
            row = []
            for h in range(G.n):
                a = sigma(g, h)
                if a == K.zero:
                    row.append(K.zero)
                else:
                    gh = G.mul(g, h)
                    row.append(K.mul(K.div(K.mul(self.eta[g], self.eta[h]),
                                           self.eta[gh]), a))
            table.append(row)
        return PartialFactorSet(G, K, table, name=name or f"{sigma.name}~")

    def inverse(self):
        K = self.field
        return EquivalenceWitness(self.group, K, [K.inv(a) for a in self.eta])


def trivial_factor_set(group, field, name="1"):
    return PartialFactorSet(group, field,
                            [[field.one] * group.n for _ in range(group.n)],
                            name=name)


def product(sigma, tau):
    ensure_same_field(sigma.field, tau.field)
    if sigma.group is not tau.group and sigma.group.table != tau.group.table:
        raise InvalidInput("factor sets over different groups")
    K = sigma.field
    table = [[K.mul(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(sigma.table, tau.table)]
    return PartialFactorSet(sigma.group, K, table,
                            name=f"{sigma.name}*{tau.name}")


def involution_star(sigma):
    """sigma*(g, h) = sigma(h^-1, g^-1)."""
    G = sigma.group
    table = [[sigma(G.inv(h), G.inv(g)) for h in range(G.n)] for g in range(G.n)]
    return PartialFactorSet(G, sigma.field, table, name=f"{sigma.name}^*")


def sigma_prime(sigma):
    return product(sigma, involution_star(sigma))


def inverse_pair_split(group):
    """Split G minus G_2 minus {1} into C and C' with C' = C^-1; the
    canonical choice puts g in C iff index(g) < index(g^-1)."""
    g2 = set(group.order_two_elements())
    C, Cp = [], []
    for g in range(1, group.n):
        if g in g2:
            continue
        if g < group.inv(g):
            C.append(g)
        else:
            Cp.append(g)
    return C, Cp


def xi_sigma_double_prime(sigma):
    """The rescaling xi and the idempotent factor set sigma''.

    Requires sigma(g, g^-1) in {0, 1} off the order-two elements; apply
    normalize_inverse_pairs first if that fails.
    """
    if not sigma.is_inverse_normalized():
        raise NotNormalized(
            "sigma(g, g^-1) must lie in {0,1} off G_2; run normalize_inverse_pairs")
    G = sigma.group
    K = sigma.field
    g2 = set(G.order_two_elements())
    eta = [K.one] * G.n
    for g in g2:
        a = sigma(g, g)
        if a != K.zero:
            eta[g] = K.inv(a)
    xi = EquivalenceWitness(G, K, eta)
    sp = sigma_prime(sigma)
    sdp = xi.transport(sp, name=f"{sigma.name}''")
    for row in sdp.table:
        for a in row:
            if a != K.zero and a != K.one:
                raise InvalidInput(
                    f"sigma'' not idempotent: value {a!r}; sigma is not a "
                    "normalized partial factor set")
    star = involution_star(sdp)
    if star.table != sdp.table:
        raise InvalidInput("sigma'' is not *-symmetric")
    return xi, sdp


def normalize_inverse_pairs(sigma):
    """Equivalence-transport sigma so that sigma(g, g^-1) becomes 0 or 1,
    by scaling one of g, g^-1 per inverse pair off the order-two part G_2.
    sigma(g, g) on G_2 is left as it is, and the report fails where it is
    neither 0 nor 1.  Returns (eta, nu, report)."""
    G = sigma.group
    K = sigma.field
    rep = ValidationReport(f"normalize {sigma.name}")
    C, _ = inverse_pair_split(G)
    eta = [K.one] * G.n
    for g in C:
        a = sigma(g, G.inv(g))
        if a != K.zero:
            eta[g] = K.inv(a)
    witness = EquivalenceWitness(G, K, eta)
    nu = witness.transport(sigma, name=f"{sigma.name}_nu")
    # postcondition: on G_2 it holds only where sigma(g, g) is 0 or 1
    for g in range(G.n):
        a = nu(g, G.inv(g))
        if a != K.zero and a != K.one:
            rep.fail("inverse pair not normalized", g, a)
    return witness, nu, rep


def check_good_factor_set_identities(sigma):
    """On the nonzero support: sigma(g,h) = sigma(h^-1,g^-1)^-1 and
    sigma(g,h) = sigma(h, h^-1 g^-1).  Requires sigma(g, g^-1) in {0,1}."""
    G = sigma.group
    K = sigma.field
    rep = ValidationReport(f"good factor set {sigma.name}")
    for g in range(G.n):
        a = sigma(g, G.inv(g))
        if a != K.zero and a != K.one:
            rep.fail("precondition", g, a)
    if not rep.ok:
        return rep
    for g in range(G.n):
        for h in range(G.n):
            a = sigma(g, h)
            if a == K.zero:
                continue
            b = sigma(G.inv(h), G.inv(g))
            if b == K.zero or K.mul(a, b) != K.one:
                rep.fail("inverse identity", g, h)
            c = sigma(h, G.mul(G.inv(h), G.inv(g)))
            if a != c:
                rep.fail("shift identity", g, h)
    return rep


def validate_twist(sigma, support, triple_support):
    """Validate sigma against concrete support data.

    support[g][h] is True iff 1_g 1_{gh} != 0; triple_support[g][h][t] is
    True iff 1_g 1_{gh} 1_{ght} != 0 (it cannot be derived from `support`
    and the group, so the caller supplies it).
    """
    G = sigma.group
    K = sigma.field
    rep = ValidationReport(f"twist {sigma.name}")
    n = G.n
    for g in range(n):
        for h in range(n):
            if (sigma(g, h) == K.zero) != (not support[g][h]):
                rep.fail("support mismatch", g, h)
    for g in range(n):
        ginv = G.inv(g)
        if sigma(g, ginv) != sigma(ginv, g):
            rep.fail("inverse symmetry", g)
        if support[g][ginv]:
            if sigma(g, 0) != K.one or sigma(0, g) != K.one:
                rep.fail("unit condition", g)
    for g in range(n):
        for h in range(n):
            gh = G.mul(g, h)
            for t in range(n):
                if not triple_support[g][h][t]:
                    continue
                lhs = K.mul(sigma(g, h), sigma(gh, t))
                rhs = K.mul(sigma(g, G.mul(h, t)), sigma(h, t))
                if lhs != rhs:
                    rep.fail("partial cocycle", g, h, t)
    return rep


class MonoidFactorSet:
    """Scalar table rho on S(G) x S(G)."""

    def __init__(self, monoid, field, table, name="rho"):
        self.monoid = monoid
        self.field = field
        self.table = [list(row) for row in table]
        self.name = name

    def __call__(self, i, j):
        return self.table[i][j]


def validate_monoid_factor_set(rho):
    """The cocycle identity and rho(x,y) = 0 <=> rho(1, xy) = 0."""
    S = rho.monoid
    K = rho.field
    rep = ValidationReport(f"monoid factor set {rho.name}")
    one = S.identity
    for x in range(S.size):
        for y in range(S.size):
            xy = S.mul(x, y)
            if (rho(x, y) == K.zero) != (rho(one, xy) == K.zero):
                rep.fail("zero pattern", x, y)
    for x in range(S.size):
        for y in range(S.size):
            xy = S.mul(x, y)
            for z in range(S.size):
                lhs = K.mul(rho(x, y), rho(xy, z))
                rhs = K.mul(rho(x, S.mul(y, z)), rho(y, z))
                if lhs != rhs:
                    rep.fail("cocycle", x, y, z)
                    if len(rep.violations) > 100:
                        return rep
    return rep


def derive_sigma_from_monoid(rho):
    """Extract the group-level factor set from a monoid factor set:
    sigma(g,h) = rho([g],[h]) rho([g^-1],[g][h]) / rho([g^-1],[gh])."""
    S = rho.monoid
    G = S.group
    K = rho.field
    table = []
    for g in range(G.n):
        row = []
        for h in range(G.n):
            xg, xh = S.gen(g), S.gen(h)
            a = rho(xg, xh)
            if a == K.zero:
                row.append(K.zero)
                continue
            xginv = S.gen(G.inv(g))
            xgh = S.gen(G.mul(g, h))
            num = K.mul(a, rho(xginv, S.mul(xg, xh)))
            den = rho(xginv, xgh)
            if den == K.zero:
                raise InvalidInput(
                    f"rho([g^-1],[gh]) = 0 while rho([g],[h]) != 0 at ({g},{h})")
            row.append(K.div(num, den))
        table.append(row)
    return PartialFactorSet(G, K, table, name=f"sigma({rho.name})")
