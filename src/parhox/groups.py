"""Finite groups as Cayley tables and the Exel inverse monoid S(G).

Elements of S(G) are kept in Birget-Rhodes normal form: pairs ``(A, g)``
with ``{1, g} <= A <= G``, multiplied by ``(A, g)(B, h) = (A | g.B, g.h)``.
Subsets A are bitmasks over the group element indices.  The group identity
is always element index 0.
"""

from .errors import InvalidInput, SchemaError, SizeLimit

__all__ = [
    "FiniteGroup", "ExelMonoid", "enumerate_exel", "word_to_exel",
    "exel_size_closed_form", "cyclic_group", "direct_product",
    "symmetric_group",
]


class FiniteGroup:
    def __init__(self, cayley, name=None):
        self.n = len(cayley)
        self.table = [list(row) for row in cayley]
        self.name = name or f"group{self.n}"
        self._validate()
        self.inverse = [0] * self.n
        for g in range(self.n):
            for h in range(self.n):
                if self.table[g][h] == 0:
                    self.inverse[g] = h
                    break
            else:
                raise InvalidInput(f"element {g} has no inverse")

    def _validate(self):
        n = self.n
        if not n:
            raise SchemaError("Cayley table is empty: a group has an "
                              "identity element")
        rng = range(n)
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InvalidInput("Cayley table is not square over valid indices")
        for g in rng:
            if self.table[0][g] != g or self.table[g][0] != g:
                raise InvalidInput("identity must be element index 0")
        for a in rng:
            for b in rng:
                ab = self.table[a][b]
                for c in rng:
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput(f"associativity fails at ({a},{b},{c})")

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.inverse[g]

    def order_two_elements(self):
        """Indices g != 1 with g*g = 1."""
        return [g for g in range(1, self.n) if self.table[g][g] == 0]

    def translate_mask(self, g, mask):
        """The subset g.A as a bitmask."""
        out = 0
        t = self.table[g]
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << t[i]
            mask >>= 1
            i += 1
        return out

    def to_json(self):
        return {"name": self.name, "order": self.n, "cayley": self.table}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise SchemaError("group spec must be an object")
        if "cayley" in obj:
            g = FiniteGroup(obj["cayley"], name=obj.get("name"))
            if "order" in obj and obj["order"] != g.n:
                raise SchemaError("declared order does not match the table")
            return g
        if "perm_generators" in obj:
            return group_from_permutations(obj["perm_generators"], name=obj.get("name"))
        raise SchemaError("group spec needs 'cayley' or 'perm_generators'")

    def __repr__(self):
        return f"FiniteGroup({self.name}, n={self.n})"


def group_from_permutations(gens, name=None):
    """Expand permutation generators (lists over 0..k-1) to a Cayley table."""
    if not gens:
        raise SchemaError("need at least one permutation generator")
    k = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(k)):
            raise SchemaError(f"not a permutation of 0..{k - 1}: {p}")
    ident = tuple(range(k))
    elems = [ident]
    seen = {ident: 0}
    frontier = [ident]
    while frontier:
        new = []
        for q in frontier:
            for p in gens:
                r = tuple(p[q[i]] for i in range(k))
                if r not in seen:
                    seen[r] = len(elems)
                    elems.append(r)
                    new.append(r)
        frontier = new
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i][j] = seen[tuple(a[b[t]] for t in range(k))]
    return FiniteGroup(table, name=name)


def cyclic_group(n, name=None):
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       name=name or f"Z{n}")


def direct_product(G, H, name=None):
    n, m = G.n, H.n
    def idx(g, h):
        return g * m + h
    table = [[0] * (n * m) for _ in range(n * m)]
    for g1 in range(n):
        for h1 in range(m):
            for g2 in range(n):
                for h2 in range(m):
                    table[idx(g1, h1)][idx(g2, h2)] = idx(G.mul(g1, g2), H.mul(h1, h2))
    return FiniteGroup(table, name=name or f"{G.name}x{H.name}")


def symmetric_group(k, name=None):
    if k < 1:
        raise InvalidInput("k >= 1")
    if k == 1:
        return cyclic_group(1, name=name or "S1")
    cycle = list(range(1, k)) + [0]
    swap = [1, 0] + list(range(2, k))
    return group_from_permutations([cycle, swap], name=name or f"S{k}")


def exel_size_closed_form(n):
    """|S(G)| for |G| = n."""
    if n == 1:
        return 1
    return (n - 1) * 2 ** (n - 2) + 2 ** (n - 1)


class ExelMonoid:
    """S(G) with a full multiplication table and the involution x -> x*."""

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements                      # list of (mask, g)
        self.index = {x: i for i, x in enumerate(elements)}
        self.size = len(elements)
        self.identity = self.index[(1, 0)]
        # g.B for every distinct mask B, translated once per g
        masks = {B for B, _ in elements}
        moved = [{B: group.translate_mask(g, B) for B in masks}
                 for g in range(group.n)]
        # the products are looked up by the int A * n + g, cheaper to hash
        # than the pair (A, g)
        n = group.n
        key = {A * n + g: i for i, (A, g) in enumerate(elements)}
        self.mul_table = []
        for A, g in elements:
            moved_g, mul_g = moved[g], group.table[g]
            self.mul_table.append([key[(A | moved_g[B]) * n + mul_g[h]]
                                   for B, h in elements])
        self.star = [self.index[(moved[group.inv(g)][A], group.inv(g))]
                     for (A, g) in elements]
        self.idempotents = [i for i, (A, g) in enumerate(elements) if g == 0]

    def mul(self, i, j):
        return self.mul_table[i][j]

    def gen(self, g):
        """Index of [g] = ({1, g}, g)."""
        return self.index[((1 | (1 << g)), g)]

    def e(self, g):
        """Index of the idempotent e_g = ({1, g}, 1)."""
        return self.index[((1 | (1 << g)), 0)]

    def idempotent_of_mask(self, mask):
        return self.index[(mask | 1, 0)]

    def mask_elements(self, mask):
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return out

    def label(self, i):
        A, g = self.elements[i]
        return f"({{{','.join(map(str, self.mask_elements(A)))}}},{g})"


def enumerate_exel(G, size_limit=100_000):
    expected = exel_size_closed_form(G.n)
    if expected > size_limit:
        raise SizeLimit(f"|S(G)| = {expected} exceeds limit {size_limit}")
    n = G.n
    elements = []
    for g in range(n):
        base = 1 | (1 << g)
        rest = [i for i in range(n) if not (base >> i) & 1]
        for sub in range(1 << len(rest)):
            mask = base
            for b, i in enumerate(rest):
                if (sub >> b) & 1:
                    mask |= 1 << i
            elements.append((mask, g))
    elements.sort(key=lambda ag: (bin(ag[0]).count("1"), ag[0], ag[1]))
    assert len(elements) == expected
    return ExelMonoid(G, elements)


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
