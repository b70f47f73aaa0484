"""Exact scalar arithmetic over the rationals and over prime fields.

A field value is a plain Python value, the kernel scalar of `linalg`: over
the rationals an ``int`` where the value is integral and a
``fractions.Fraction`` otherwise, so that the common integral entries never
pay for Fraction arithmetic; over a prime field an ``int`` residue in
``[0, p)``.  This module alone decides that format: every operation of a
``Field`` returns it, and other modules pass field values on as they are.
Nothing here ever rounds.
"""

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, SchemaError

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "field_from_json",
    "ensure_same_field",
]


P_LIMIT = 1 << 64             # every prime field has p below this


def _is_prime(p):
    """Deterministic Miller-Rabin for 0 <= p < 2^64: the prime bases 2 to
    37 decide primality exactly below 3.3 * 10^24 (Sorenson and Webster,
    Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    for a in bases:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """What the two fields share: their identity, (kind, characteristic),
    which `ensure_same_field` compares.  The arithmetic (add, sub, mul,
    neg, inv, div, from_int, parse, dump, to_json) is RationalField's and
    PrimeField's."""

    kind = None
    characteristic = None

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind \
            and self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.kind, self.characteristic))


def _rational(a):
    """A rational number as a field value: an int when it is integral."""
    if type(a) is int or a.denominator != 1:
        return a
    return a.numerator


class RationalField(Field):
    kind = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return _rational(1 / Fraction(a))

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in Q")
        return _rational(Fraction(a) / b)

    def from_int(self, n):
        return n

    def parse(self, obj):
        if isinstance(obj, (str, int)):
            try:
                return _rational(Fraction(obj))
            except (ValueError, ZeroDivisionError):
                pass
        raise SchemaError(f"cannot parse rational scalar from {obj!r}")

    def dump(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def to_json(self):
        return {"kind": "Q"}

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p):
        if p >= P_LIMIT:
            raise SchemaError(f"field p must be below 2^64, got {p}")
        if not _is_prime(p):
            raise SchemaError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return n % self.p

    def parse(self, obj):
        if isinstance(obj, int):
            return obj % self.p
        if isinstance(obj, str):
            try:
                return int(obj) % self.p
            except ValueError:
                pass
        raise SchemaError(f"cannot parse F_{self.p} scalar from {obj!r}")

    def dump(self, a):
        return a % self.p

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"bad field spec: {obj!r}")
    if obj["kind"] == "Q":
        return QQ
    if obj["kind"] == "Fp":
        p = obj.get("p")
        if type(p) is not int:
            raise SchemaError(f"field p must be an integer, got {p!r}")
        return PrimeField(p)
    raise SchemaError(f"unknown field kind {obj['kind']!r}")


def ensure_same_field(*fields):
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatch(f"{first!r} vs {f!r}")
    return first
