"""Exact scalar arithmetic over the rationals and over prime fields.

Field elements are plain Python values (``fractions.Fraction`` for the
rationals, ``int`` residues in ``[0, p)`` for a prime field); a ``Field``
object supplies the operations.  Nothing here ever rounds.
"""

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, FieldMismatch, SchemaError

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "field_from_json",
    "ensure_same_field",
]


def _is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface; see RationalField and PrimeField."""

    kind = None
    characteristic = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n):
        raise NotImplementedError

    def sqrt(self, a):
        """A deterministic square root of ``a`` in the field, or None."""
        raise NotImplementedError

    def parse(self, obj):
        raise NotImplementedError

    def dump(self, a):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind \
            and self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.kind, self.characteristic))


class RationalField(Field):
    kind = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in Q")
        return a / b

    def from_int(self, n):
        return Fraction(n)

    def sqrt(self, a):
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    def parse(self, obj):
        if isinstance(obj, (str, int)):
            try:
                return Fraction(obj)
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

    def sqrt(self, a):
        # Tonelli-Shanks with the smallest quadratic non-residue as the
        # auxiliary element; ties broken by returning min(x, p - x).
        p = self.p
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            x = pow(a, (p + 1) // 4, p)
            return min(x, p - x)
        # write p - 1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = (t2 * t2) % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, (b * b) % p
            t, x = (t * c) % p, (x * b) % p
        return min(x, p - x)

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
