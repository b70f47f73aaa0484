from fractions import Fraction
from random import Random

import pytest

from parhox.algebras import enveloping
from parhox.errors import DivisionByZero, FieldMismatch, SchemaError
from parhox.factor_sets import PartialFactorSet
from parhox.fields import (QQ, PrimeField, _is_prime, ensure_same_field,
                           field_from_json)
from parhox.groups import cyclic_group
from parhox.partial_actions import build_crossed_product
from parhox.partial_algebras import build_kpar_sigma, phi_psi_crossed_iso


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == QQ.one
    assert QQ.inv(Fraction(-5, 7)) == Fraction(-7, 5)
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.one, QQ.zero)


def test_prime_field_basics():
    F7 = PrimeField(7)
    assert F7.inv(3) == 5          # 3 * 5 = 15 = 1 mod 7
    assert F7.mul(3, F7.inv(3)) == 1
    assert F7.add(5, 4) == 2
    assert F7.neg(0) == 0
    with pytest.raises(DivisionByZero):
        F7.inv(0)
    with pytest.raises(SchemaError):
        PrimeField(4)
    with pytest.raises(SchemaError):
        PrimeField(1)


def test_primality_is_miller_rabin_below_2_64():
    # against trial division below 5000, then a Mersenne prime, the
    # Carmichael number 561 and the strong pseudoprime to the bases 2, 3,
    # 5 and 7, 3 215 031 751 = 151 * 751 * 28351
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if trial(n)]
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(561)
    assert not _is_prime(3215031751)
    assert PrimeField(2 ** 61 - 1).inv(2) == 2 ** 60
    with pytest.raises(SchemaError, match="561 is not prime"):
        PrimeField(561)
    for p in (10 ** 30 + 57, 2 ** 64, 2 ** 89 - 1):
        with pytest.raises(SchemaError, match="below 2\\^64"):
            field_from_json({"kind": "Fp", "p": p})


def test_field_axioms_exhaustive_small():
    for p in (2, 3):
        F = PrimeField(p)
        els = list(range(p))
        for a in els:
            for b in els:
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in els:
            if a != 0:
                assert F.mul(a, F.inv(a)) == F.one


def test_field_axioms_random_rationals():
    rng = Random(7)
    for _ in range(200):
        a = Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
        b = Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
        c = Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
        assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        if a != 0:
            assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_json_round_trip():
    assert field_from_json({"kind": "Q"}) is QQ
    F7 = field_from_json({"kind": "Fp", "p": 7})
    assert F7.p == 7
    assert QQ.parse(QQ.dump(Fraction(-3, 7))) == Fraction(-3, 7)
    assert QQ.dump(Fraction(5)) == "5"
    assert F7.parse(F7.dump(6)) == 6
    with pytest.raises(SchemaError):
        field_from_json({"kind": "R"})
    with pytest.raises(SchemaError):
        field_from_json({"kind": "Fp", "p": 6})


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        ensure_same_field(QQ, PrimeField(5))
    assert ensure_same_field(PrimeField(5), PrimeField(5)).p == 5


def test_rational_values_are_ints_where_integral():
    # one scalar format over Q: an int where the value is integral, a
    # Fraction otherwise, from parsing, from field arithmetic and in every
    # structure constant, also where Fraction arithmetic computed it
    assert type(QQ.parse("2")) is int and type(QQ.parse("4/2")) is int
    inv = QQ.inv(3)
    assert type(inv) is Fraction and inv == Fraction(1, 3)
    assert type(QQ.div(1, 3)) is Fraction and type(QQ.mul(inv, 3)) is int
    # a coboundary twist of Z3 with f = (1, 1/2, 3): sigma(2, 2) = 18
    G = cyclic_group(3)
    f = [QQ.one, QQ.parse("1/2"), QQ.parse("3")]
    sigma = PartialFactorSet(G, QQ, [
        [QQ.div(QQ.mul(f[g], f[h]), f[G.mul(g, h)]) for h in range(3)]
        for g in range(3)], name="df")
    assert type(sigma(2, 2)) is int and type(sigma(1, 1)) is Fraction
    ks = build_kpar_sigma(sigma)
    lam = build_crossed_product(phi_psi_crossed_iso(ks)[0].theta)
    for A in (ks.algebra, enveloping(ks.algebra), lam.algebra):
        values = [c for row in A.sc.values() for _, c in row]
        assert any(type(c) is Fraction for c in values), A.name
        assert all(type(c) is int or c.denominator != 1 for c in values), \
            A.name
