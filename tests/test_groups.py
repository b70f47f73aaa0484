import pytest

from conftest import word_to_exel
from parhox.errors import InvalidInput, SizeLimit
from parhox.groups import (FiniteGroup, cyclic_group, direct_product,
                           enumerate_exel, exel_size_closed_form,
                           symmetric_group)


def test_group_validation():
    Z2 = cyclic_group(2)
    assert Z2.mul(1, 1) == 0
    assert Z2.inv(1) == 1
    with pytest.raises(InvalidInput):
        FiniteGroup([[1, 0], [0, 1]])          # identity not at index 0
    with pytest.raises(InvalidInput):
        FiniteGroup([[0, 1], [1, 1]])          # not a group


def test_symmetric_group():
    S3 = symmetric_group(3)
    assert S3.n == 6
    assert sorted(S3.order_two_elements()).__len__() == 3
    # loading from permutation generators round-trips through JSON
    g = FiniteGroup.from_json({"perm_generators": [[1, 2, 0], [1, 0, 2]],
                               "name": "S3"})
    assert g.n == 6


def test_exel_sizes():
    for G, expected in [(cyclic_group(2), 3), (cyclic_group(3), 8),
                        (direct_product(cyclic_group(2), cyclic_group(2)), 20),
                        (symmetric_group(3), 112)]:
        S = enumerate_exel(G)
        assert S.size == expected == exel_size_closed_form(G.n)


def test_exel_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_exel(symmetric_group(3), size_limit=100)


def test_exel_product_example():
    # ({1,t},t) . ({1,t},t) = ({1,t},1) in S(Z2)
    Z2 = cyclic_group(2)
    S = enumerate_exel(Z2)
    t = S.gen(1)
    sq = S.mul(t, t)
    assert S.elements[sq] == (0b11, 0)


def test_exel_monoid_laws():
    # exhaustive associativity for |S(G)| <= 200 and the inverse-monoid law
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              direct_product(cyclic_group(2), cyclic_group(2)),
              symmetric_group(3)):
        S = enumerate_exel(G)
        assert S.size <= 200
        mt = S.mul_table
        rng = range(S.size)
        # the tables against the normal-form rule, one product at a time
        for i, (A, g) in enumerate(S.elements):
            gi = G.inv(g)
            assert S.star[i] == S.index[(G.translate_mask(gi, A), gi)]
            for j, (B, h) in enumerate(S.elements):
                assert mt[i][j] == S.index[(A | G.translate_mask(g, B),
                                            G.mul(g, h))]
        for i in rng:
            row_i = mt[i]
            for j in rng:
                mt_ij = mt[i][j]
                row_ij = mt[mt_ij]
                row_j = mt[j]
                for k in rng:
                    assert row_ij[k] == row_i[row_j[k]]
        for x in rng:
            xs = S.star[x]
            assert mt[mt[x][xs]][x] == x


def test_exel_idempotents():
    S = enumerate_exel(cyclic_group(3))
    idem = set(S.idempotents)
    for i in range(S.size):
        A, g = S.elements[i]
        assert (S.mul(i, i) == i) == (g == 0)
    for i in idem:
        for j in idem:
            assert S.mul(i, j) == S.mul(j, i)


def test_word_to_exel():
    Z2 = cyclic_group(2)
    S = enumerate_exel(Z2)
    assert word_to_exel(S, [("g", 1), ("g", 1)]) == (0b11, 0)     # [t][t] = e_t
    assert word_to_exel(S, []) == (0b01, 0)                       # empty word
    Z3 = cyclic_group(3)
    S3m = enumerate_exel(Z3)
    # e_h . [g] = ({1,h,g}, g): pair product oracle
    got = word_to_exel(S3m, [("e", 2), ("g", 1)])
    assert got == (0b111, 1)


def test_translate_mask():
    Z3 = cyclic_group(3)
    assert Z3.translate_mask(1, 0b011) == 0b110   # t.{1,t} = {t,t^2}
    assert Z3.translate_mask(2, 0b010) == 0b001   # t^2 . {t} = {1}
