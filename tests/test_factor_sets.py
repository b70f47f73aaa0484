from fractions import Fraction

import pytest

from parhox.errors import InvalidInput, NotNormalized
from parhox.fields import QQ, PrimeField
from parhox.factor_sets import (EquivalenceWitness, MonoidFactorSet,
                                PartialFactorSet, check_good_factor_set_identities,
                                derive_sigma_from_monoid, inverse_pair_split,
                                involution_star, normalize_inverse_pairs,
                                product, sigma_prime, trivial_factor_set,
                                validate_monoid_factor_set, validate_twist,
                                xi_sigma_double_prime)
from parhox.groups import cyclic_group, direct_product, enumerate_exel


def F(x, y=1):
    return Fraction(x, y)


def z2_twist(lam, field=QQ):
    G = cyclic_group(2)
    table = [[field.one, field.one], [field.one, lam]]
    return PartialFactorSet(G, field, table, name="lam")


def z3_partial():
    # the Z3-on-kappa^2 twist: sigma(t,t) = sigma(t^2,t^2) = 0, rest 1
    G = cyclic_group(3)
    o, z = QQ.one, QQ.zero
    table = [[o, o, o], [o, z, o], [o, o, z]]
    return PartialFactorSet(G, QQ, table, name="z3partial")


def full_support(n):
    return [[True] * n for _ in range(n)], \
           [[[True] * n for _ in range(n)] for _ in range(n)]


def z3_partial_support():
    # supports of the Z3 action on kappa^2: 1_1 = 1, 1_t = e1, 1_{t^2} = e2
    G = cyclic_group(3)
    one_nonzero = [True, True, True]
    def pair(g, h):
        # 1_g 1_{gh} != 0 iff g = 1 or gh = 1 or g = gh
        gh = G.mul(g, h)
        if g == 0 or gh == 0:
            return one_nonzero[g] and one_nonzero[gh]
        return g == gh
    def triple(g, h, t):
        gh, ght = G.mul(g, h), G.mul(g, G.mul(h, t))
        idem = [x for x in (g, gh, ght) if x != 0]
        return len(set(idem)) <= 1
    sup = [[pair(g, h) for h in range(3)] for g in range(3)]
    tsup = [[[triple(g, h, t) for t in range(3)] for h in range(3)] for g in range(3)]
    return sup, tsup


def test_validate_twist_trivial():
    G = cyclic_group(3)
    sup, tsup = full_support(3)
    rep = validate_twist(trivial_factor_set(G, QQ), sup, tsup)
    assert rep.ok


def test_validate_twist_z2_any_lambda():
    sup, tsup = full_support(2)
    for lam in (F(1), F(2), F(1, 3), F(-5)):
        assert validate_twist(z2_twist(lam), sup, tsup).ok


def test_validate_twist_z3_partial():
    sigma = z3_partial()
    sup, tsup = z3_partial_support()
    assert validate_twist(sigma, sup, tsup).ok
    # breaking one value breaks the support match
    bad = PartialFactorSet(sigma.group, QQ,
                           [row[:] for row in sigma.table])
    bad.table[1][1] = F(5)
    assert not validate_twist(bad, sup, tsup).ok


def test_product_and_star():
    sigma = z2_twist(F(3))
    assert product(sigma, trivial_factor_set(sigma.group, QQ)).table == sigma.table
    star = involution_star(sigma)
    assert star.table[1][1] == F(3)          # t is self-inverse
    assert involution_star(star).table == sigma.table
    sp = sigma_prime(sigma)
    assert sp.table[1][1] == F(9)
    assert involution_star(sp).table == sp.table       # sigma' is *-symmetric
    triv = trivial_factor_set(sigma.group, QQ)
    assert involution_star(triv).table == triv.table


def test_xi_sigma_double_prime_z2():
    sigma = z2_twist(F(5))
    xi, sdp = xi_sigma_double_prime(sigma)
    assert xi(1) == F(1, 5)
    assert sdp.table[1][1] == QQ.one
    assert sdp.is_idempotent()
    assert involution_star(sdp).table == sdp.table
    assert product(sdp, sdp).table == sdp.table


def test_xi_sigma_double_prime_z3():
    sigma = z3_partial()
    xi, sdp = xi_sigma_double_prime(sigma)
    # no order-2 elements: xi = 1 and sigma'' = sigma'
    assert xi.eta == [QQ.one] * 3
    assert sdp.table == sigma_prime(sigma).table
    assert sdp.table[1][1] == QQ.zero
    assert sdp.table[1][2] == QQ.one


def test_xi_inverse_invariance():
    for sigma in (z2_twist(F(7)), z3_partial(),
                  trivial_factor_set(direct_product(cyclic_group(2),
                                                    cyclic_group(2)), QQ)):
        xi, _ = xi_sigma_double_prime(sigma)
        G = sigma.group
        for g in range(G.n):
            assert xi(g) == xi(G.inv(g))


def test_normalize_inverse_pairs_z3():
    G = cyclic_group(3)
    o = QQ.one
    table = [[o, o, o], [o, QQ.zero, F(4)], [o, F(4), QQ.zero]]
    sigma = PartialFactorSet(G, QQ, table)
    assert not sigma.is_inverse_normalized()
    with pytest.raises(NotNormalized):
        xi_sigma_double_prime(sigma)
    eta, nu, rep = normalize_inverse_pairs(sigma)
    assert rep.ok
    assert eta(1) == F(1, 4) and eta(2) == QQ.one     # C = {t}
    assert nu(1, 2) == QQ.one and nu(2, 1) == QQ.one
    # zero pattern preserved
    assert nu.zero_pattern() == sigma.zero_pattern()


def test_normalize_inverse_pairs_leaves_order_two_elements():
    # sigma(t, t) on G_2 is not rescaled (xi absorbs it), so a value other
    # than 0 or 1 there stays and fails the postcondition
    sigma = z2_twist(2, field=PrimeField(5))
    eta, nu, rep = normalize_inverse_pairs(sigma)
    assert eta.eta == [1, 1]
    assert nu(1, 1) == 2
    assert rep.violations == [("inverse pair not normalized", 1, 2)]


def test_normalized_already():
    sigma = z3_partial()
    eta, nu, rep = normalize_inverse_pairs(sigma)
    assert rep.ok
    assert eta.eta == [QQ.one] * 3
    assert nu.table == sigma.table


def test_good_factor_set_identities():
    _, sdp = xi_sigma_double_prime(z2_twist(F(5)))
    assert check_good_factor_set_identities(sdp).ok
    G = cyclic_group(3)
    assert check_good_factor_set_identities(trivial_factor_set(G, QQ)).ok
    _, sdp3 = xi_sigma_double_prime(z3_partial())
    assert check_good_factor_set_identities(sdp3).ok
    # crafted violation: change one off-diagonal value
    bad = PartialFactorSet(G, QQ, [[QQ.one] * 3 for _ in range(3)])
    bad.table[1][1] = F(2)
    rep = check_good_factor_set_identities(bad)
    assert not rep.ok
    assert any(v[0] == "inverse identity" for v in rep.violations)


def test_inverse_pair_split():
    G = cyclic_group(5)
    C, Cp = inverse_pair_split(G)
    assert sorted(C + Cp) == [1, 2, 3, 4]
    assert all(G.inv(g) in Cp for g in C)


def test_monoid_factor_set_trivial():
    S = enumerate_exel(cyclic_group(2))
    table = [[QQ.one] * S.size for _ in range(S.size)]
    rho = MonoidFactorSet(S, QQ, table)
    assert validate_monoid_factor_set(rho).ok
    sigma = derive_sigma_from_monoid(rho)
    assert sigma.table == trivial_factor_set(S.group, QQ).table


def test_monoid_factor_set_violations():
    S = enumerate_exel(cyclic_group(2))
    table = [[QQ.one] * S.size for _ in range(S.size)]
    table[1][1] = QQ.zero                    # zero with rho(1, x) != 0
    rho = MonoidFactorSet(S, QQ, table)
    rep = validate_monoid_factor_set(rho)
    assert not rep.ok
    assert any(v[0] == "zero pattern" for v in rep.violations)
    table2 = [[QQ.one] * S.size for _ in range(S.size)]
    table2[1][2] = F(3)                      # breaks only the cocycle
    rep2 = validate_monoid_factor_set(MonoidFactorSet(S, QQ, table2))
    assert any(v[0] == "cocycle" for v in rep2.violations)


def test_equivalence_witness_guards():
    G = cyclic_group(2)
    with pytest.raises(InvalidInput):
        EquivalenceWitness(G, QQ, [F(2), F(1)])
    with pytest.raises(InvalidInput):
        EquivalenceWitness(G, QQ, [F(1), F(0)])
