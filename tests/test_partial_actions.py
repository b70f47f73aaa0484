import os
from fractions import Fraction

import pytest

from conftest import (hom_from_matrix, hom_matrix, matrix_algebra,
                      product_field_algebra, z2_dual_numbers, z2_global_twist,
                      z2_universal, z2xz2_partial_idempotent,
                      z3_kappa2_action)
from parhox.errors import NotCovariant, ValidationFailure
from parhox.fields import QQ, PrimeField
from parhox.algebras import AlgebraHom
from parhox.factor_sets import (EquivalenceWitness, PartialFactorSet,
                                trivial_factor_set)
from parhox.groups import cyclic_group
from parhox.instance import Instance
from parhox.problems import (build_instance, bundled_fixtures,
                             load_fixture, parse_spec_file)
from parhox.linalg import (Subspace, _char, _sp_identity, _sp_matmul,
                           _sp_sum)
from parhox.partial_actions import (PartialProjRepresentation,
                                    TwistedPartialAction, UnitalPartialAction,
                                    build_crossed_product, gamma_sigma,
                                    induced_idempotents,
                                    induced_partial_action, pi_times_gamma,
                                    transport_by_equivalence,
                                    validate_covariant,
                                    validate_partial_action, validate_twisted)


def F(x, y=1):
    return Fraction(x, y)


def test_validate_z3_kappa2():
    G, theta = z3_kappa2_action()
    assert validate_partial_action(theta.action, G).ok
    assert validate_twisted(theta, G).ok


def test_validate_global_twist():
    for lam in (F(1), F(2), F(1, 3)):
        G, theta = z2_global_twist(lam)
        assert validate_twisted(theta, G).ok


def test_validate_catches_broken_theta():
    G, theta = z3_kappa2_action()
    bad = [m for m in theta.action.theta]
    bad[1] = [{0: 1, 1: 1}, {}]   # not supported on D_{t^2}
    act = UnitalPartialAction(theta.algebra, theta.action.one, bad)
    rep = validate_partial_action(act, G)
    assert not rep.ok


def broken_actions():
    """Partial actions with failing axioms, each with the violations that
    validate_partial_action reports for it, in order."""
    G, theta = z3_kappa2_action()
    A, one, good = theta.algebra, theta.action.one, theta.action.theta
    yield G, UnitalPartialAction(A, one, [good[0], [{0: 1, 1: 1}, {}],
                                          good[2]]), [
        ("theta_g not supported on D_{g^-1}", 1, 0)]
    yield G, UnitalPartialAction(A, one, [good[0], good[1], [{}, {0: 2}]]), [
        ("composition", 1, 2), ("theta_g not multiplicative", 2),
        ("unity transport", 2, 0), ("unity transport", 2, 1),
        ("composition", 2, 1)]
    G4, theta4 = z2xz2_partial_idempotent()
    bad = list(theta4.action.theta)
    bad[1] = [{1: 1}, {}]
    yield G4, UnitalPartialAction(theta4.algebra, theta4.action.one, bad), [
        ("theta_g not supported on D_{g^-1}", 1, 1),
        ("theta_g not an isomorphism onto D_g", 1),
        ("unity transport", 1, 0), ("ideal image", 1, 0),
        ("unity transport", 1, 1), ("ideal image", 1, 1),
        ("composition", 1, 1)]
    # Z2 on M_2(Q) with 1_t = E_11, which commutes with E_11 and E_22 but
    # not with E_12 and E_21
    M2 = matrix_algebra(QQ, 2)
    yield cyclic_group(2), UnitalPartialAction(
        M2, [M2.unit, {0: 1}], [_sp_identity(4), [{0: 1}, {}, {}, {}]]), [
        ("1_g not central", 1, 1), ("1_g not central", 1, 2),
        ("theta_g not an isomorphism onto D_g", 1),
        ("ideal image", 1, 0), ("ideal image", 1, 1), ("composition", 1, 1)]


def test_validate_reports_every_violation_in_order():
    # centrality is decided over the generators and theta_g of each basis
    # element is formed once; the violations are still those of the full
    # sweeps, in order
    for G, action, want in broken_actions():
        assert validate_partial_action(action, G).violations == want


def test_crossed_product_z3_kappa2():
    G, theta = z3_kappa2_action()
    lam = build_crossed_product(theta)
    assert lam.dim == 4
    t1 = lam.one_delta(1)
    t2 = lam.one_delta(2)
    assert lam.algebra.mul(t1, t1) == {}                   # sigma(t,t) = 0
    prod = lam.algebra.mul(t1, t2)
    assert prod == lam.embed_a({0: 1})                     # 1_t delta_1


def test_crossed_product_trivial_group():
    G = cyclic_group(1)
    A = product_field_algebra(QQ, 2)
    theta = TwistedPartialAction(
        UnitalPartialAction(A, [A.unit], [_sp_identity(2)]),
        trivial_factor_set(G, QQ))
    lam = build_crossed_product(theta)
    assert lam.dim == A.dim
    assert lam.algebra.sc == A.sc


def test_crossed_product_global_twist():
    G, theta = z2_global_twist(F(5))
    lam = build_crossed_product(theta)
    assert lam.dim == 2
    t = lam.one_delta(1)
    assert lam.algebra.mul(t, t) == lam.embed_a({0: 5})    # (1 d_t)^2 = lam d_1


def test_crossed_product_invalid_input_fails():
    # sigma(1, t) != 1 breaks w_{1,t} = 1_t, the unit axiom of the twisted
    # partial action; the crossed product's gate rejects it
    G, theta = z2_universal(F(2))
    theta.sigma.table[0][1] = F(3)
    with pytest.raises(ValidationFailure, match="unit condition"):
        build_crossed_product(theta)


def test_gamma_sigma_properties():
    for G, theta in (z3_kappa2_action(), z2_global_twist(F(2)),
                     z2_universal(F(3)), z2xz2_partial_idempotent()):
        lam = build_crossed_product(theta)
        rep = gamma_sigma(lam)
        assert rep.gamma[0] == lam.algebra.unit
        # Gamma(g)Gamma(h) = sigma(g,h) 1_g 1_{gh} delta_{gh}
        A = theta.algebra
        K = A.field
        for g in range(G.n):
            for h in range(G.n):
                lhs = lam.algebra.mul(rep.gamma[g], rep.gamma[h])
                gh = G.mul(g, h)
                s = theta.sigma(g, h)
                w = A.mul(theta.one[g], theta.one[gh])
                rhs = lam.delta(gh, _sp_sum([(s, w)], _char(K)))
                assert lhs == rhs


def test_induced_idempotents_are_one_g():
    G, theta = z3_kappa2_action()
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    es = induced_idempotents(rep)
    assert es[0] == lam.algebra.unit
    for g in range(G.n):
        assert es[g] == lam.embed_a(theta.one[g])          # e_g = 1_g delta_1


def test_induced_idempotent_zero_case():
    G, theta = z2xz2_partial_idempotent()
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    es = induced_idempotents(rep)
    assert es[3] == {}                                     # sigma(c, c) = 0


def test_induced_partial_action_trivial_rep():
    # Gamma(g) = 1 for all g with trivial sigma: B = kappa, theta trivial
    G = cyclic_group(2)
    A = product_field_algebra(QQ, 1)
    rep = PartialProjRepresentation(A, [A.unit, A.unit],
                                    trivial_factor_set(G, QQ))
    assert rep.validate(factor_set_property=True).ok
    subres, act = induced_partial_action(rep)
    assert subres.algebra.dim == 1


def test_induced_partial_action_z2_universal():
    G, theta = z2_universal()
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    subres, act = induced_partial_action(rep)
    assert subres.algebra.dim == 2                         # span{1, e_t}
    assert validate_partial_action(act, G).ok


def test_induced_partial_action_z3():
    G, theta = z3_kappa2_action()
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    subres, act = induced_partial_action(rep)
    assert subres.algebra.dim == 2                         # ~A = kappa^2


def test_covariance_and_pi_times_gamma():
    G, theta = z2_universal(F(2))
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    B = theta.algebra
    pi = AlgebraHom(B, lam.algebra,
                    [lam.embed_a(B.basis_vector(i)) for i in range(B.dim)],
                    name="embed")
    assert pi.verify().ok
    assert validate_covariant(pi, rep, theta, G).ok
    hom = pi_times_gamma(pi, rep, lam)
    assert hom.verify().ok
    # perturbing pi breaks covariance with a witness
    bad_matrix = hom_matrix(pi)
    bad_matrix[0][1] = F(7)
    bad = hom_from_matrix(B, lam.algebra, bad_matrix)
    assert not validate_covariant(bad, rep, theta, G).ok
    with pytest.raises(NotCovariant):
        pi_times_gamma(bad, rep, lam)


def test_global_case_reduces_to_classical():
    G, theta = z2_global_twist(F(1))
    lam = build_crossed_product(theta)
    rep = gamma_sigma(lam)
    A = theta.algebra
    pi = AlgebraHom(A, lam.algebra, [lam.embed_a(A.unit)], name="unit embed")
    assert validate_covariant(pi, rep, theta, G).ok


def test_transport_by_equivalence():
    F7 = PrimeField(7)
    G, theta = z2_universal(4, field=F7)
    eta = EquivalenceWitness(G, F7, [1, 4])     # eta(t) = sqrt(4)^-1 = 4
    theta_nu, lam_nu, lam_rho, hom = transport_by_equivalence(theta, eta)
    assert theta_nu.sigma(1, 1) == 1
    assert hom.verify().ok and hom.is_bijective()
    # inverse transport composes to the identity
    _, _, _, hom_back = transport_by_equivalence(theta_nu, eta.inverse())
    assert hom_back.verify().ok
    # the images of hom o hom_back; both transports land in algebras with
    # identical bases, so it must be a diagonal of eta(g)eta(g)^-1 = 1
    comp = _sp_matmul(hom_back.images, hom.images, F7.characteristic)
    assert comp == _sp_identity(lam_nu.dim)


def test_transport_trivial_eta_is_identity():
    G, theta = z2_universal(F(3))
    eta = EquivalenceWitness(G, QQ, [QQ.one, QQ.one])
    _, lam_nu, lam_rho, hom = transport_by_equivalence(theta, eta)
    assert hom.images == _sp_identity(lam_nu.dim)


def test_ideal_splittings_hold_on_the_fixture_actions():
    # A = 1_g A + (1 - 1_g) A, a direct sum, for every g: what
    # validate_partial_action's "1_g not idempotent" gate decides
    for G, theta in (z3_kappa2_action(), z2_universal(), z2_dual_numbers(),
                     z2xz2_partial_idempotent()):
        A = theta.algebra
        assert validate_twisted(theta, G).ok
        for g in range(G.n):
            rest = _sp_sum([(1, A.unit), (-1, theta.one[g])], A.p)
            ideal = Subspace(A.field, A.dim, theta.action.ideal_basis(g))
            other = Subspace(A.field, A.dim, (A.mul(rest, A.basis_vector(j))
                                              for j in range(A.dim)))
            both = Subspace(A.field, A.dim, ideal.basis() + other.basis())
            assert ideal.dim + other.dim == both.dim == A.dim


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_validate_rejects_a_non_idempotent_one_g(field):
    # 1_t = 2 e1 squares to 4 e1 != 2 e1; an Instance given this action
    # stops at the gate
    G, theta = z3_kappa2_action(field)
    one = list(theta.action.one)
    one[1] = {0: 2}
    act = UnitalPartialAction(theta.algebra, one, theta.action.theta)
    assert validate_partial_action(act, G).violations[0] == (
        "1_g not idempotent", 1)
    with pytest.raises(ValidationFailure, match="1_g not idempotent"):
        Instance("bad", field, G,
                 theta=TwistedPartialAction(act, theta.sigma))


def test_zero_pattern_equivalences():
    for G, theta in (z3_kappa2_action(), z2xz2_partial_idempotent()):
        lam = build_crossed_product(theta)
        rep = gamma_sigma(lam)
        assert rep.zero_pattern_equivalences().ok


def single_entry_changes(theta):
    """Copies of the twisted partial action theta with one entry of sigma,
    of a theta_g or of a 1_g set to another of 0, 1, -1, 2, once per entry
    and value."""
    A, G, K = theta.algebra, theta.group, theta.algebra.field
    n, d = G.n, A.dim
    p = _char(K)
    for kind, g, r, c in ([("sigma", g, None, h) for g in range(n)
                           for h in range(n)]
                          + [("theta", g, r, c) for g in range(n)
                             for r in range(d) for c in range(d)]
                          + [("one", g, None, c) for g in range(n)
                             for c in range(d)]):
        if kind == "sigma":
            old = theta.sigma(g, c)
        elif kind == "theta":
            old = theta.action.theta[g][r].get(c, 0)
        else:
            old = theta.action.one[g].get(c, 0)
        for x in sorted({x % p if p else x for x in (0, 1, -1, 2)} - {old}):
            table = [list(row) for row in theta.sigma.table]
            thetas = [[dict(row) for row in m] for m in theta.action.theta]
            ones = [dict(v) for v in theta.action.one]
            value = K.parse(str(x))
            if kind == "sigma":
                table[g][c] = value
            else:
                row = thetas[g][r] if kind == "theta" else ones[g]
                row.pop(c, None)
                if value:
                    row[c] = value
            yield TwistedPartialAction(UnitalPartialAction(A, ones, thetas),
                                       PartialFactorSet(G, K, table))


def test_single_entry_changes_of_the_fixture_actions():
    # the crossed product runs no associativity sweep: its gate
    # `validate_twisted` decides the axioms that make it associative
    # (Dokuchaev-Exel-Simon).  On every single-entry change of the action
    # of every bundled fixture (B^sigma's for the universal ones) and of
    # the M_2(Q) problem, `validate` stays the reference: Lambda associates
    # when the gate passes, and the build raises the gate's own failure
    # otherwise
    specs = [load_fixture(name) for name in bundled_fixtures()]
    specs.append(parse_spec_file(os.path.join(os.path.dirname(__file__),
                                              "data", "m2_z2_q.json")))
    counts = [0, 0]
    for spec in specs:
        for theta in single_entry_changes(build_instance(spec).theta):
            rep = validate_twisted(theta)
            counts[rep.ok] += 1
            if rep.ok:
                assert build_crossed_product(theta).algebra.validate().ok
            else:
                with pytest.raises(ValidationFailure) as exc:
                    build_crossed_product(theta)
                assert exc.value.report.violations == rep.violations
    assert counts == [723, 19]
