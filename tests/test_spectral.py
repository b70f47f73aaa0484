import json
import os
import sys
from fractions import Fraction

import pytest

from conftest import (densify, z2_dual_numbers, z2_global_twist,
                      z2_universal, z2xz2_partial_idempotent, z3_kappa2_action)
from parhox import cli, homology, instance, linalg, spectral
from parhox.fields import QQ, PrimeField
from parhox.groups import cyclic_group
from parhox.instance import Instance
from parhox.factor_sets import PartialFactorSet, trivial_factor_set
from parhox.problems import (build_instance, fixture_dir, load_fixture,
                             parse_spec)
from parhox.spectral import (assemble_E2, collapse_check_maclane,
                             collapse_check_separable, dimension_bound_check,
                             hochschild_oracle_check, lemma_B_tensor_omega,
                             module_tower, run_all_checks, SpectralCheckReport,
                             structural_identity_suite, tor_form_consistency)


def F(x, y=1):
    return Fraction(x, y)


def test_instance_universal_z2_trivial():
    inst = Instance("z2_trivial", QQ, cyclic_group(2))
    assert inst.universal
    assert inst.lam.algebra.dim == 3
    assert inst.M.dim == 3


def test_instance_z3_action():
    G, theta = z3_kappa2_action()
    inst = Instance("z3_kappa2", QQ, G, theta=theta)
    assert not inst.universal
    assert inst.lam.algebra.dim == 4
    assert inst.ks.dim == 5


def test_instance_normalizes_sigma():
    # sigma(t, t^2) = 4 gets transported to 1 with a recorded witness
    G = cyclic_group(3)
    o = QQ.one
    table = [[o, o, o], [o, QQ.zero, F(4)], [o, F(4), QQ.zero]]
    sigma = PartialFactorSet(G, QQ, table)
    inst = Instance("z3_unnormalized", QQ, G, sigma=sigma)
    assert inst.eta is not None
    assert inst.sigma(1, 2) == QQ.one


def test_e2_trivial_group():
    G = cyclic_group(1)
    inst = Instance("trivial", QQ, G)
    page = assemble_E2(inst, 2, 2)
    # E2_{0,q} = H_q(A, M) and zero for p >= 1
    for p in range(1, 3):
        for q in range(3):
            assert page.entry(p, q) == 0
    assert page.entry(0, 0) == 1      # A = kappa, M = kappa


def test_e2_separable_row():
    G, theta = z3_kappa2_action()
    inst = Instance("z3_kappa2", QQ, G, theta=theta)
    page = assemble_E2(inst, 2, 2)
    for q in (1, 2):
        for p in range(3):
            assert page.entry(p, q) == 0      # A separable: only q = 0 row


def test_full_suite_z3_kappa2_q():
    G, theta = z3_kappa2_action()
    inst = Instance("z3_kappa2_q", QQ, G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()
    # every check is credited the measured time of the call recording it,
    # and the times stay out of the report
    assert set(report.seconds) == {name for (name, _, _) in report.checks}
    assert all(secs >= 0 for secs in report.seconds.values())
    assert set(report.to_json()) == {"instance", "scope", "checks", "ok"}


def test_full_suite_z3_kappa2_f3():
    G, theta = z3_kappa2_action(field=PrimeField(3))
    inst = Instance("z3_kappa2_f3", PrimeField(3), G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()
    assert page.entry(0, 0) is not None


def test_full_suite_z2_universal_trivial_q():
    inst = Instance("z2_trivial_q", QQ, cyclic_group(2))
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()


def test_full_suite_z2_universal_twist_q():
    G = cyclic_group(2)
    sigma = PartialFactorSet(G, QQ, [[QQ.one, QQ.one], [QQ.one, F(2)]])
    inst = Instance("z2_twist2_q", QQ, G, sigma=sigma)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()


def test_full_suite_z2_universal_f2():
    F2 = PrimeField(2)
    inst = Instance("z2_trivial_f2", F2, cyclic_group(2))
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()
    # char 2: the partial homology column is nonvanishing (collapse is a
    # genuinely nontrivial equality here)
    assert any(page.entry(p, 0) for p in (1, 2))


def test_full_suite_z2_dual_numbers():
    G, theta = z2_dual_numbers()
    inst = Instance("z2_dual_q", QQ, G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()
    # A = k[x]/(x^2) is not separable: q >= 1 rows are nonzero
    assert any(page.entry(0, q) for q in (1, 2))
    skipped = [c for c in report.checks if c[1] == "skipped"]
    assert any("separable" in c[0] for c in skipped)


def test_full_suite_z2xz2_idempotent():
    G, theta = z2xz2_partial_idempotent()
    inst = Instance("v4_idem_q", QQ, G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()


def test_full_suite_global_twist_f7():
    F7 = PrimeField(7)
    G, theta = z2_global_twist(4, field=F7)
    inst = Instance("z2_global4_f7", F7, G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()


def test_dual_numbers_f2_has_strict_margin_possible():
    # char 2 + non-separable A: both directions nonzero; bound must hold
    F2 = PrimeField(2)
    G, theta = z2_dual_numbers(field=F2)
    inst = Instance("z2_dual_f2", F2, G, theta=theta)
    report, page, pagec = run_all_checks(inst)
    assert report.ok, report.to_json()
    assert any(page.entry(p, 0) for p in (1, 2))
    assert any(page.entry(0, q) for q in (1, 2))


def test_deeper_degrees_than_the_oracle():
    # max_n = 4 goes past the oracle's degree 3 on this dim-3 Lambda: the
    # collapse checks and the dimension bounds read dims up to n = 4
    inst = Instance("z2", QQ, cyclic_group(2))
    report, page, pagec = run_all_checks(inst, max_p=4, max_q=4, max_n=4)
    assert report.ok, report.to_json()
    for orientation in ("homological", "cohomological"):
        (rows,) = [detail for (name, _, detail) in report.checks
                   if name == f"dimension bound ({orientation})"]
        assert [n for (n, _, _, _) in rows] == [0, 1, 2, 3, 4]


def test_lambda_bar_route_is_computed_once(monkeypatch):
    inst = build_instance(load_fixture("z2_trivial_q.json"))
    calls = {"homology": 0, "cohomology": 0}

    original = spectral.hochschild_homology_bar

    def counted(R, M, *args, **kwargs):
        # cohomology is read as the homology of the dual bimodule M*
        if R is inst.lam.algebra:
            if M is inst.M:
                calls["homology"] += 1
            elif M.name == f"{inst.M.name}*":
                calls["cohomology"] += 1
        return original(R, M, *args, **kwargs)

    monkeypatch.setattr(spectral, "hochschild_homology_bar", counted)
    report, _, _ = run_all_checks(inst)
    assert report.ok
    # the oracle, the separable and MacLane collapse checks and the
    # dimension bounds all read the one memo on the instance
    assert calls == {"homology": 1, "cohomology": 1}


def test_report_reproducible():
    G, theta = z3_kappa2_action()
    r1 = run_all_checks(Instance("x", QQ, G, theta=theta))[0].to_json()
    G2, theta2 = z3_kappa2_action()
    r2 = run_all_checks(Instance("x", QQ, G2, theta=theta2))[0].to_json()
    assert r1 == r2


def test_module_tower_computes_homology_data_once_per_degree(monkeypatch):
    inst = build_instance(load_fixture("z3_kappa2_q.json"))
    calls = []
    original = homology.homology_data

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "homology_data", counted)
    _, tower = module_tower(inst, 2)
    # one call per degree serves both the kappa_par G and the
    # kappa_par^{sigma''} G module
    assert len(calls) == 3
    for hd, mod_kpar, mod_ksdd in tower:
        assert mod_kpar.dim == mod_ksdd.dim == hd.dim


def _doubled_module_doc():
    """z3_kappa2_q with the coefficient bimodule Lambda (+) Lambda written
    into the problem file (every basis element's action) instead of
    "regular"."""
    with open(os.path.join(fixture_dir(), "z3_kappa2_q.json")) as fh:
        doc = json.load(fh)
    lam = build_instance(parse_spec(doc)).lam.algebra
    K = lam.field
    n = lam.dim

    def doubled(rows):
        mat = densify(K, rows, n)
        return [[K.dump(mat[r % n][c % n]) if r // n == c // n else "0"
                 for c in range(2 * n)] for r in range(2 * n)]

    basis = [lam.basis_vector(i) for i in range(n)]
    doc["module"] = {
        "dim": 2 * n,
        "left": {lam.labels[i]: doubled(lam.left_mult_matrix(b))
                 for i, b in enumerate(basis)},
        "right": {lam.labels[i]: doubled(lam.right_mult_matrix(b))
                  for i, b in enumerate(basis)}}
    return doc


def test_m_over_a_is_built_once_from_the_final_module(tmp_path, monkeypatch,
                                                      capsys):
    path = tmp_path / "z3_doubled.json"
    path.write_text(json.dumps(_doubled_module_doc()))
    restricted, regular, built = [], [], []
    m_as_a, regular_bimodule = instance.m_as_a_bimodule, \
        instance.regular_bimodule
    build = cli.build_instance
    monkeypatch.setattr(instance, "m_as_a_bimodule", lambda lam, M: (
        restricted.append(M) or m_as_a(lam, M)))
    monkeypatch.setattr(instance, "regular_bimodule", lambda A: (
        regular.append(A) or regular_bimodule(A)))
    monkeypatch.setattr(cli, "build_instance", lambda spec: (
        built.append(build(spec)) or built[-1]))
    assert cli.main(["spectral", str(path)]) == 0
    inst, = built
    assert inst.M.dim == 2 * inst.lam.algebra.dim
    # one M|A per spectral run, restricted from the problem's module; no
    # regular bimodule of Lambda was built to be thrown away
    assert len(restricted) == 1 and restricted[0] is inst.M
    assert all(A is not inst.lam.algebra for A in regular)


@pytest.mark.parametrize("fixture", ["z2_trivial_q.json", "z3_kappa2_q.json",
                                     "z3_kappa2_f3.json"])
def test_coordinates_never_solve_a_system(fixture, monkeypatch):
    # the crossed product, B^sigma, the induced module actions, the homology
    # coordinates and the Hom bridge read coordinates off a basis; only the
    # separability idempotent is a linear system
    callers = []
    solve = linalg.solve

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("parhox") and getattr(module, "solve", None) \
                is solve:
            monkeypatch.setattr(module, "solve", traced)
    report, _, _ = run_all_checks(build_instance(load_fixture(fixture)))
    assert report.ok
    assert set(callers) == {"separability_idempotent"}


@pytest.mark.parametrize("group, field", [
    ("z4.json", {"kind": "Fp", "p": 3}), ("z2xz2.json", {"kind": "Q"})])
def test_universal_order_four_instances(group, field):
    # no action and the regular module: Lambda = kappa_par G = B * G
    with open(os.path.join(fixture_dir(), "groups", group)) as fh:
        spec = parse_spec({"field": field, "group": json.load(fh),
                           "module": "regular"})
    inst = build_instance(spec)
    assert inst.universal
    assert (inst.kpar.dim, inst.lam.algebra.dim,
            inst.theta.algebra.dim) == (20, 20, 8)
    assert sum(len(b) for b in inst.lam.dg_bases) == 20
    assert inst.m_over_a.dim == inst.M.dim == 20
