import json
import os
import sys
from fractions import Fraction

import pytest

from conftest import (densify, z2_dual_numbers, z2_global_twist,
                      z2_universal, z2xz2_partial_idempotent, z3_kappa2_action)
from parhox import (algebras, cli, homology, instance, linalg,
                    partial_actions, partial_algebras, spectral)
from parhox.fields import QQ, PrimeField
from parhox.groups import cyclic_group
from parhox.instance import Instance
from parhox.factor_sets import PartialFactorSet, trivial_factor_set
from parhox.problems import (build_instance, fixture_dir, load_fixture,
                             parse_spec, parse_spec_file)
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
    # each row is timed whole under its criterion: the keys are exactly the
    # criteria that have records, and the times stay out of the report
    assert set(report.seconds) == set(report.criteria) == {
        "hochschild oracles", "dimension bound", "tor-form bridge",
        "structural suite", "collapse isomorphisms", "equivariance gate"}
    assert all(secs >= 0 for secs in report.seconds.values())
    assert set(report.to_json()) == {"instance", "scope", "checks", "ok"}


def test_a_row_stamps_whatever_its_check_records():
    report = SpectralCheckReport("x")

    def check(inst, rep):
        rep.record("a name no table lists", True)
        rep.skip("another", "why")

    report.run_row("first", check, None)
    report.run_row("silent", lambda inst, rep: None, None)
    report.run_row("first", lambda inst, rep: rep.record("third", False),
                   None)
    assert report.criteria == ["first", "first", "first"]
    assert set(report.seconds) == {"first", "silent"}
    assert not report.ok


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
        algebras.regular_bimodule
    build = cli.build_instance
    monkeypatch.setattr(instance, "m_as_a_bimodule", lambda lam, M: (
        restricted.append(M) or m_as_a(lam, M)))
    for name, module in list(sys.modules.items()):
        if name.startswith("parhox") and \
                getattr(module, "regular_bimodule", None) is regular_bimodule:
            monkeypatch.setattr(module, "regular_bimodule", lambda A: (
                regular.append(A) or regular_bimodule(A)))
    # built[1]: how many regular bimodules the construction made
    monkeypatch.setattr(cli, "build_instance", lambda spec: (
        built.append(build(spec)) or built.append(len(regular))
        or built[0]))
    assert cli.main(["spectral", str(path)]) == 0
    inst, at_construction = built
    assert inst.M.dim == 2 * inst.lam.algebra.dim
    # one M|A per spectral run, restricted from the problem's module; no
    # regular bimodule of Lambda was built to be thrown away: none at
    # construction, and one in the run, `Instance.lam_regular`, which the
    # battery reads
    assert len(restricted) == 1 and restricted[0] is inst.M
    assert all(A is not inst.lam.algebra for A in regular[:at_construction])
    assert [A for A in regular if A is inst.lam.algebra] == \
        [inst.lam.algebra]


@pytest.mark.parametrize("fixture", ["z2_trivial_q.json", "z3_kappa2_q.json",
                                     "z3_kappa2_f3.json"])
def test_coordinates_never_solve_a_system(fixture, monkeypatch):
    # the crossed product, B^sigma, the induced module actions, the homology
    # coordinates and the Hom bridge read coordinates off a basis; only the
    # separability idempotent and the splitting idempotents of B, Omega and
    # B^sigma are linear systems
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
    assert set(callers) == {"separability_idempotent",
                            "splitting_idempotent"}


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


def m2_z2_spec():
    """Z2 acting on A = M_2(Q) by conjugation with the permutation matrix
    (E_rc -> E_{1-r,1-c}), 1_g = 1, trivial sigma, regular module: a global
    action on a noncommutative A.  tests/data/m2_z2_q.json holds the same
    problem for the command line."""
    one = [["1", "0", "0", "1"]] * 2
    ident = [["1" if r == c else "0" for c in range(4)] for r in range(4)]
    swap = [["1" if r + c == 3 else "0" for c in range(4)] for r in range(4)]
    sc = [[r * 2 + c, c * 2 + c2, r * 2 + c2, "1"]
          for r in range(2) for c in range(2) for c2 in range(2)]
    return {"name": "m2_z2_q", "field": {"kind": "Q"},
            "group": {"name": "Z2", "order": 2, "cayley": [[0, 1], [1, 0]]},
            "sigma": [["1", "1"], ["1", "1"]],
            "action": {"algebra": {"dim": 4,
                                   "labels": ["E00", "E01", "E10", "E11"],
                                   "unit": one[0], "sc": sorted(sc)},
                       "one_g": one, "theta": [ident, swap]},
            "module": "regular",
            "options": {"max_n": 2, "max_p": 2, "max_q": 2}}


def test_noncommutative_base_algebra_passes_the_battery():
    # A (x)_{A^e} M takes A's right A^e-action a.(b (x) c) = c a b; with a
    # commutative A the left action would do, with M_2(Q) it would not
    spec = m2_z2_spec()
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "m2_z2_q.json")) as fh:
        assert json.load(fh) == spec
    inst = build_instance(parse_spec(spec))
    report, _, _ = run_all_checks(inst)
    assert report.ok
    checks = {name: (status, detail) for name, status, detail in report.checks}
    assert checks["degree-0 action matches tensor formula"] == ("pass",
                                                                (2, 2))
    assert inst.a_tensor_m.dim == \
        algebras.commutator_quotient(inst.m_over_a).dim


def test_enveloping_algebras_are_built_for_the_resolutions_only(monkeypatch):
    # Hom and tensors over A^e and Lambda^e read the bimodule actions; only
    # a free resolution of Lambda or of A builds an enveloping algebra, and
    # an algebra with a separability idempotent gets none: Lambda and A
    # are both separable on v4_partial_q, neither is on z2_dual_q
    calls = []
    enveloping = algebras.enveloping

    def counted(R, *args, **kwargs):
        calls.append(R)
        return enveloping(R, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("parhox") and \
                getattr(module, "enveloping", None) is enveloping:
            monkeypatch.setattr(module, "enveloping", counted)
    for fixture, separable in [("v4_partial_q.json", True),
                               ("z2_dual_q.json", False)]:
        calls.clear()
        inst = build_instance(load_fixture(fixture))
        report, _, _ = run_all_checks(inst)
        assert report.ok
        assert calls == ([] if separable
                         else [inst.lam.algebra, inst.theta.algebra])


# every builder of a structure that two checks read, with how many of its
# leading arguments name the structure
SHARED_BUILDERS = {
    "bar": (homology, "relative_bar_complex", 2),
    "tensor": (algebras, "bimodule_tensor", 2),
    "crossed action": (homology, "_crossed_action_matrices", 2),
    "regular": (algebras, "regular_bimodule", 1),
    "idempotent subalgebra": (
        partial_algebras.TwistedPartialGroupAlgebra.idempotent_subalgebra,
        "func", 1),
    "crossed product": (partial_actions, "build_crossed_product", 0),
    "validate twisted": (partial_actions, "validate_twisted", 0),
}


@pytest.mark.parametrize("path", [
    os.path.join(fixture_dir(), "v4_partial_q.json"),
    os.path.join(fixture_dir(), "z3_unnormalized_q.json"),
    os.path.join(os.path.dirname(__file__), "data", "universal_z4_f3.json")])
def test_each_shared_structure_is_built_once(path, monkeypatch, capsys):
    # a `parhox spectral` run at default options builds A's bar complex,
    # A (x)_{A^e} M, the [g]-matrices, the regular bimodules and the
    # idempotent subalgebras once each, and Lambda at most twice: once
    # more only when an unnormalized sigma is transported (Lambda_rho and
    # Lambda_nu), with validate_twisted run once
    calls = {label: [] for label in SHARED_BUILDERS}
    for label, (home, attr, arity) in SHARED_BUILDERS.items():
        original = getattr(home, attr)

        def counted(*args, _calls=calls[label], _arity=arity,
                    _original=original, **kwargs):
            # the arguments are kept, so no id is reused within the run
            _calls.append(args[:_arity])
            return _original(*args, **kwargs)

        # a module function is replaced in every module that imported it
        homes = [module for name, module in list(sys.modules.items())
                 if name.startswith("parhox")
                 and getattr(module, attr, None) is original] or [home]
        for module in homes:
            monkeypatch.setattr(module, attr, counted)
    built = []
    build = cli.build_instance
    monkeypatch.setattr(cli, "build_instance", lambda spec: (
        built.append(build(spec)) or built[-1]))
    assert cli.main(["spectral", path]) == 0
    inst, = built

    def times(label, *key):
        return sum(all(a is b for a, b in zip(args, key))
                   for args in calls[label])

    A, MA = inst.theta.algebra, inst.m_over_a
    assert times("bar", A, MA) == 1
    assert times("tensor", inst.a_regular, MA) == 1
    assert times("crossed action", inst.lam, inst.M) == 1
    assert times("regular", A) == times("regular", inst.lam.algebra) == 1
    assert times("idempotent subalgebra", inst.kpar) == 1
    assert times("idempotent subalgebra", inst.ksdd) == 1
    # and no other structure is built twice either
    for label, (_, _, arity) in SHARED_BUILDERS.items():
        if arity:
            assert all(times(label, *args) == 1 for args in calls[label]), \
                label
    assert len(calls["crossed product"]) <= 2
    assert len(calls["validate twisted"]) == 1


# E2^{p,q} for p, q <= 3 (one row per q, p = 0..3), as the route through
# the Hochschild cochain complex of M and Ext over kappa_par G gave them
# before the homological page of M* replaced it
COHOMOLOGICAL_PAGES = {
    "m2_z2_q.json":
        [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "v4_partial_q.json":
        [[4, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z2_dual_f2.json":
        [[4, 4, 4, 4], [4, 4, 4, 4], [4, 4, 4, 4], [4, 4, 4, 4]],
    "z2_dual_q.json":
        [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]],
    "z2_trivial_f2.json":
        [[3, 2, 2, 2], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z2_trivial_q.json":
        [[3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z2_twist2_q.json":
        [[3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z2_twist4_f7.json":
        [[3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z2_twist_third_q.json":
        [[3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z3_kappa2_f3.json":
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z3_kappa2_q.json":
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    "z3_unnormalized_q.json":
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
}


@pytest.mark.parametrize("fixture", sorted(COHOMOLOGICAL_PAGES))
def test_cohomological_page_is_pinned(fixture):
    path = os.path.join(os.path.dirname(__file__), "data", fixture)
    inst = build_instance(parse_spec_file(path) if os.path.exists(path)
                          else load_fixture(fixture))
    page = assemble_E2(inst, 3, 3, dual=True)
    assert page.orientation == "cohomological"
    assert [[page.entry(p, q) for p in range(4)] for q in range(4)] == \
        COHOMOLOGICAL_PAGES[fixture]
