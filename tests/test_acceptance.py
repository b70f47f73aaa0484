"""The acceptance battery: one test per criterion, each printing its own
pass/fail line.  All arithmetic is exact; every equality below is required
to hold with zero tolerance."""

import time

import pytest

from parhox.fields import QQ
from parhox.factor_sets import trivial_factor_set
from parhox.groups import cyclic_group, direct_product, symmetric_group, \
    exel_size_closed_form
from parhox.partial_algebras import (build_kpar, build_kpar_sigma,
                                     phi_psi_crossed_iso)
from parhox.selfcheck import (criterion_factor_calculus,
                              criterion_fixture_suites,
                              criterion_idempotent_oracle, criterion_phi_psi,
                              criterion_resolution_independence,
                              criterion_untwisted_oracle, load_instances,
                              run_selfcheck)
from parhox.spectral import module_tower


@pytest.fixture(scope="module")
def battery():
    instances = load_instances()
    suite_results, reports = criterion_fixture_suites(instances)
    by_name = {r.name: r for r in suite_results}
    return instances, reports, by_name


def _announce(num, name, ok, extra=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {extra}")
    assert ok, f"criterion {num} ({name}) failed: {extra}"


def _checks_named(reports, names):
    rows = []
    for fname, (rep, _, _) in reports.items():
        for (name, status, detail) in rep.checks:
            if name in names:
                rows.append((fname, name, status, detail))
    return rows


def test_criterion_1_untwisted_oracle():
    t0 = time.monotonic()
    res = criterion_untwisted_oracle()
    elapsed = time.monotonic() - t0
    dims = [d for (_, d, _, _) in res.details]
    assert dims == [3, 8, 20, 112]
    assert elapsed < 30, f"untwisted oracle took {elapsed:.1f}s"
    _announce(1, "untwisted oracle", res.ok, f"dims {dims}, {elapsed:.1f}s")


def test_criterion_2_idempotent_oracle(battery):
    instances, _, _ = battery
    t0 = time.monotonic()
    res = criterion_idempotent_oracle(instances)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"idempotent oracle took {elapsed:.1f}s"
    _announce(2, "idempotent oracle", res.ok, f"{elapsed:.1f}s")


def test_criterion_3_phi_psi_round_trip(battery):
    instances, _, _ = battery
    # the fixture list includes lambda in {1, 2, 1/3} over Q and 4 over F7
    names = {f for (f, _, _) in instances}
    for needed in ("z2_trivial_q.json", "z2_twist2_q.json",
                   "z2_twist_third_q.json", "z2_twist4_f7.json"):
        assert needed in names
    res = criterion_phi_psi(instances)
    _announce(3, "Phi/Psi round trip on every bundled (G, sigma)", res.ok)


def test_criterion_4_factor_set_calculus(battery):
    instances, _, _ = battery
    res = criterion_factor_calculus(instances)
    _announce(4, "factor-set calculus", res.ok, str(res.details))


def test_criterion_5_homological_oracles(battery):
    instances, reports, by_name = battery
    t0 = time.monotonic()
    rows = _checks_named(reports, {"Hochschild dual route (homology)",
                                   "Hochschild dual route (cohomology)",
                                   "Hochschild dual route (base algebra)"})
    assert len(rows) == 3 * len(instances)
    ok = all(status == "pass" for (_, _, status, _) in rows)
    res_ind = criterion_resolution_independence(instances)
    elapsed = time.monotonic() - t0
    assert elapsed < 180, f"homological oracles took {elapsed:.1f}s"
    _announce(5, "bar vs resolution Hochschild and Tor invariance",
              ok and res_ind.ok, f"{elapsed:.1f}s")


def test_criterion_6_equivariance_gate(battery):
    instances, reports, _ = battery
    ok = True
    for fname, spec, inst in instances:
        # the chain actions with coefficients in M and in M*
        for dual in (False, True):
            gmod, _ = module_tower(inst, spec.options["max_q"], dual=dual)
            ok = ok and gmod.gate(inst.group).ok
    rows = _checks_named(reports, {"degree-0 action matches tensor formula"})
    ok = ok and all(status == "pass" for (_, _, status, _) in rows)
    _announce(6, "equivariance + sigma'' relations + degree-0 formula", ok)


def test_criterion_7_collapse_isomorphisms(battery):
    instances, reports, _ = battery
    rows = _checks_named(reports, {"separable collapse (homology)",
                                   "separable collapse (cohomology)",
                                   "MacLane: kpar^sigma G = B^sigma * G "
                                   "Hochschild dims",
                                   "classical MacLane specialization"})
    ok = all(status != "fail" for (_, _, status, _) in rows)
    # (a) the Z3-on-kappa^2 instance must actually run the separable branch
    z3_rows = [r for r in rows if r[0] == "z3_kappa2_q.json"
               and r[1] == "separable collapse (homology)"]
    assert z3_rows and z3_rows[0][2] == "pass"
    # (b) the MacLane-type checks run on the universal Z2 fixtures
    mac_rows = [r for r in rows if "MacLane" in r[1]]
    assert len(mac_rows) >= 5
    assert all(status == "pass" for (_, _, status, _) in mac_rows)
    _announce(7, "collapse isomorphisms (separable and MacLane)", ok)


def test_criterion_8_tor_form_bridge(battery):
    instances, reports, _ = battery
    rows = _checks_named(reports, {"tor-form bridge", "tor-form degree 0",
                                   "B (x) Omega = B^sigma"})
    assert len(rows) == 3 * len(instances)
    ok = all(status == "pass" for (_, _, status, _) in rows)
    _announce(8, "Tor-form bridge and B (x) Omega = B^sigma", ok)


def test_criterion_9_structural_suite(battery):
    instances, reports, _ = battery
    wanted = {"e_g.a = 1_g a on A", "e_g.x = 1_g x 1_g on M",
              "e_g^s (x) y = 1 (x) e_g''.y", "e_g.(a (x) x) identities",
              "phi: Lambda = B^sigma (x) Lambda (bimodule iso)",
              "X (x)_{B''} Lambda bimodule axioms",
              "bimodule maps are ksdd-module maps (phi)",
              "M/[Lambda,M] = B^sigma (x) (A (x) M)",
              "Hom_{L^e}(L,M) = Hom_{ksdd}(B^s, Hom_{A^e}(A,M))",
              "Omega flatness Tor_1 = 0"}
    rows = _checks_named(reports, wanted)
    assert len(rows) == len(wanted) * len(instances)
    ok = all(status == "pass" for (_, _, status, _) in rows)
    _announce(9, "structural identity suite", ok)


def test_criterion_10_dimension_bound_and_selfcheck(battery):
    instances, reports, _ = battery
    rows = _checks_named(reports, {"dimension bound (homological)",
                                   "dimension bound (cohomological)"})
    ok = all(status != "fail" for (_, _, status, _) in rows)
    assert ok
    # equality on separable fixtures is enforced inside the check itself;
    # verify at least one strict-margin-capable fixture ran
    assert any(f == "z2_dual_f2.json" for (f, _, _, _) in rows)
    t0 = time.monotonic()
    doc, sc_ok = run_selfcheck(verbose=False)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"selfcheck took {elapsed:.1f}s (budget 600s)"
    _announce(10, "dimension bounds + full selfcheck", ok and sc_ok,
              f"selfcheck {elapsed:.1f}s")


# the criterion of every record and skip the battery writes, as the rows of
# `run_all_checks` stamp it
CRITERION_OF_RECORD = {
    "Hochschild dual route (homology)": "hochschild oracles",
    "Hochschild dual route (cohomology)": "hochschild oracles",
    "Hochschild dual route (base algebra)": "hochschild oracles",
    "dimension bound (homological)": "dimension bound",
    "dimension bound (cohomological)": "dimension bound",
    "tor-form bridge": "tor-form bridge",
    "tor-form degree 0": "tor-form bridge",
    "B (x) Omega = B^sigma": "tor-form bridge",
    "Omega flatness Tor_1 = 0": "structural suite",
    "e_g.a = 1_g a on A": "structural suite",
    "e_g.x = 1_g x 1_g on M": "structural suite",
    "e_g^s (x) y = 1 (x) e_g''.y": "structural suite",
    "e_g.(a (x) x) identities": "structural suite",
    "phi: Lambda = B^sigma (x) Lambda (bimodule iso)": "structural suite",
    "X (x)_{B''} Lambda bimodule axioms": "structural suite",
    "bimodule maps are ksdd-module maps (phi)": "structural suite",
    "M/[Lambda,M] = B^sigma (x) (A (x) M)": "structural suite",
    "Hom_{L^e}(L,M) = Hom_{ksdd}(B^s, Hom_{A^e}(A,M))": "structural suite",
    "separable collapse": "collapse isomorphisms",
    "separable collapse (homology)": "collapse isomorphisms",
    "separable collapse (cohomology)": "collapse isomorphisms",
    "MacLane collapse": "collapse isomorphisms",
    "MacLane: kpar^sigma G = B^sigma * G Hochschild dims":
        "collapse isomorphisms",
    "classical MacLane specialization": "collapse isomorphisms",
    "degree-0 action matches tensor formula": "equivariance gate",
}


def test_every_record_is_stamped_with_its_criterion(battery):
    instances, reports, by_name = battery
    seen = set()
    for fname, (rep, _, _) in reports.items():
        assert len(rep.criteria) == len(rep.checks)
        for crit, (name, _, _) in zip(rep.criteria, rep.checks):
            assert (fname, name, crit) == \
                (fname, name, CRITERION_OF_RECORD[name])
            seen.add(name)
    assert seen == set(CRITERION_OF_RECORD)
    # the skips are listed under the collapse isomorphisms
    skipped = {(f, n) for (f, n, status, _) in
               by_name["collapse isomorphisms"].details if status == "skipped"}
    assert ("z2_dual_q.json", "separable collapse") in skipped
    assert ("v4_partial_q.json", "MacLane collapse") in skipped
    assert isinstance(by_name["structural suite"].details, str)
