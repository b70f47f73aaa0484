"""The bundled verification battery: every acceptance-level property run
against every bundled fixture, with one verdict line per criterion.

This module is consumed both by `parhox selfcheck` and by the acceptance
test suite.
"""

import time

from .fields import QQ
from .factor_sets import (check_good_factor_set_identities, involution_star,
                          product)
from .groups import cyclic_group, direct_product, exel_size_closed_form, \
    symmetric_group
from .homology import SplitResolution, tor_dims
from .partial_algebras import (build_kpar, build_kpar_sigma,
                               phi_psi_crossed_iso)
from .problems import build_instance, bundled_fixtures, load_fixture
from .spectral import run_all_checks

__all__ = ["CriterionResult", "load_instances", "criterion_untwisted_oracle",
           "criterion_idempotent_oracle", "criterion_phi_psi",
           "criterion_factor_calculus", "criterion_resolution_independence",
           "criterion_fixture_suites", "run_selfcheck"]

ORACLE_GROUPS = [("Z2", lambda: cyclic_group(2), 3),
                 ("Z3", lambda: cyclic_group(3), 8),
                 ("Z2xZ2", lambda: direct_product(cyclic_group(2),
                                                  cyclic_group(2)), 20),
                 ("S3", lambda: symmetric_group(3), 112)]


class CriterionResult:
    def __init__(self, name, ok, seconds, details=""):
        self.name = name
        self.ok = ok
        self.seconds = seconds
        self.details = details

    def line(self):
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name} ({self.seconds:.1f}s)"

    def to_json(self):
        return {"name": self.name, "ok": self.ok,
                "seconds": round(self.seconds, 3),
                "details": str(self.details)[:2000]}


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def load_instances():
    """(fixture name, spec, Instance) for every bundled problem file."""
    out = []
    for fname in bundled_fixtures():
        spec = load_fixture(fname)
        inst = build_instance(spec)
        out.append((fname, spec, inst))
    return out


def criterion_untwisted_oracle():
    def run():
        details = []
        ok = True
        from .factor_sets import trivial_factor_set
        for gname, mk, dim in ORACLE_GROUPS:
            G = mk()
            kp = build_kpar(G, QQ)
            ks = build_kpar_sigma(trivial_factor_set(G, QQ), monoid=kp.monoid)
            same = (ks.surviving == kp.surviving
                    and ks.algebra.sc == kp.algebra.sc)
            count_ok = kp.dim == dim == exel_size_closed_form(G.n)
            details.append((gname, kp.dim, same, count_ok))
            ok = ok and same and count_ok
        return ok, details
    (ok, details), secs = _timed(run)
    return CriterionResult("untwisted oracle (kpar vs rewrite engine)",
                           ok, secs, details)


def criterion_idempotent_oracle(instances):
    def run():
        ok = True
        details = []
        for fname, spec, inst in instances:
            via_rewrite = build_kpar_sigma(inst.sigma_dd, monoid=inst.monoid)
            same = (via_rewrite.surviving == inst.ksdd.surviving
                    and via_rewrite.algebra.sc == inst.ksdd.algebra.sc)
            details.append((fname, inst.ksdd.dim, same))
            ok = ok and same
        return ok, details
    (ok, details), secs = _timed(run)
    return CriterionResult("idempotent oracle (rewrite vs semigroup ideal)",
                           ok, secs, details)


def criterion_phi_psi(instances):
    def run():
        ok = True
        details = []
        for fname, spec, inst in instances:
            if inst.universal:
                done = inst.phi is not None and inst.psi is not None
            else:
                phi_psi_crossed_iso(inst.ks)   # raises on failure
                done = True
            details.append((fname, done))
            ok = ok and done
        return ok, details
    (ok, details), secs = _timed(run)
    return CriterionResult("crossed-product round trip Phi/Psi", ok, secs,
                           details)


def criterion_factor_calculus(instances):
    def run():
        ok = True
        details = []
        for fname, spec, inst in instances:
            sigma = inst.sigma
            checks = []
            star2 = involution_star(involution_star(sigma))
            checks.append(("star involutive", star2.table == sigma.table))
            sp = inst.sigma_prime
            checks.append(("sigma' star-symmetric",
                           involution_star(sp).table == sp.table))
            sdd = inst.sigma_dd
            checks.append(("sigma'' idempotent", sdd.is_idempotent()))
            checks.append(("sigma'' star-symmetric",
                           involution_star(sdd).table == sdd.table))
            checks.append(("sigma'' squared",
                           product(sdd, sdd).table == sdd.table))
            G = inst.group
            checks.append(("xi inverse-invariant",
                           all(inst.xi(g) == inst.xi(G.inv(g))
                               for g in range(G.n))))
            checks.append(("good factor set identities for sigma''",
                           check_good_factor_set_identities(sdd).ok))
            bad = [c for c, v in checks if not v]
            details.append((fname, bad or "ok"))
            ok = ok and not bad
        return ok, details
    (ok, details), secs = _timed(run)
    return CriterionResult("factor-set calculus", ok, secs, details)


def criterion_resolution_independence(instances):
    """Tor^{kpar}(B, H_0(A, M)) on the greedy, greedy_reversed and (on
    small kpar) fat free resolutions of B and, where B splits, on the
    length-0 resolution through its splitting idempotent."""
    def run():
        ok = True
        details = []
        from .spectral import module_tower, resolution_start
        for fname, spec, inst in instances:
            _, tower = module_tower(inst, 0)
            _, mod0, _ = tower[0]
            _, B_right = inst.b_over_kpar
            styles = ["greedy", "greedy_reversed"]
            if inst.kpar.dim <= 8:
                styles.append("fat")
            dims = [tor_dims(inst.kpar.algebra, B_right, mod0, 2, style=st)
                    for st in styles]
            start = resolution_start(inst, B_right)
            if isinstance(start, SplitResolution):
                dims.append(start.tor_dims(mod0, 2))
            same = all(d == dims[0] for d in dims)
            details.append((fname, dims[0], same))
            ok = ok and same
        return ok, details
    (ok, details), secs = _timed(run)
    return CriterionResult("Tor dims independent of the resolution",
                           ok, secs, details)


def criterion_fixture_suites(instances):
    """Run the full check battery per fixture and fold its records into
    per-criterion verdicts by the criterion each battery row stamps, each
    with the measured time of its rows."""
    buckets = {}
    seconds = {}
    reports = {}
    for fname, spec, inst in instances:
        report, page, pagec = run_all_checks(
            inst, max_p=spec.options["max_p"], max_q=spec.options["max_q"],
            max_n=spec.options["max_n"])
        reports[fname] = (report, page, pagec)
        for crit, (name, status, detail) in zip(report.criteria,
                                                report.checks):
            buckets.setdefault(crit, []).append(
                (fname, name, status, str(detail)[:200]))
        for crit, secs in report.seconds.items():
            seconds[crit] = seconds.get(crit, 0.0) + secs
    results = []
    # the equivariance gate also passes implicitly whenever the towers of
    # M and M* were constructed (construction raises on gate failure)
    buckets.setdefault("equivariance gate", []).append(
        ("(all fixtures)", "chain-action gates on M and M*", "pass",
         "construction-level hard gate"))
    for crit in ("hochschild oracles", "equivariance gate",
                 "collapse isomorphisms", "tor-form bridge",
                 "structural suite", "dimension bound"):
        rows = buckets.get(crit, [])
        ok = all(status != "fail" for (_, _, status, _) in rows)
        results.append(CriterionResult(crit, ok, seconds.get(crit, 0.0),
                                       [r for r in rows if r[2] != "pass"]
                                       or f"{len(rows)} checks"))
    return results, reports


def run_selfcheck(verbose=True):
    lines = []
    results = []
    t0 = time.monotonic()
    instances, load_secs = _timed(load_instances)
    lines.append(f"loaded {len(instances)} fixtures in {load_secs:.1f}s")
    results.append(criterion_untwisted_oracle())
    results.append(criterion_idempotent_oracle(instances))
    results.append(criterion_phi_psi(instances))
    results.append(criterion_factor_calculus(instances))
    suite_results, reports = criterion_fixture_suites(instances)
    results.extend(suite_results)
    results.append(criterion_resolution_independence(instances))
    total = time.monotonic() - t0
    ok = all(r.ok for r in results)
    for r in results:
        lines.append(r.line())
    lines.append(f"selfcheck {'PASSED' if ok else 'FAILED'} in {total:.1f}s")
    doc = {"ok": ok, "total_seconds": round(total, 2),
           "criteria": [r.to_json() for r in results],
           "fixtures": {f: rep.to_json() for f, (rep, _, _) in reports.items()}}
    if verbose:
        for ln in lines:
            print(ln)
    return doc, ok
