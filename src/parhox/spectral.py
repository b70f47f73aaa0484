"""Assembly of the second spectral-sequence pages and the full battery of
identity / isomorphism / collapse / bound checks run on an Instance.

The spectral differentials are never constructed; what is machine-checked
is every computable consequence: the two collapse isomorphisms, the
Tor-form bridge, the structural identities, and the subquotient dimension
bound sum(dim E2_{p,q}, p+q = n) >= dim H_n(Lambda, M), with equality
required on separable instances.

The first-quadrant homological sequence, E2_{p,q} = H_p^par(G, H_q(A, M)),
and the third-quadrant cohomological one, E2^{p,q} = H^p_par(G, H^q(A, M)),
are one construction read in two directions: each step that has both
(the chain-action tower, the page, the partial group (co)homology, the
separable collapse, the Hochschild dims of Lambda) is one function with
the `cochain` flag of `ChainComplex`.  The bar-route dims of
H_*(Lambda, M) and H^*(Lambda, M) have one source, `lam_hochschild_bar`,
memoized on the instance, which every check reads.
"""

import time
from contextlib import contextmanager
from functools import partial

from .algebras import (AlgebraHom, ModuleData, bimodule_to_left_env_module,
                       commutator_quotient, dual_bimodule, enveloping,
                       group_algebra, hom_over_algebra, regular_bimodule,
                       restrict_along_hom, tensor_over_algebra)
from .homology import (_crossed_action_matrices, _env_left_regular,
                       diagonal_action, env_resolution, ext_dims,
                       free_resolution, hochschild_homology_bar,
                       hochschild_homology_resolution,
                       hom_A_module_structure, induced_action_on_homology,
                       tor_dims)
from .linalg import (_char, _Echelon, _rank_of, _sp_combination, _sp_matmul,
                     _sp_matvec, _sp_sum, _sp_transpose)

__all__ = [
    "E2Page", "SpectralCheckReport", "assemble_E2", "tor_form_consistency",
    "collapse_check_separable", "collapse_check_maclane",
    "structural_identity_suite", "dimension_bound_check",
    "hochschild_oracle_check", "run_all_checks",
]


class E2Page:
    def __init__(self, orientation, entries):
        self.orientation = orientation           # homological | cohomological
        self.entries = entries                   # dict (p, q) -> dim

    def entry(self, p, q):
        return self.entries.get((p, q))

    def max_p(self):
        return max(p for (p, _) in self.entries) if self.entries else -1

    def max_q(self):
        return max(q for (_, q) in self.entries) if self.entries else -1

    def to_json(self):
        return {"orientation": self.orientation,
                "entries": {f"{p},{q}": d for (p, q), d in
                            sorted(self.entries.items())},
                # every entry is computed; the empty list stays because
                # tests/data/report_digests.json and bench/digests.json
                # pin the report bytes
                "skipped": []}


class SpectralCheckReport:
    def __init__(self, instance_name):
        self.instance = instance_name
        self.checks = []                         # (name, status, detail)
        self.seconds = {}                        # name -> s, not in to_json

    def record(self, name, ok, detail=""):
        self.checks.append((name, "pass" if ok else "fail", detail))

    def skip(self, name, reason):
        self.checks.append((name, "skipped", reason))

    @contextmanager
    def timed(self, names=None):
        """Credit the wall time of the enclosed calls to `names`, by default
        to the checks they record, split evenly between them."""
        start, t0 = len(self.checks), time.monotonic()
        yield
        names = names or [name for (name, _, _) in self.checks[start:]]
        share = (time.monotonic() - t0) / max(len(names), 1)
        for name in names:
            self.seconds[name] = self.seconds.get(name, 0.0) + share

    @property
    def ok(self):
        return all(status != "fail" for (_, status, _) in self.checks)

    def to_json(self):
        return {"instance": self.instance,
                "scope": "spectral differentials d_r are not constructed; "
                         "verification is via collapse isomorphisms, the "
                         "Tor-form bridge, and subquotient dimension bounds",
                "checks": [{"name": n, "status": s, "detail": str(d)}
                           for (n, s, d) in self.checks],
                "ok": self.ok}


# ---------------------------------------------------------------------------
# E2 pages


def module_tower(inst, max_q, cochain=False):
    """H_q(A, M) (or H^q(A, M)) for q <= max_q, as (hd, kappa_par G module,
    kappa_par^{sigma''} G module); the last is built on the homology side
    only and is None on the cohomology side.  Memoized on the instance."""
    def build(length):
        gmod, _ = diagonal_action(inst.lam, inst.M, inst.m_over_a, inst.xi,
                                  inst.sigma_dd, length + 1, cochain=cochain,
                                  cap=inst.chain_cap)
        ann = inst.ker_zeta_in_kpar()
        tower = []
        for q in range(length + 1):
            hd, mod_kpar = induced_action_on_homology(gmod, q, inst.kpar,
                                                      inst.group,
                                                      annihilator_vectors=ann)
            mod_ksdd = None if cochain else induced_action_on_homology(
                gmod, q, inst.ksdd, inst.group, hd=hd)[1]
            tower.append((hd, mod_kpar, mod_ksdd))
        return gmod, tower
    return inst.longest(("tower", cochain), max_q, build)


def side_resolution(inst, module, side, length):
    """A free resolution of `module` as a `side` module over the algebra it
    lives on, bounded by the instance's chain cap and memoized on the
    instance per (module, side); the modules are the instance's own (B and
    Omega over kappa_par G, B^sigma over kappa_par^{sigma''} G)."""
    return inst.longest(("resolution", module, side), length,
                        lambda l: free_resolution(module.algebra, module, side,
                                                  l, cap=inst.chain_cap))


def enveloping_resolution(inst, R, length):
    """(R^e, the free resolution of R as a left R^e-module), bounded by the
    instance's chain cap and memoized on the instance per algebra (Lambda
    or A)."""
    return inst.longest(("env_resolution", R), length,
                        lambda l: env_resolution(R, l, cap=inst.chain_cap))


def lam_hochschild_bar(inst, n, cochain=False):
    """dim H_q(Lambda, M), or dim H^q(Lambda, M) when `cochain` is set, for
    q <= n on the bar route: the one source of these dims for the oracle,
    the collapse and dimension-bound checks and `parhox hochschild`.
    Memoized on the instance, which keeps the dims only, not the
    complexes.  H^q(Lambda, M) is read as H_q(Lambda, M*): the cochain
    complex is the transpose of the bar complex of M* (`cobar_complex`),
    so the ranks are the same."""
    return inst.longest(("hoch_bar", cochain), n,
                        lambda l: hochschild_homology_bar(
                            inst.lam.algebra,
                            dual_bimodule(inst.M) if cochain else inst.M, l,
                            cap=inst.chain_cap))[:n + 1]


def partial_dims(inst, X, max_n, cochain=False):
    """dim H_n^par(G, X) = dim Tor_n^{kpar}(B, X), or dim H^n_par(G, X) =
    dim Ext^n_{kpar}(B, X) when `cochain` is set, for n <= max_n, on the
    instance's resolution of B (as a right module for Tor, a left one for
    Ext)."""
    B_left, B_right = inst.b_over_kpar
    B, side, dims = (B_left, "left", ext_dims) if cochain else \
        (B_right, "right", tor_dims)
    return dims(inst.kpar.algebra, B, X, max_n,
                resolution=side_resolution(inst, B, side, max_n + 1))


def assemble_E2(inst, max_p, max_q, cochain=False):
    """E2_{p,q} = H_p^par(G, H_q(A, M)), or E2^{p,q} = H^p_par(G, H^q(A, M))
    when `cochain` is set: one page per orientation of one construction."""
    _, tower = module_tower(inst, max_q, cochain=cochain)
    entries = {}
    for q in range(max_q + 1):
        _, mod_kpar, _ = tower[q]
        dims = partial_dims(inst, mod_kpar, max_p, cochain=cochain)
        entries.update(((p, q), d) for p, d in enumerate(dims))
    return E2Page("cohomological" if cochain else "homological", entries)


# ---------------------------------------------------------------------------
# the checks


def _omega_tensor(inst, X_kpar):
    """Omega (x)_{kpar} X with its left kpar structure
    r.(w (x) x) = rw (x) x, validated."""
    T = tensor_over_algebra(inst.kpar.algebra, inst.omega_right_over_kpar,
                            X_kpar)
    om_alg = inst.omega.algebra
    left_mats = []
    for r in range(inst.kpar.dim):
        img_in_omega = inst.omega.projection.apply(
            inst.kpar.algebra.basis_vector(r))
        left_mats.append(T.tensor_map(om_alg.left_mult_matrix(img_in_omega)))
    OX = ModuleData(inst.kpar.algebra, T.dim, left=left_mats)
    OX.validate().raise_if_failed()
    return OX


def tor_form_consistency(inst, report, max_p=2, max_q=1):
    """Tor_p^{ksdd}(B^sigma, X) = H_p^par(G, Omega (x)_{kpar} X) for
    X = H_q(A, M), dimensionwise; plus the degree-0 identity."""
    _, tower = module_tower(inst, max_q)
    _, bs_right, _ = inst.bsig_modules_over_ksdd
    _, B_right = inst.b_over_kpar
    ok_all = True
    details = []
    degree0 = None
    for q in range(max_q + 1):
        _, mod_kpar, mod_ksdd = tower[q]
        lhs = tor_dims(inst.ksdd.algebra, bs_right, mod_ksdd, max_p,
                       resolution=side_resolution(inst, bs_right, "right",
                                                  max_p + 1))
        OX = _omega_tensor(inst, mod_kpar)
        rhs = partial_dims(inst, OX, max_p)
        details.append((q, lhs, rhs))
        if lhs != rhs:
            ok_all = False
        if q == 0:
            degree0 = mod_ksdd, OX
    report.record("tor-form bridge", ok_all, details)
    # degree-0 identity: dim B^sigma (x)_{ksdd} X = dim B (x)_{kpar} (Omega (x) X)
    X_ksdd, OX = degree0
    lhs0 = tensor_over_algebra(inst.ksdd.algebra, bs_right, X_ksdd).dim
    rhs0 = tensor_over_algebra(inst.kpar.algebra, B_right, OX).dim
    report.record("tor-form degree 0", lhs0 == rhs0, (lhs0, rhs0))
    return ok_all


def lemma_B_tensor_omega(inst, report):
    """B (x)_{kpar} Omega = B^sigma as right kpar-modules (explicit map)."""
    K = inst.field
    _, B_right = inst.b_over_kpar
    om = inst.omega_right_over_kpar
    T = tensor_over_algebra(inst.kpar.algebra, B_right, om)
    _, bs_right, _ = inst.bsig_modules_over_ksdd
    bs_right_kpar = restrict_along_hom(inst.kpar_to_ksdd, bs_right)
    B_alg = inst.bsig.zeta.source
    pure_images = []
    for ib in range(B_alg.dim):
        zb = inst.bsig.zeta.apply(B_alg.basis_vector(ib))
        row = []
        for io in range(inst.omega.algebra.dim):
            m = inst.omega.surviving[io]
            row.append(bs_right_kpar.act_right(zb,
                                               inst.kpar.monomial_vector(m)))
        pure_images.append(row)
    try:
        M = T.map_from(pure_images, inst.bsig.algebra.dim)
    except Exception as exc:
        report.record("B (x) Omega = B^sigma", False, str(exc))
        return False
    p = _char(K)
    ok = (T.dim == inst.bsig.algebra.dim
          and _rank_of(K, [dict(row) for row in M]) == inst.bsig.algebra.dim)
    # right module map over kpar
    for r in range(inst.kpar.dim):
        if not ok:
            break
        rv = inst.kpar.algebra.basis_vector(r)
        act_T = T.tensor_map(None, om.right_matrix_of(rv))
        if _sp_matmul(M, act_T, p) != \
           _sp_matmul(bs_right_kpar.right_matrix_of(rv), M, p):
            ok = False
    report.record("B (x) Omega = B^sigma", ok,
                  f"dims {T.dim} = {inst.bsig.algebra.dim}")
    return ok


def omega_flatness_spot_check(inst, report, max_n=1):
    """Tor_1^{kpar}(Omega, X) = 0 for the sample modules in the pipeline."""
    om = inst.omega_right_over_kpar
    B_left, _ = inst.b_over_kpar
    samples = [("B", B_left)]
    _, tower = module_tower(inst, 1)
    for q, (_, mod_kpar, _) in enumerate(tower):
        samples.append((f"H_{q}(A,M)", mod_kpar))
    ok = True
    details = []
    om_res = side_resolution(inst, om, "right", max_n + 1)
    for name, X in samples:
        dims = tor_dims(inst.kpar.algebra, om, X, max_n,
                        resolution=om_res)
        details.append((name, dims))
        if any(d != 0 for d in dims[1:]):
            ok = False
    report.record("Omega flatness Tor_1 = 0", ok, details)
    return ok


def hochschild_oracle_check(inst, report, max_n=2):
    """Bar and resolution route Hochschild dims agree for Lambda and for A."""
    lam_alg = inst.lam.algebra
    bar = lam_hochschild_bar(inst, max_n)
    env_res = enveloping_resolution(inst, lam_alg, max_n + 1)
    res = hochschild_homology_resolution(lam_alg, inst.M, max_n,
                                         env_res=env_res)
    ok = bar == res
    report.record("Hochschild dual route (homology)", ok, (bar, res))
    # dim H^n(Lambda, M) = dim H_n(Lambda, M*) on both routes; on the
    # resolution the complex of M* is the transpose of that of Ext(Lambda, M)
    barc = lam_hochschild_bar(inst, max_n, cochain=True)
    resc = hochschild_homology_resolution(lam_alg, dual_bimodule(inst.M),
                                          max_n, env_res=env_res)
    okc = barc == resc
    report.record("Hochschild dual route (cohomology)", okc, (barc, resc))
    MA = inst.m_over_a
    A = inst.theta.algebra
    a_env_res = enveloping_resolution(inst, A, max_n + 1)
    bara = hochschild_homology_bar(A, MA, max_n, cap=inst.chain_cap)
    resa = hochschild_homology_resolution(A, MA, max_n, env_res=a_env_res)
    oka = bara == resa
    report.record("Hochschild dual route (base algebra)", oka, (bara, resa))
    return ok and okc and oka


def collapse_check_separable(inst, report, max_n=2, cochain=False):
    """A separable: dim H_n(Lambda, M) = dim H_n^par(G, M/[A, M]), and
    dim H^n(Lambda, M) = dim H^n_par(G, Hom_{A^e}(A, M)) when `cochain` is
    set."""
    if inst.separability is None:
        report.skip("separable collapse (cohomology)" if cochain
                    else "separable collapse",
                    "A admits no separability idempotent")
        return None
    lhs = lam_hochschild_bar(inst, max_n, cochain=cochain)
    _, tower = module_tower(inst, 0, cochain=cochain)
    _, mod0, _ = tower[0]
    rhs = partial_dims(inst, mod0, max_n, cochain=cochain)
    ok = lhs == rhs
    report.record("separable collapse (cohomology)" if cochain
                  else "separable collapse (homology)", ok, (lhs, rhs))
    return ok


def collapse_check_maclane(inst, report, max_n=2):
    """On universal instances (A = B^sigma): the MacLane-type isomorphism
    dims H_n(kpar^sigma G, M) = H_n^par(G, M/[B, M]); on trivial sigma the
    classical specialization H_*(kpar G, M) = H_*(kG, M) for a G-module M."""
    if not inst.universal:
        report.skip("MacLane collapse", "instance has an external action")
        return None
    # Lambda = B^sigma * G = kpar^sigma G via the verified Phi/Psi pair, so
    # the Hochschild side may be computed on kpar^sigma G itself.
    ks_reg = regular_bimodule(inst.ks.algebra)
    lhs = hochschild_homology_bar(inst.ks.algebra, ks_reg, max_n,
                                  cap=inst.chain_cap)
    lam_side = lam_hochschild_bar(inst, max_n)
    report.record("MacLane: kpar^sigma G = B^sigma * G Hochschild dims",
                  lhs == lam_side, (lhs, lam_side))
    ok = collapse_check_separable(inst, report, max_n=max_n)
    K = inst.field
    trivial = all(inst.sigma(g, h) == K.one
                  for g in range(inst.group.n) for h in range(inst.group.n))
    if trivial:
        kg = group_algebra(K, inst.group)
        quo = AlgebraHom(inst.kpar.algebra, kg,
                         [{inst.monoid.elements[m][1]: 1}
                          for m in inst.kpar.surviving], name="kpar->>kG")
        quo.verify().raise_if_failed()
        Mg = restrict_along_hom(quo, regular_bimodule(kg))
        lhs_par = hochschild_homology_bar(inst.kpar.algebra, Mg, max_n,
                                          cap=inst.chain_cap)
        rhs_g = hochschild_homology_bar(kg, regular_bimodule(kg), max_n,
                                        cap=inst.chain_cap)
        report.record("classical MacLane specialization", lhs_par == rhs_g,
                      (lhs_par, rhs_g))
        ok = ok and (lhs_par == rhs_g)
    return ok


def dimension_bound_check(inst, report, page, max_n=2):
    """sum_{p+q=n} dim E2_{p,q} >= dim H_n(Lambda, M) (with upper indices on
    a cohomological page); equality required on separable instances,
    recorded as collapse-consistent otherwise."""
    orientation = page.orientation
    hoch = lam_hochschild_bar(inst, max_n,
                              cochain=orientation == "cohomological")
    separable = inst.separability is not None
    ok = True
    rows = []
    for n in range(max_n + 1):
        total = sum(page.entry(p, n - p) or 0 for p in range(n + 1))
        target = hoch[n]
        status = total >= target
        if separable and total != target:
            status = False
        rows.append((n, total, target,
                     "collapse-consistent" if total == target else "strict"))
        if not status:
            ok = False
    report.record(f"dimension bound ({orientation})", ok, rows)
    return ok


def _a_tensor_m(A, MA):
    """A (x)_{A^e} M for an A-bimodule M."""
    env = enveloping(A)
    M_left = bimodule_to_left_env_module(env, A, MA)
    return tensor_over_algebra(env,
                               ModuleData(env, A.dim,
                                          right=_env_left_regular(env, A)),
                               M_left)


def structural_identity_suite(inst, report):
    """Exact checks of the bimodule identities connecting Lambda, B^sigma
    and the twisted partial group algebras."""
    K = inst.field
    p = _char(K)
    G = inst.group
    A = inst.theta.algebra
    lam = inst.lam
    M = inst.M
    AG, MG = _crossed_action_matrices(lam, M, inst.xi)
    MA = inst.m_over_a

    # (a-i) e_g . a = 1_g a on A
    ok = True
    for g in range(G.n):
        eg = _sp_matmul(AG[g], AG[G.inv(g)], p)
        mult = A.left_mult_matrix(inst.theta.one[g])
        if eg != mult:
            ok = False
    report.record("e_g.a = 1_g a on A", ok)

    # (a-ii) e_g . x = 1_g x 1_g on M
    ok = True
    for g in range(G.n):
        eg = _sp_matmul(MG[g], MG[G.inv(g)], p)
        one_g = lam.embed_a(inst.theta.one[g])
        mult = _sp_matmul(M.left_matrix_of(one_g), M.right_matrix_of(one_g),
                          p)
        if eg != mult:
            ok = False
    report.record("e_g.x = 1_g x 1_g on M", ok)

    # (a-iii) e_g^sigma (x) y = 1 (x) e_g''.y in B^sigma (x)_{ksdd} Y
    bs_left, bs_right, iota = inst.bsig_modules_over_ksdd
    Y = regular_bimodule(inst.ksdd.algebra)
    T = tensor_over_algebra(inst.ksdd.algebra, bs_right, Y)
    ok = True
    unit_b = inst.bsig.algebra.unit
    for g in range(G.n):
        e_sig = inst.bsig.e_coords[g]
        e_dd = inst.ksdd.e_vector(g)
        for iy in range(Y.dim):
            yv = {iy: 1}
            lhs = T.pure(e_sig, yv)
            rhs = T.pure(unit_b, Y.act_left(e_dd, yv))
            if lhs != rhs:
                ok = False
    report.record("e_g^s (x) y = 1 (x) e_g''.y", ok)

    # (a-iv) e_g.(a (x) x) = a (x) e_g.x = e_g.a (x) x in A (x)_{A^e} M
    TA = _a_tensor_m(A, MA)
    ok = True
    for g in range(G.n):
        # e_g applied to the basis vectors: the columns of its matrices
        Ae = _sp_transpose(_sp_matmul(AG[g], AG[G.inv(g)], p), A.dim)
        Me = _sp_transpose(_sp_matmul(MG[g], MG[G.inv(g)], p), M.dim)
        for ia in range(A.dim):
            av = A.basis_vector(ia)
            eg_a = Ae[ia]
            for im in range(M.dim):
                mv = {im: 1}
                eg_m = Me[im]
                diag = TA.pure(eg_a, eg_m)
                if diag != TA.pure(av, eg_m) or diag != TA.pure(eg_a, mv):
                    ok = False
    report.record("e_g.(a (x) x) identities", ok)

    # (b) + (e): phi: Lambda -> B^sigma (x)_{B''} Lambda, a Lambda-bimodule
    # isomorphism; the bimodule axioms of X (x)_{B''} Lambda are validated.
    bdd_alg, lam_bsdd = inst.lambda_as_bsdd
    bs_right_bdd = []
    for i in range(bdd_alg.dim):
        v = bdd_alg.basis_vector(i)
        bs_right_bdd.append(inst.bsig.algebra.right_mult_matrix(
            iota.apply(v)))
    Bs_right_bdd = ModuleData(bdd_alg, inst.bsig.algebra.dim,
                              right=bs_right_bdd)
    Bs_right_bdd.validate().raise_if_failed()
    TL = tensor_over_algebra(bdd_alg, Bs_right_bdd, lam_bsdd)
    phi_cols = [TL.pure(inst.bsig.algebra.unit, lam.algebra.basis_vector(i))
                for i in range(lam.algebra.dim)]
    phi_mat = _sp_transpose(phi_cols, TL.dim)
    ok_b = (TL.dim == lam.algebra.dim
            and _rank_of(K, [dict(c) for c in phi_cols]) == lam.algebra.dim)
    # bimodule structure on B^sigma (x)_{B''} Lambda (X = B^sigma) and the
    # intertwining phi(u . l . v) = u . phi(l) . v
    left_mats, right_mats = [], []
    for pos, (g, _) in enumerate(lam.basis_index):
        u = lam.algebra.basis_vector(pos)
        gen_mono = inst.ksdd.monoid.gen(G.inv(g))
        x_act = bs_right.right_matrix_of(inst.ksdd.monomial_vector(gen_mono))
        left_mats.append(TL.tensor_map(x_act, lam.algebra.left_mult_matrix(u)))
        right_mats.append(TL.tensor_map(None,
                                        lam.algebra.right_mult_matrix(u)))
    TL_bimod = ModuleData(lam.algebra, TL.dim, left=left_mats,
                          right=right_mats)
    bimod_rep = TL_bimod.validate()
    ok_e = bimod_rep.ok
    for pos in range(lam.algebra.dim):
        u = lam.algebra.basis_vector(pos)
        if _sp_matmul(phi_mat, lam.algebra.left_mult_matrix(u), p) != \
           _sp_matmul(left_mats[pos], phi_mat, p):
            ok_b = False
        if _sp_matmul(phi_mat, lam.algebra.right_mult_matrix(u), p) != \
           _sp_matmul(right_mats[pos], phi_mat, p):
            ok_b = False
    report.record("phi: Lambda = B^sigma (x) Lambda (bimodule iso)", ok_b)
    report.record("X (x)_{B''} Lambda bimodule axioms", ok_e,
                  bimod_rep.violations[:3])

    # bimodule maps are automatically module maps for the conjugation
    # action m -> xi(g) 1_g d_g m 1_{g^-1} d_{g^-1}; verified for the
    # connecting map phi
    _, conj_lam = _crossed_action_matrices(lam, regular_bimodule(lam.algebra),
                                           inst.xi)
    _, conj_T = _crossed_action_matrices(lam, TL_bimod, inst.xi)
    ok_conj = all(_sp_matmul(phi_mat, conj_lam[g], p) ==
                  _sp_matmul(conj_T[g], phi_mat, p) for g in range(G.n))
    report.record("bimodule maps are ksdd-module maps (phi)", ok_conj)

    # (c) M/[Lambda, M] = B^sigma (x)_{ksdd} (A (x)_{A^e} M)
    _, tower = module_tower(inst, 0)
    hd0, _, mod0_ksdd = tower[0]
    TF = tensor_over_algebra(inst.ksdd.algebra, bs_right, mod0_ksdd)
    lamq = commutator_quotient(M)
    ok_c = TF.dim == lamq.dim
    if ok_c:
        # explicit composite map: w (x) cls(a (x) m) -> cls((w . a d_1) . m)
        pure_images = []
        for ib in range(inst.bsig.algebra.dim):
            w_amb = inst.bsig.to_ambient(inst.bsig.algebra.basis_vector(ib))
            row = []
            for ih in range(hd0.dim):
                rep_vec = hd0.reps[ih]     # cycle in C_0 = M
                # w acts through its B^sigma action on Lambda at delta_1;
                # on the A (x) M side the class of a (x) m maps to a.m, and
                # C_0 reps are already elements of M, so apply w via the
                # idempotent-multiplication action and project.
                acted = _bsig_act_on_m(inst, w_amb, rep_vec)
                row.append(lamq.project(acted))
            pure_images.append(row)
        try:
            F_mat = TF.map_from(pure_images, lamq.dim)
            ok_c = _rank_of(K, [dict(row) for row in F_mat]) == lamq.dim
        except Exception as exc:
            ok_c = False
    report.record("M/[Lambda,M] = B^sigma (x) (A (x) M)", ok_c,
                  (TF.dim, lamq.dim))

    # (d) Hom_{Lambda^e}(Lambda, M) = Hom_{ksdd}(B^sigma, Hom_{A^e}(A, M))
    lam_env = enveloping(lam.algebra)
    W_basis = hom_over_algebra(
        lam_env,
        ModuleData(lam_env, lam.algebra.dim,
                   left=_env_left_regular(lam_env, lam.algebra)),
        bimodule_to_left_env_module(lam_env, lam.algebra, M))
    carrier, hom_mod = hom_A_module_structure(lam, M, MA, inst.xi,
                                              inst.ksdd)
    RHS_basis = hom_over_algebra(inst.ksdd.algebra, bs_left, hom_mod)
    ok_d = len(W_basis) == len(RHS_basis)
    if ok_d and W_basis:
        # gamma sends F to the map l -> m.l, m = F(1_B)(1_A); its images
        # must be independent and lie in the span of W_basis.  Maps
        # Lambda -> M are flattened like the unknowns of hom_over_algebra:
        # entry (r, i) at r * n + i
        n = lam.algebra.dim
        unit_b = inst.bsig.algebra.unit
        unit_a = A.unit
        W_span = _Echelon(p)
        for w in W_basis:
            W_span.add({r * n + i: a for r, row in enumerate(w)
                        for i, a in row.items()})
        gammas = []
        for Fm in RHS_basis:
            F1 = _sp_combination([(c, carrier[k]) for k, c in
                                  _sp_matvec(Fm, unit_b, p).items()],
                                 M.dim, p)
            m = _sp_matvec(F1, unit_a, p)
            gammas.append({r * n + i: a for i in range(n)
                           for r, a in _sp_matvec(M.right[i], m, p).items()})
        ok_d = not any(W_span.reduce(dict(g)) for g in gammas) \
            and _rank_of(K, gammas) == len(W_basis)
    report.record("Hom_{L^e}(L,M) = Hom_{ksdd}(B^s, Hom_{A^e}(A,M))", ok_d,
                  (len(W_basis), len(RHS_basis)))
    return report


def _bsig_act_on_m(inst, w_amb, mvec):
    """Action of w in B^sigma on M via phi^-1: w . m means (w acting on
    Lambda at delta_1) applied to m -- concretely multiplication by the
    image of w under the idempotent embedding into Lambda."""
    lam = inst.lam
    terms = []
    for p, c in w_amb.items():
        mask, g = inst.monoid.elements[inst.ks.surviving[p]]
        assert g == 0
        e = lam.theta.mask_idempotent(inst.monoid, mask)
        terms.append((c, inst.M.act_left(lam.embed_a(e), mvec)))
    return _sp_sum(terms, lam.algebra.p)


def degree_zero_formula_check(inst, report):
    """The induced degree-0 action on H_0 = M/[A,M] coincides with the
    tensor-side formula [g].(a (x) m) = [g].a (x) [g].m on A (x)_{A^e} M."""
    K = inst.field
    G = inst.group
    A = inst.theta.algebra
    M = inst.M
    _, tower = module_tower(inst, 0)
    hd0, mod0, _ = tower[0]
    MA = inst.m_over_a
    T = _a_tensor_m(A, MA)
    ok = T.dim == hd0.dim
    if ok:
        pure_images = []
        for ia in range(A.dim):
            avec = A.basis_vector(ia)
            row = []
            for im in range(M.dim):
                row.append(hd0.express(MA.act_left(avec, {im: 1})))
            pure_images.append(row)
        phi0 = T.map_from(pure_images, hd0.dim)
        ok = _rank_of(K, [dict(row) for row in phi0]) == hd0.dim
        AG, MG = _crossed_action_matrices(inst.lam, M, inst.xi)
        p = _char(K)
        for g in range(G.n):
            if not ok:
                break
            Tg_tensor = T.tensor_map(AG[g], MG[g])
            Tg_h0 = mod0.left_matrix_of(
                inst.kpar.monomial_vector(inst.kpar.monoid.gen(g)))
            if _sp_matmul(phi0, Tg_tensor, p) != _sp_matmul(Tg_h0, phi0, p):
                ok = False
    report.record("degree-0 action matches tensor formula", ok,
                  (T.dim, hd0.dim))
    return ok


def run_all_checks(inst, max_p=2, max_q=2, max_n=2):
    """The complete verdict battery on one instance."""
    report = SpectralCheckReport(inst.name)
    with report.timed():
        hochschild_oracle_check(
            inst, report, max_n=3 if inst.lam.algebra.dim <= 6 else 2)
    # assemble the pages first so the chain-action towers are built once at
    # the largest degree and reused by every later check; their time goes
    # to the dimension bounds they feed
    with report.timed(["dimension bound (homological)",
                       "dimension bound (cohomological)"]):
        page = assemble_E2(inst, max_p, max_q)
        pagec = assemble_E2(inst, max_p, max_q, cochain=True)
    for check in (
            partial(tor_form_consistency, max_p=max_p, max_q=min(1, max_q)),
            lemma_B_tensor_omega, omega_flatness_spot_check,
            partial(collapse_check_separable, max_n=max_n),
            partial(collapse_check_separable, max_n=max_n, cochain=True),
            partial(collapse_check_maclane, max_n=max_n),
            degree_zero_formula_check, structural_identity_suite,
            partial(dimension_bound_check, page=page, max_n=max_n),
            partial(dimension_bound_check, page=pagec, max_n=max_n)):
        with report.timed():
            check(inst, report)
    return report, page, pagec
