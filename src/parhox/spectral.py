"""Assembly of the second spectral-sequence pages and the full battery of
identity / isomorphism / collapse / bound checks run on an Instance.

The spectral differentials are never constructed; what is machine-checked
is every computable consequence: the two collapse isomorphisms, the
Tor-form bridge, the structural identities, and the subquotient dimension
bound sum(dim E2_{p,q}, p+q = n) >= dim H_n(Lambda, M), with equality
required on separable instances.

The first-quadrant homological sequence, E2_{p,q} = H_p^par(G, H_q(A, M)),
and the third-quadrant cohomological one, E2^{p,q} = H^p_par(G, H^q(A, M)),
are one construction on two coefficients: the cohomological page has the
dims of the homological page of the dual bimodule M* (`module_tower` has
the proof).  Each step that has both (the chain-action tower, the page,
the separable collapse, the Hochschild dims of Lambda) is one function
whose `dual` flag picks the coefficient, M or M*, and the record names.
The bar-route dims of H_*(Lambda, M) and H^*(Lambda, M) have one source,
`lam_hochschild_bar`, memoized on the instance, which every check reads.
"""

import time
from functools import partial

from .algebras import (AlgebraHom, ModuleData, bimodule_hom,
                       commutator_quotient, group_algebra, hom_over_algebra,
                       orthogonalize_idempotents, regular_bimodule,
                       restrict_along_hom, tensor_over_algebra)
from .homology import (FreeResolution, SplitResolution,
                       _crossed_action_matrices, diagonal_action,
                       env_resolution, free_resolution,
                       hochschild_homology_bar, hochschild_homology_resolution,
                       hochschild_homology_separable,
                       hom_A_module_structure, homology_dims_of_complex,
                       induced_action_on_homology, relative_bar_complex,
                       splitting_idempotent, tor_dims)
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
        self.criteria = []                       # the row criterion of each
        self.seconds = {}                        # criterion -> s, not in JSON

    def record(self, name, ok, detail=""):
        self.checks.append((name, "pass" if ok else "fail", detail))

    def skip(self, name, reason):
        self.checks.append((name, "skipped", reason))

    def run_row(self, criterion, check, inst):
        """One battery row: check(inst, self), its records and skips stamped
        with `criterion` and its wall time, measured whole, added to
        `seconds[criterion]`."""
        t0 = time.monotonic()
        check(inst, self)
        self.seconds[criterion] = (self.seconds.get(criterion, 0.0)
                                   + time.monotonic() - t0)
        self.criteria += [criterion] * (len(self.checks) - len(self.criteria))

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


def module_tower(inst, max_q, dual=False):
    """H_q(A, M), or H_q(A, M*) when `dual` is set, for q <= max_q, as
    (hd, kappa_par G module, kappa_par^{sigma''} G module); the last is
    built for M only, as nothing reads it for M*, and is None for M*.
    Both towers live on A's relative bar complex over the atoms of the
    1_g, the one the base-algebra oracle reads (`a_bar_complex`,
    `homology.diagonal_action`), and pass the chain-action gate
    (d.d = 0, equivariance, the sigma'' relations) and the ker(zeta)
    annihilator gate.  Memoized on the instance.

    The M* tower carries the cohomological page, dim E2^{p,q}(M) =
    dim Tor_p^{kpar}(B, H_q(A, M*)).  Why:

      * C^q(A, M) = Hom(A^(x q), M) is C_q(A, M*)^*, in the M-major
        basis of the full bar complex of M*, and its coboundary is the
        transpose of the bar boundary of M* (Cartan-Eilenberg, ch. IX).
        The quotient map of that full complex onto the relative one is
        G-equivariant and a quasi-isomorphism, so the relative tower has
        the same H_q(A, M*) with the same action.  The cochain action
        (T_g f)(a1..aq) = [g].f([g^-1].a1, ..., [g^-1].aq) is
        T_g = (T^{M*}_{g^-1})^T: its A-part is AG[g^-1]^T, and
        MG^{M*}[g^-1]^T = (xi(g^-1) / xi(g)) MG^M[g] = MG^M[g] because
        xi(g) = xi(g^-1), which xi_sigma_double_prime guarantees;
      * so H^q(A, M) = H_q(A, M*)^* =: Y^*, with the contragredient
        action [g].f = f o [g^-1], and
        Ext^p_{kpar}(B, Y^*) = Tor_p^{kpar}(Y, B)^* by Hom-tensor
        adjunction, Y being a right module through [g^-1];
      * the anti-involution [g] -> [g^-1] of kappa_par G turns
        Tor^{kpar}(Y, B) into Tor^{kpar}(B', Y) with Y = H_q(A, M*) as
        the left module it is, and B' the right module
        b.[g] = [g^-1].b, which is B_right.
    """
    def build(length):
        M, _ = inst.coefficient(dual)
        gmod = diagonal_action(a_bar_complex(inst, length + 1, dual),
                               inst.crossed_action(M), inst.sigma_dd,
                               length + 1)
        ann = inst.ker_zeta_in_kpar()
        tower = []
        for q in range(length + 1):
            hd, mod_kpar = induced_action_on_homology(gmod, q, inst.kpar,
                                                      annihilator_vectors=ann)
            mod_ksdd = None if dual else induced_action_on_homology(
                gmod, q, inst.ksdd, hd=hd)[1]
            tower.append((hd, mod_kpar, mod_ksdd))
        return gmod, tower
    return inst.longest(("tower", dual), max_q, build)


def a_bar_complex(inst, length, dual=False):
    """(ChainComplex, _BarBasis) of A's relative bar complex over the atoms
    of the 1_g (`Instance.a_atoms`) with coefficients in M|A, or in M*|A
    when `dual` is set, to degree `length`: the one complex of the
    base-algebra oracle and of the chain-action tower.  Memoized on the
    instance."""
    return inst.longest(("a_bar", dual), length,
                        lambda l: relative_bar_complex(
                            inst.theta.algebra, inst.coefficient(dual)[1],
                            inst.a_atoms, l, cap=inst.chain_cap))


def right_resolution(inst, module, length):
    """The instance's resolution of `module` as a right module over the
    algebra it lives on (B and Omega over kappa_par G, B^sigma over
    kappa_par^{sigma''} G), reaching degree `length`, bounded by the
    instance's chain cap and memoized on the instance per module.  The
    route is picked once per module (`resolution_start`): the length-0
    resolution 0 -> eR -> X -> 0 when X = eR for a verified splitting
    idempotent e, otherwise the free resolution, continued from the
    degrees the splitting attempt built."""
    start = resolution_start(inst, module)
    if isinstance(start, SplitResolution):
        return start
    return inst.longest(("resolution", module), length,
                        lambda l: free_resolution(start.R, module, "right",
                                                  l, begun=start))


def resolution_start(inst, module):
    """The SplitResolution of `module` when it has a splitting idempotent
    (`splitting_idempotent`, tried on the free resolution begun to degree
    1), else that begun FreeResolution.  Memoized on the instance."""
    def attempt(_):
        R = module.algebra
        begun = FreeResolution(R, module, "right",
                               cap=inst.chain_cap).extend(1)
        e = splitting_idempotent(begun, inst.chain_cap)
        return begun if e is None else SplitResolution(R, e)
    return inst.longest(("resolution start", module), 0, attempt)


def enveloping_resolution(inst, R, length):
    """(R^e, the free resolution of R as a left R^e-module), bounded by the
    instance's chain cap and memoized on the instance per algebra (Lambda
    or A)."""
    return inst.longest(("env_resolution", R), length,
                        lambda l: env_resolution(R, l, cap=inst.chain_cap))


def lam_hochschild_bar(inst, n, dual=False):
    """dim H_q(Lambda, M), or dim H_q(Lambda, M*) = dim H^q(Lambda, M) when
    `dual` is set, for q <= n on the bar route: the one source of these
    dims for the oracle, the collapse and dimension-bound checks and
    `parhox hochschild`.  The complex is relative to the atoms of A's 1_g
    embedded at delta_1 (`Instance.lam_atoms`).  Memoized on the instance,
    which keeps the dims only, not the complexes."""
    return inst.longest(("hoch_bar", dual), n,
                        lambda l: hochschild_homology_bar(
                            inst.lam.algebra, inst.coefficient(dual)[0], l,
                            atoms=inst.lam_atoms,
                            cap=inst.chain_cap))[:n + 1]


def resolution_route(inst, R, e, M, n):
    """dim H_q(R, M) for q <= n on the resolution route, R being Lambda or
    A and e its separability idempotent from the instance: the length-0
    resolution R = R^e e when there is one, the instance's free resolution
    of R as a left R^e-module when e is None."""
    if e is not None:
        return hochschild_homology_separable(R, e, M, n)
    return hochschild_homology_resolution(
        R, M, n, env_res=enveloping_resolution(inst, R, n + 1))


def lam_hochschild_resolution(inst, n, dual=False):
    """The dims of `lam_hochschild_bar` on the resolution route."""
    return resolution_route(inst, inst.lam.algebra, inst.lam_separability,
                            inst.coefficient(dual)[0], n)


def partial_dims(inst, X, max_n):
    """dim H_n^par(G, X) = dim Tor_n^{kpar}(B, X) for n <= max_n, on the
    instance's resolution of B as a right module."""
    _, B_right = inst.b_over_kpar
    return tor_dims(inst.kpar.algebra, B_right, X, max_n,
                    resolution=right_resolution(inst, B_right, max_n + 1))


def assemble_E2(inst, max_p, max_q, dual=False):
    """E2_{p,q} = H_p^par(G, H_q(A, M)), or, when `dual` is set, the
    cohomological page E2^{p,q} = H^p_par(G, H^q(A, M)), whose dims are
    those of H_p^par(G, H_q(A, M*)) (`module_tower`)."""
    _, tower = module_tower(inst, max_q, dual=dual)
    entries = {}
    for q in range(max_q + 1):
        _, mod_kpar, _ = tower[q]
        dims = partial_dims(inst, mod_kpar, max_p)
        entries.update(((p, q), d) for p, d in enumerate(dims))
    return E2Page("cohomological" if dual else "homological", entries)


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
                       resolution=right_resolution(inst, bs_right,
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
        return
    p = _char(K)
    ok = (T.dim == inst.bsig.algebra.dim
          and _rank_of(K, [dict(row) for row in M]) == inst.bsig.algebra.dim)
    # right module map over kpar, decided over its generators
    for r in inst.kpar.algebra.generators:
        if not ok:
            break
        rv = inst.kpar.algebra.basis_vector(r)
        act_T = T.tensor_map(None, om.right_matrix_of(rv))
        if _sp_matmul(M, act_T, p) != \
           _sp_matmul(bs_right_kpar.right_matrix_of(rv), M, p):
            ok = False
    report.record("B (x) Omega = B^sigma", ok,
                  f"dims {T.dim} = {inst.bsig.algebra.dim}")


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
    om_res = right_resolution(inst, om, max_n + 1)
    for name, X in samples:
        dims = tor_dims(inst.kpar.algebra, om, X, max_n,
                        resolution=om_res)
        details.append((name, dims))
        if any(d != 0 for d in dims[1:]):
            ok = False
    report.record("Omega flatness Tor_1 = 0", ok, details)


def hochschild_oracle_check(inst, report, max_n=2):
    """Bar and resolution route Hochschild dims agree for Lambda and for A
    (`resolution_route`), in both orientations for Lambda."""
    bar = lam_hochschild_bar(inst, max_n)
    res = lam_hochschild_resolution(inst, max_n)
    ok = bar == res
    report.record("Hochschild dual route (homology)", ok, (bar, res))
    # dim H^n(Lambda, M) = dim H_n(Lambda, M*) on both routes
    barc = lam_hochschild_bar(inst, max_n, dual=True)
    resc = lam_hochschild_resolution(inst, max_n, dual=True)
    okc = barc == resc
    report.record("Hochschild dual route (cohomology)", okc, (barc, resc))
    bara = homology_dims_of_complex(a_bar_complex(inst, max_n + 1)[0],
                                    max_n)
    resa = resolution_route(inst, inst.theta.algebra, inst.separability,
                            inst.m_over_a, max_n)
    oka = bara == resa
    report.record("Hochschild dual route (base algebra)", oka, (bara, resa))


def collapse_check_separable(inst, report, max_n=2, dual=False):
    """A separable: dim H_n(Lambda, M) = dim H_n^par(G, M/[A, M]), and
    dim H^n(Lambda, M) = dim H^n_par(G, Hom_{A^e}(A, M)) when `dual` is
    set, read as the same identity for M* (`module_tower`)."""
    if inst.separability is None:
        report.skip("separable collapse (cohomology)" if dual
                    else "separable collapse",
                    "A admits no separability idempotent")
        return
    lhs = lam_hochschild_bar(inst, max_n, dual=dual)
    _, tower = module_tower(inst, 0, dual=dual)
    _, mod0, _ = tower[0]
    rhs = partial_dims(inst, mod0, max_n)
    ok = lhs == rhs
    report.record("separable collapse (cohomology)" if dual
                  else "separable collapse (homology)", ok, (lhs, rhs))


def collapse_check_maclane(inst, report, max_n=2):
    """On universal instances (A = B^sigma): the MacLane-type isomorphism
    dims H_n(kpar^sigma G, M) = H_n^par(G, M/[B, M]); on trivial sigma the
    classical specialization H_*(kpar G, M) = H_*(kG, M) for a G-module M."""
    if not inst.universal:
        report.skip("MacLane collapse", "instance has an external action")
        return
    # Lambda = B^sigma * G = kpar^sigma G via the verified Phi/Psi pair, so
    # the Hochschild side may be computed on kpar^sigma G itself, relative
    # to the atoms of its e_g
    ks_reg = regular_bimodule(inst.ks.algebra)
    lhs = hochschild_homology_bar(inst.ks.algebra, ks_reg, max_n,
                                  atoms=_e_atoms(inst.ks),
                                  cap=inst.chain_cap)
    lam_side = lam_hochschild_bar(inst, max_n)
    report.record("MacLane: kpar^sigma G = B^sigma * G Hochschild dims",
                  lhs == lam_side, (lhs, lam_side))
    collapse_check_separable(inst, report, max_n=max_n)
    K = inst.field
    trivial = all(inst.sigma(g, h) == K.one
                  for g in range(inst.group.n) for h in range(inst.group.n))
    if trivial:
        kg = group_algebra(K, inst.group)
        quo = AlgebraHom(inst.kpar.algebra, kg,
                         [{inst.monoid.elements[m][1]: 1}
                          for m in inst.kpar.surviving], name="kpar->>kG")
        quo.verify().raise_if_failed()
        kg_reg = regular_bimodule(kg)
        Mg = restrict_along_hom(quo, kg_reg)
        lhs_par = hochschild_homology_bar(inst.kpar.algebra, Mg, max_n,
                                          atoms=_e_atoms(inst.kpar),
                                          cap=inst.chain_cap)
        rhs_g = hochschild_homology_bar(kg, kg_reg, max_n,
                                        cap=inst.chain_cap)
        report.record("classical MacLane specialization", lhs_par == rhs_g,
                      (lhs_par, rhs_g))


def _e_atoms(ktw):
    """The atoms of the Boolean algebra generated by the e_g of a twisted
    partial group algebra."""
    return orthogonalize_idempotents(ktw.algebra, ktw.e_vectors)


def dimension_bound_check(inst, report, page, max_n=2):
    """sum_{p+q=n} dim E2_{p,q} >= dim H_n(Lambda, M) (with upper indices on
    a cohomological page); equality required on separable instances,
    recorded as collapse-consistent otherwise."""
    orientation = page.orientation
    hoch = lam_hochschild_bar(inst, max_n,
                              dual=orientation == "cohomological")
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


def structural_identity_suite(inst, report):
    """Exact checks of the bimodule identities connecting Lambda, B^sigma
    and the twisted partial group algebras."""
    K = inst.field
    p = _char(K)
    G = inst.group
    A = inst.theta.algebra
    lam = inst.lam
    M = inst.M
    AG, MG = inst.crossed_action(M)

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
    TA = inst.a_tensor_m
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
    lam_reg = inst.lam_regular
    _, conj_lam = inst.crossed_action(lam_reg)
    _, conj_T = _crossed_action_matrices(lam, TL_bimod, inst.xi)
    ok_conj = all(_sp_matmul(phi_mat, conj_lam[g], p) ==
                  _sp_matmul(conj_T[g], phi_mat, p) for g in range(G.n))
    report.record("bimodule maps are ksdd-module maps (phi)", ok_conj)

    # (c) M/[Lambda, M] = B^sigma (x)_{ksdd} (A (x)_{A^e} M)
    gmod, tower = module_tower(inst, 0)
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
                # a cycle in C_0 = sum_i e_i M e_i, included into M
                rep_vec = gmod.basis.include_c0(hd0.reps[ih])
                # w acts through its B^sigma action on Lambda at delta_1;
                # on the A (x) M side the class of a (x) m maps to a.m, so
                # apply w via the idempotent-multiplication action and
                # project.
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
    W_basis = bimodule_hom(lam_reg, M)
    carrier, hom_mod = hom_A_module_structure(inst.a_regular, inst.m_over_a,
                                              (AG, MG), inst.ksdd)
    RHS_basis = hom_over_algebra(inst.ksdd.algebra, bs_left, hom_mod)
    ok_d = len(W_basis) == len(RHS_basis)
    if ok_d and W_basis:
        # gamma sends F to the map l -> m.l, m = F(1_B)(1_A); its images
        # must be independent and lie in the span of W_basis.  Maps
        # Lambda -> M are flattened like the unknowns of bimodule_hom:
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
    gmod, tower = module_tower(inst, 0)
    hd0, mod0, _ = tower[0]
    MA = inst.m_over_a
    T = inst.a_tensor_m
    ok = T.dim == hd0.dim
    if ok:
        pure_images = []
        for ia in range(A.dim):
            avec = A.basis_vector(ia)
            row = []
            for im in range(M.dim):
                row.append(hd0.express(gmod.basis.project_c0(
                    MA.act_left(avec, {im: 1}))))
            pure_images.append(row)
        phi0 = T.map_from(pure_images, hd0.dim)
        ok = _rank_of(K, [dict(row) for row in phi0]) == hd0.dim
        AG, MG = inst.crossed_action(M)
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


def run_all_checks(inst, max_p=2, max_q=2, max_n=2):
    """The complete verdict battery on one instance: one ordered table of
    (criterion, check) rows, each check called as check(inst, report).
    The pages are assembled first, so the chain-action towers are built
    once at the largest degree and reused by every later check; their time
    goes to the dimension bounds they feed."""
    report = SpectralCheckReport(inst.name)
    pages = []

    def assemble_pages(inst, report):
        pages.extend(assemble_E2(inst, max_p, max_q, dual=dual)
                     for dual in (False, True))

    def dimension_bound(dual):
        return lambda inst, report: dimension_bound_check(
            inst, report, pages[dual], max_n=max_n)

    for criterion, check in (
            ("hochschild oracles", partial(
                hochschild_oracle_check,
                max_n=3 if inst.lam.algebra.dim <= 6 else 2)),
            ("dimension bound", assemble_pages),
            ("tor-form bridge", partial(tor_form_consistency, max_p=max_p,
                                        max_q=min(1, max_q))),
            ("tor-form bridge", lemma_B_tensor_omega),
            ("structural suite", omega_flatness_spot_check),
            ("collapse isomorphisms", partial(collapse_check_separable,
                                              max_n=max_n)),
            ("collapse isomorphisms", partial(collapse_check_separable,
                                              max_n=max_n, dual=True)),
            ("collapse isomorphisms", partial(collapse_check_maclane,
                                              max_n=max_n)),
            ("equivariance gate", degree_zero_formula_check),
            ("structural suite", structural_identity_suite),
            ("dimension bound", dimension_bound(False)),
            ("dimension bound", dimension_bound(True))):
        report.run_row(criterion, check, inst)
    page, pagec = pages
    return report, page, pagec
