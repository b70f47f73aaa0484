"""One fully-built verification instance: the group, the factor-set tower
sigma -> sigma* -> sigma' -> (xi, sigma''), the partial group algebras,
B^sigma / Omega, the twisted partial action with its crossed product, and
the coefficient bimodule; the spectral-sequence checks consume instances.
A structure that two checks read is built once, on first use, and kept on
the instance.

Construction decides each statement once.  Associativity: by Light's
test for kappa_par^sigma G; by the lemma of `partial_algebras._monoid_quotient`
for kappa_par G, kappa_par^{sigma''} G and Omega, quotients of kappa S(G)
by semigroup ideals, which rests on the associativity of G that
`FiniteGroup` checks; and for Lambda by the theorem of Dokuchaev-Exel-Simon
whose hypotheses are the gates of `validate_twisted`, run by
`build_crossed_product` once per crossed product it builds (the partial
action, with each splitting A = 1_g A + (1 - 1_g) A, is its first step,
`validate_partial_action`).  The maps zeta, kpar ->> Omega and Phi are
decided by `verify`, and Psi as the inverse of Phi (`phi_psi_crossed_iso`).
Only a module given in the problem file is validated as a bimodule.  The
axioms of the regular one are the associativity triples (s, j, x),
(x, s, j) and (s, x, t) of Lambda, s and t generators, and Lambda's unit
law, so `regular_bimodule(A).validate().ok == A.validate().ok` for every
table; a module restricted along an algebra map, such as M|A along
a -> a delta_1, is one by `restrict_along_hom`.
"""

from functools import cached_property

from .errors import InvalidInput
from .algebras import (bimodule_tensor, dual_bimodule,
                       orthogonalize_idempotents, regular_bimodule,
                       restrict_along_hom, separability_idempotent)
from .factor_sets import (EquivalenceWitness, trivial_factor_set,
                          normalize_inverse_pairs, sigma_prime,
                          xi_sigma_double_prime)
from .groups import enumerate_exel
from .homology import DEFAULT_CHAIN_CAP, _crossed_action_matrices
from .partial_actions import (build_crossed_product, gamma_sigma,
                              transport_by_equivalence)
from .partial_algebras import (b_sigma_iota, b_sigma_module_structures,
                               build_B_sigma_omega, build_kpar,
                               build_kpar_idempotent, build_kpar_sigma,
                               check_defining_relations, lambda_as_bsdd_module,
                               monomial_projection_hom, phi_psi_crossed_iso)

__all__ = ["Instance", "DEFAULT_MONOID_LIMIT"]

DEFAULT_MONOID_LIMIT = 512      # the default bound on |S(G)|


class Instance:
    def __init__(self, name, field, group, sigma=None, theta=None,
                 module=None, monoid_limit=DEFAULT_MONOID_LIMIT,
                 chain_cap=DEFAULT_CHAIN_CAP):
        """theta: a TwistedPartialAction or None (then the universal action
        on B^sigma is used); module: a function building the coefficient
        Lambda-bimodule from the crossed product, or None (then the regular
        bimodule); sigma defaults to the trivial twist and must agree with
        theta.sigma when both are given; chain_cap bounds every complex and
        resolution the checks build."""
        self.name = name
        self.field = field
        self.group = group
        K = field
        G = group
        if theta is not None and sigma is None:
            sigma = theta.sigma
        if sigma is None:
            sigma = trivial_factor_set(G, K)
        if theta is not None and theta.sigma.table != sigma.table:
            raise InvalidInput("sigma disagrees with the twist of theta")
        self.monoid = enumerate_exel(G, size_limit=monoid_limit)
        # inverse-pair normalization (records the witness when nontrivial)
        self.eta = None
        lam = None
        if not sigma.is_inverse_normalized():
            eta, nu, rep = normalize_inverse_pairs(sigma)
            rep.raise_if_failed()
            self.eta = eta
            if theta is not None:
                # the nu-twisted action, validated, and its crossed product
                theta, lam = transport_by_equivalence(theta, eta)[:2]
            sigma = nu
        self.sigma = sigma
        self.sigma_prime = sigma_prime(sigma)
        self.xi, self.sigma_dd = xi_sigma_double_prime(sigma)
        # partial group algebras
        self.kpar = build_kpar(G, K, monoid=self.monoid)
        self.ks = build_kpar_sigma(sigma, monoid=self.monoid)
        self.ksdd = build_kpar_idempotent(self.sigma_dd, monoid=self.monoid)
        check_defining_relations(self.ks).raise_if_failed()
        self.bsig, self.omega = build_B_sigma_omega(self.kpar, self.ks)
        # the crossed product: universal on B^sigma unless an action is given
        self.universal = theta is None
        self.phi = self.psi = None
        if theta is None:
            lam, self.phi, self.psi, _, _ = phi_psi_crossed_iso(self.ks)
            theta = lam.theta
        elif lam is None:
            lam = build_crossed_product(theta)
        self.theta, self.lam = theta, lam
        gamma_sigma(self.lam)          # canonical rep gates
        self.M = self.lam_regular if module is None else module(self.lam)
        if module is not None and self.M.dim:
            self.M.validate().raise_if_failed()
        self.chain_cap = chain_cap
        self._longest = {}

    def longest(self, key, length, build):
        """build(length), memoized under key: the longest result built so
        far is kept and reused for every length it covers."""
        have = self._longest.get(key)
        if have is None or have[0] < length:
            have = self._longest[key] = (length, build(length))
        return have[1]

    # -- module structures ------------------------------------------------

    @cached_property
    def lam_regular(self):
        """Lambda as a bimodule over itself (the coefficient M by default)."""
        return regular_bimodule(self.lam.algebra)

    @cached_property
    def a_regular(self):
        """A as a bimodule over itself."""
        return regular_bimodule(self.theta.algebra)

    @cached_property
    def a_tensor_m(self):
        """A (x)_{A^e} M, with M restricted to A."""
        return bimodule_tensor(self.a_regular, self.m_over_a)

    def crossed_action(self, X):
        """(AG, MG) of `_crossed_action_matrices` for a Lambda-bimodule X
        (M, M*, Lambda itself), built once per X."""
        return self.longest(("crossed_action", X), 0,
                            lambda _: _crossed_action_matrices(self.lam, X,
                                                               self.xi))

    @cached_property
    def m_over_a(self):
        """M|A: the coefficient bimodule restricted to A along
        a -> a delta_1 (`CrossedProductAlgebra.embedding`)."""
        return restrict_along_hom(self.lam.embedding, self.M,
                                  name=f"{self.M.name}|A")

    @cached_property
    def _m_dual(self):
        return dual_bimodule(self.M), dual_bimodule(self.m_over_a)

    def coefficient(self, dual=False):
        """(M, M|A), or (M*, M*|A) for the dual bimodule M* when `dual` is
        set: the cohomology side reads H^q(-, M) as H_q(-, M*)."""
        return self._m_dual if dual else (self.M, self.m_over_a)

    @cached_property
    def b_over_kpar(self):
        """(B left, B right): B with its untwisted kappa_par G-module
        structures."""
        K = self.field
        xi1 = EquivalenceWitness(self.group, K, [K.one] * self.group.n)
        return b_sigma_module_structures(self.kpar, self.kpar, xi1)

    @cached_property
    def bsig_modules_over_ksdd(self):
        """(left, right, iota) for B^sigma over kappa_par^{sigma''} G."""
        return (*b_sigma_module_structures(self.ks, self.ksdd, self.xi),
                b_sigma_iota(self.ks, self.ksdd))

    @cached_property
    def kpar_to_ksdd(self):
        return monomial_projection_hom(self.kpar, self.ksdd)

    @cached_property
    def omega_right_over_kpar(self):
        om_reg = regular_bimodule(self.omega.algebra)
        return restrict_along_hom(self.omega.projection, om_reg)

    def ker_zeta_in_kpar(self):
        """ker(zeta) generators as elements of kappa_par G."""
        B_positions = self.kpar.idempotent_positions()
        return [{B_positions[i]: c for i, c in kv.items()}
                for kv in self.bsig.ker_zeta_basis]

    @cached_property
    def lambda_as_bsdd(self):
        return lambda_as_bsdd_module(self.lam, self.ksdd)

    @cached_property
    def a_atoms(self):
        """The atoms of the Boolean algebra generated by the 1_g in A:
        orthogonal idempotents summing to 1 that span the separable
        subalgebra S of every S-relative bar complex of A."""
        return orthogonalize_idempotents(self.theta.algebra, self.theta.one)

    @cached_property
    def lam_atoms(self):
        """The atoms of A embedded in Lambda at delta_1."""
        return [self.lam.embed_a(e) for e in self.a_atoms]

    @cached_property
    def separability(self):
        """A separability idempotent of A, or None when A has none."""
        return separability_idempotent(self.theta.algebra,
                                       cap=self.chain_cap)

    @cached_property
    def lam_separability(self):
        """A separability idempotent of Lambda, or None when Lambda has
        none."""
        return separability_idempotent(self.lam.algebra, cap=self.chain_cap)
