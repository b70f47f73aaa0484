"""One fully-built verification instance: the group, the factor-set tower
sigma -> sigma* -> sigma' -> (xi, sigma''), the partial group algebras,
B^sigma / Omega, the twisted partial action with its crossed product, and
the coefficient bimodule.  Everything is validated at construction; the
spectral-sequence checks consume instances.
"""

from functools import cached_property

from .errors import InvalidInput
from .algebras import (regular_bimodule, restrict_along_hom,
                       separability_idempotent)
from .factor_sets import (EquivalenceWitness, trivial_factor_set,
                          normalize_inverse_pairs, sigma_prime,
                          involution_star, xi_sigma_double_prime)
from .groups import enumerate_exel
from .homology import DEFAULT_CHAIN_CAP, m_as_a_bimodule
from .partial_actions import (TwistedPartialAction, build_crossed_product,
                              check_ideal_splittings, gamma_sigma,
                              transport_by_equivalence, validate_twisted)
from .partial_algebras import (b_sigma_module_structures, build_B_sigma_omega,
                               build_kpar, build_kpar_idempotent,
                               build_kpar_sigma, check_defining_relations,
                               lambda_as_bsdd_module, monomial_projection_hom,
                               phi_psi_crossed_iso)

__all__ = ["Instance", "DEFAULT_MONOID_LIMIT"]

DEFAULT_MONOID_LIMIT = 512      # the default bound on |S(G)|


class Instance:
    def __init__(self, name, field, group, sigma=None, theta=None,
                 module=None, monoid_limit=DEFAULT_MONOID_LIMIT):
        """theta: a TwistedPartialAction or None (then the universal action
        on B^sigma is used); module: a function building the coefficient
        Lambda-bimodule from the crossed product, or None (then the regular
        bimodule); sigma defaults to the trivial twist and must agree with
        theta.sigma when both are given."""
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
        if not sigma.is_inverse_normalized():
            eta, nu, rep = normalize_inverse_pairs(sigma, want_square_roots=False)
            rep.raise_if_failed()
            self.eta = eta
            if theta is not None:
                theta = transport_by_equivalence(theta, eta)[0]
            sigma = nu
        self.sigma = sigma
        self.sigma_star = involution_star(sigma)
        self.sigma_prime = sigma_prime(sigma)
        self.xi, self.sigma_dd = xi_sigma_double_prime(sigma)
        # partial group algebras
        self.kpar = build_kpar(G, K, monoid=self.monoid)
        self.ks = build_kpar_sigma(sigma, monoid=self.monoid)
        self.ksdd = build_kpar_idempotent(self.sigma_dd, monoid=self.monoid)
        check_defining_relations(self.ks).raise_if_failed()
        rep = self.ks.canonical_representation()
        rep.validate(factor_set_property=True).raise_if_failed()
        self.bsig, self.omega = build_B_sigma_omega(self.kpar, self.ks,
                                                    ksdd=self.ksdd)
        # the crossed product: universal on B^sigma unless an action is given
        self.universal = theta is None
        if theta is None:
            lam, phi, psi, subres, act = phi_psi_crossed_iso(self.ks)
            self.lam = lam
            self.phi, self.psi = phi, psi
            self.theta = lam.theta
        else:
            validate_twisted(theta, G).raise_if_failed()
            self.theta = theta
            self.lam = build_crossed_product(theta)
            self.phi = self.psi = None
        check_ideal_splittings(self.theta).raise_if_failed()
        gamma_sigma(self.lam)          # canonical rep gates
        self.M = regular_bimodule(self.lam.algebra) if module is None \
            else module(self.lam)
        if self.M.dim:
            self.M.validate().raise_if_failed()
        self.chain_cap = DEFAULT_CHAIN_CAP
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
    def m_over_a(self):
        """M|A: the coefficient bimodule restricted to A."""
        return m_as_a_bimodule(self.lam, self.M)

    @cached_property
    def b_over_kpar(self):
        """(B left, B right): B with its untwisted kappa_par G-module
        structures."""
        K = self.field
        xi1 = EquivalenceWitness(self.group, K, [K.one] * self.group.n)
        left, right, _ = b_sigma_module_structures(self.kpar, self.kpar, xi1)
        return left, right

    @cached_property
    def bsig_modules_over_ksdd(self):
        """(left, right, iota) for B^sigma over kappa_par^{sigma''} G."""
        return b_sigma_module_structures(self.ks, self.ksdd, self.xi,
                                         bsig=self.bsig)

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
    def separability(self):
        return separability_idempotent(self.theta.algebra)
