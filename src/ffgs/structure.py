"""Structural analysis of finite flat group schemes of small order.

Fiberwise invariants (infinitesimal and separable rank), the
connected-etale sequence over fields and Artin local bases, Frobenius
and Verschiebung with the order-p classifier, p-primary decomposition,
the loci where an order-p subgroup exists, and the full decomposition
pipeline producing a re-verifiable certificate:

    1 -> G' -> G -> G'' -> 1

with G'' etale, G' a product of normal prime-order subgroups (on the
supported bases trivial or one order-p subgroup), and a splitting
section searched for on points over the test-ring family.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .linalg import (
    canonical_span,
    row_kernel,
)
from .hopf import (
    GroupScheme,
    GroupSchemeHom,
    HopfError,
    convolution_power,
    cartier_dual,
    is_etale,
    map_tensor,
    points,
    power_map_alg,
)
from .constructions import (
    ClosedSubgroup,
    ExtensionWitness,
    extension_witness,
    intersect,
    is_normal,
    kernel,
    image,
    trivial_subgroup,
)
from .oracle import AbstractGroup
from .rings import (
    MAX_FIELD_ORDER,
    RingHom,
    find_hom,
    gf,
    is_prime,
    prime_factors,
    spectrum,
)


class InternalInconsistencyError(RuntimeError):
    """A step the theory guarantees has failed: an implementation bug."""


MAX_EXTENSION_DEGREE = 24


# ----------------------------------------------------------------------
# Fiber invariants


def infinitesimal_rank(G: GroupScheme) -> int:
    """Order of the identity component of G over a field: 1 when G is
    etale, as the local factor of an etale algebra at the identity point
    is the base field itself."""
    if not G.ring.is_field:
        raise HopfError("infinitesimal rank is a fiber invariant")
    return 1 if is_etale(G)[0] else G.rank - len(G.identity_core)


def separable_rank(G: GroupScheme) -> int:
    """Number of geometric points of G over a field (perfect, as all ours
    are): rank(G) = rank(G0) rank(G/G0), and the etale G/G0 has one
    geometric point per unit of rank."""
    if not G.ring.is_field:
        raise HopfError("separable rank is a fiber invariant")
    return G.rank // infinitesimal_rank(G)


def identity_component(G: GroupScheme) -> ClosedSubgroup:
    """The identity component as a closed subgroup, cut out by the ideal
    (1 - e0)A of `GroupScheme.identity_core` (field or dual-number base)."""
    return ClosedSubgroup(G, G.identity_core)


# ----------------------------------------------------------------------
# Frobenius, Verschiebung, order-p classification


def p_twist(G: GroupScheme) -> GroupScheme:
    """Base change along the absolute Frobenius x -> x^p of the base."""
    p = G.ring.char()
    if p == 0:
        raise HopfError("no Frobenius twist in characteristic zero")
    R = G.ring
    f = lambda a: R.pow(a, p)
    return G.base_change(RingHom(R, R, f, f"x -> x^{p}"))


def frobenius(G: GroupScheme) -> GroupSchemeHom:
    """Relative Frobenius F: G -> G^(p), pulling e_i back to e_i^p."""
    p = G.ring.char()
    if p == 0 or not G.ring.is_field:
        raise HopfError("Frobenius needs a field of positive characteristic")
    alg = [G.power_vec(G.basis_vector(i), p) for i in range(G.rank)]
    return GroupSchemeHom(G, p_twist(G), alg)


def verschiebung(G: GroupScheme) -> GroupSchemeHom:
    """V: G^(p) -> G, the Cartier dual of the Frobenius of the dual."""
    if not G.is_commutative():
        raise HopfError("Verschiebung needs a commutative group scheme")
    alg = [[] for _ in range(G.rank)]
    # the transpose of the dual's Frobenius, read in increasing j
    for j, row in enumerate(frobenius(cartier_dual(G)).alg):
        for x, c in row:
            alg[x].append((j, c))
    return GroupSchemeHom(p_twist(G), G, alg)


def classify_order_p(G: GroupScheme) -> str:
    """'mu' | 'alpha' | 'etale' for a group scheme of prime order over a
    finite field (Frobenius/Verschiebung criterion)."""
    if not is_prime(G.rank):
        raise HopfError("classifier applies to prime-order schemes")
    flag, _ = is_etale(G)
    if flag:
        return "etale"
    # connected of order p forces char = p, over a field
    if G.ring.char() != G.rank:
        if not G.ring.is_field:
            raise HopfError(
                f"the classifier needs a field base, not {G.ring.name()}"
            )
        raise InternalInconsistencyError(
            "connected prime-order scheme away from the residue characteristic"
        )
    F = frobenius(G)
    V = verschiebung(G)
    if V.is_module_iso():
        return "mu"
    if F.is_trivial() and V.is_trivial():
        return "alpha"
    raise InternalInconsistencyError(
        "order-p scheme escapes the mu/alpha/etale classification"
    )


# ----------------------------------------------------------------------
# Fiber reports


class FiberReport:
    def __init__(self, point, fiber, i_rank, sep_rank, etale, classification):
        self.point = point
        self.fiber = fiber
        self.infinitesimal_rank = i_rank
        self.separable_rank = sep_rank
        self.etale = etale
        self.classification = classification

    def to_dict(self):
        return {
            "point": self.point.id,
            "residue_field": self.point.residue_field.name(),
            "infinitesimal_rank": self.infinitesimal_rank,
            "separable_rank": self.separable_rank,
            "etale": self.etale,
            "identity_component": self.classification,
        }


def fiber_report(G: GroupScheme):
    out = []
    for s in spectrum(G.ring):
        # the kept base change: over a field G itself, with its invariants
        fiber = G.base_change(s.residue_field)
        i = infinitesimal_rank(fiber)
        sep = separable_rank(fiber)
        flag, _ = is_etale(fiber)
        if i == 1:
            cls = "trivial"
        elif is_prime(i) and i == fiber.ring.char():  # our char-p fields are finite
            cls = classify_order_p(identity_component(fiber).scheme())
        else:
            cls = "none"
        out.append(FiberReport(s, fiber, i, sep, flag, cls))
    return out


# ----------------------------------------------------------------------
# Geometric points and etale subgroups


def splitting_points(G: GroupScheme):
    """(PointGroup, extension field, embedding) over a finite field: the
    smallest listed extension where the point count reaches order(G).

    No ffgs code calls it; bench/tracer.py still wraps it by name, and the
    tests use it as the geometric reference."""
    k = G.ring
    if not (k.is_field and k.is_finite):
        raise HopfError("splitting extension needs a finite base field")
    p = k.char()
    d0 = next(d for d in itertools.count(1) if p ** d == k.size())
    for j in range(1, MAX_EXTENSION_DEGREE + 1):
        if p ** (d0 * j) > MAX_FIELD_ORDER:
            break
        K = gf(p, d0 * j)
        P = points(G, K)
        if P.order == G.rank:
            return P, K, find_hom(k, K)
    raise HopfError(
        f"no splitting field of degree <= {MAX_EXTENSION_DEGREE} found"
    )


def etale_unique_subgroup(G: GroupScheme, d: int):
    """('ok', ClosedSubgroup) | ('not unique', count) | ('absent', 0).

    For etale G over a field and a prime d.  The subscheme x^d = 1 is
    etale, a closed subscheme of an etale scheme, so its order is the
    number of geometric points g with g^d = 1: 1 + (d - 1) times the number
    of order-d subgroups, which are cyclic and meet only in the identity.
    When there is one, that subscheme is it."""
    if not is_prime(d):
        raise HopfError(f"unique-subgroup count needs a prime order, not {d}")
    if not G.ring.is_field or not is_etale(G)[0]:
        raise HopfError("unique-subgroup count needs an etale scheme over a field")
    H = _torsion(G, d)
    count = (H.order - 1) // (d - 1)
    if not count:
        return ("absent", 0)
    if count > 1:
        return ("not unique", count)
    return ("ok", H)


# ----------------------------------------------------------------------
# Order-p subgroup production per base


def _torsion_equalizer(G: GroupScheme, p: int) -> ClosedSubgroup:
    """The closed subscheme of points x with x^p = identity: the kernel of
    the p-fold convolution power of the identity, an algebra map even when
    the group law is not commutative (then not a homomorphism)."""
    return kernel(GroupSchemeHom(G, G, power_map_alg(G, p)))


def _torsion(G: GroupScheme, p: int) -> ClosedSubgroup:
    """x^p = 1 on G, made once per (scheme, p) and kept with the scheme."""
    kept = G.torsion_subschemes
    if p not in kept:
        kept[p] = _torsion_equalizer(G, p)
    return kept[p]


def order_p_subgroup(G: GroupScheme, p: int) -> ClosedSubgroup:
    """The (unique, normal) order-p subgroup, for a prime p.

    Over a field where G has infinitesimal rank p it is the identity
    component, and over a base with a generic point that specializes
    (Zloc(l)) it is the schematic closure of x^p = 1 on the generic fiber
    (EGA IV_2, 2.8.5), whose ideal is the kernel of A -> A_Q/I_Q: of pi_Q
    times the lcm of its denominators, over the domain Zloc(l).
    Otherwise it is the subscheme x^p = 1; when G has no order-p subgroup
    or several, that subscheme is not an order-p subgroup, and HopfError
    says so.  The generic ideal is the base change of the closure's, so
    the checks below certify both."""
    if not is_prime(p):
        raise HopfError(f"order-p subgroups need a prime p, not {p}")
    R = G.ring
    # a connected scheme over a field of characteristic l has l-power order
    if R.is_field and R.char() == p and infinitesimal_rank(G) == p:
        H = identity_component(G)
    else:
        generic = next((s.residue_field for s in spectrum(R) if s.specializations), None)
        torsion = _torsion(G if generic is None else G.base_change(generic), p)
        if torsion.order != p or generic is None:
            rep = torsion.verify_hopf_ideal()
            if not rep:
                raise HopfError(f"no unique order-{p} subgroup: x^{p} = 1 is not "
                                f"a subgroup ({rep.axiom} fails)")
        if torsion.order != p:
            raise HopfError(f"no unique order-{p} subgroup: x^{p} = 1 has order "
                            f"{torsion.order}")
        H = torsion
        if generic is not None:
            pi = torsion.quotient_data()[1]
            d = lcm(*(c.denominator for row in pi for _, c in row))
            H = ClosedSubgroup(G, row_kernel(R, [[(s, d * c) for s, c in row]
                                                 for row in pi]))
    rep = H.verify_hopf_ideal()
    if not rep:
        raise InternalInconsistencyError(f"order-{p} ideal defective: {rep}")
    if H.order != p:
        raise InternalInconsistencyError(
            f"order-{p} subgroup came out with order {H.order}"
        )
    flag, cert = is_normal(H)
    if not flag:
        raise InternalInconsistencyError(
            f"order-{p} subgroup is not normal (generator {cert})"
        )
    return H


# ----------------------------------------------------------------------
# Loci


class LocusReport:
    def __init__(self, prime, s1, sp, vp, subgroup, spectrum_ids):
        self.prime = prime
        self.s1 = s1
        self.sp = sp
        self.vp = vp
        self.subgroup = subgroup
        self.spectrum_ids = spectrum_ids

    def vp_is_whole(self) -> bool:
        return set(self.vp) == set(self.spectrum_ids)

    def to_dict(self):
        d = {
            "prime": self.prime,
            "spectrum": self.spectrum_ids,
            "S1": self.s1,
            "Sp": self.sp,
            "Vp": self.vp,
        }
        if self.subgroup is not None:
            d["subgroup_ideal"] = self.subgroup.shown_ideal()
            d["subgroup_order"] = self.subgroup.order
        return d


def locus_report(G: GroupScheme, p: int) -> LocusReport:
    if not is_prime(p):
        raise HopfError(f"loci need a prime p, not {p}")
    n = G.rank
    if any(n % (q * q) == 0 for q in prime_factors(n)):
        raise HopfError("loci are defined for square-free order")
    return _locus_report(G, p, fiber_report(G))


def _locus_report(G: GroupScheme, p: int, reports) -> LocusReport:
    """locus_report of square-free G from its fiber reports."""
    ids = [r.point.id for r in reports]
    s1 = [r.point.id for r in reports if r.infinitesimal_rank == 1]
    sp = [r.point.id for r in reports if r.infinitesimal_rank in (1, p)]
    vp = [r.point.id for r in reports if r.infinitesimal_rank == p
          or (r.infinitesimal_rank == 1 and r.etale
              and etale_unique_subgroup(r.fiber, p)[0] == "ok")]
    sub = order_p_subgroup(G, p) if set(vp) == set(ids) and vp else None
    return LocusReport(p, s1, sp, vp, sub, ids)


# ----------------------------------------------------------------------
# p-primary decomposition (commutative case)


def _slot_product_map(G: GroupScheme, subgroups):
    """The algebra map of mult: H_1 x ... x H_t -> G, i.e.
    phi_1 = (pi_1 (x) ... (x) pi_t) o Delta^(t-1), as rows phi(e_i) in
    row-major slot order.  By coassociativity it folds from the right:
    phi_t = pi_t and phi_k = (pi_k (x) phi_(k+1)) o Delta."""
    R = G.ring
    *firsts, last = subgroups
    phi = last.quotient_data()[1]
    width = last.order
    for H in reversed(firsts):
        pb = H.quotient_data()[1]
        phi = [[(s * width + t, c) for s, t, c in map_tensor(R, pb, phi, terms)]
               for terms in G.sparse.comult]
        width *= H.order
    return phi


def internal_product(G: GroupScheme, subgroups) -> tuple:
    """(ClosedSubgroup generated by the given subgroups, iso flag).

    The subgroup is cut out by the kernel of the multiplication map's
    algebra map, an ideal as the kernel of an algebra map; the flag
    records that the map identifies the product with it (full image
    rank)."""
    R = G.ring
    rows = _slot_product_map(G, subgroups)
    H = ClosedSubgroup(G, row_kernel(R, rows))
    iso = len(canonical_span(R, rows)) == prod(s.order for s in subgroups) \
        and H.order == prod(s.order for s in subgroups)
    return H, iso


def p_primary_decompose(G: GroupScheme):
    """Factors (p, G_p) with G_p = kernel([p]) = image([n/p]), plus the
    product isomorphism flag. Commutative square-free G only."""
    if not G.is_commutative():
        raise HopfError("p-primary decomposition needs a commutative group")
    n = G.rank
    primes = prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        raise HopfError("p-primary decomposition needs square-free order")
    factors = []
    for p in primes:
        Kp = kernel(convolution_power(G, p))
        Ip = image(convolution_power(G, n // p))
        if Kp.ideal != Ip.ideal:
            raise InternalInconsistencyError(
                f"kernel([{p}]) and image([{n // p}]) disagree"
            )
        factors.append((p, Kp))
    _, iso = internal_product(G, [f[1] for f in factors]) if len(factors) > 1 \
        else (None, True)
    if len(factors) > 1 and not iso:
        raise InternalInconsistencyError("primary product map is not an iso")
    return factors, iso


# ----------------------------------------------------------------------
# Connected-etale sequence


def connected_etale_sequence(G: GroupScheme, budget: int = 200000) -> ExtensionWitness:
    """1 -> G^0 -> G -> G_et -> 1, its ledger within `budget` points."""
    H = identity_component(G)
    E = extension_witness(G, H, budget)
    flag, disc = is_etale(E.quotient)
    if not flag:
        raise InternalInconsistencyError(
            f"connected-etale quotient has non-unit discriminant {G.ring.show(disc)}"
        )
    return E


# ----------------------------------------------------------------------
# Hochschild splitting


class SplitResult:
    def __init__(self, status, ring_name=None, section=None, detail=None):
        self.status = status    # found | no-splitting-ring | not-found | unknown
        self.ring_name = ring_name
        self.section = section  # list: quotient point index -> total index
        self.detail = detail

    def to_dict(self):
        return {
            "status": self.status,
            "ring": self.ring_name,
            "section": self.section,
            "detail": self.detail,
        }


def hochschild_split(E: ExtensionWitness, budget: int = 200000) -> SplitResult:
    """Check the Hochschild property on the ledger, then search for a
    homomorphic section of G(R') -> G''(R') on the witness's points over
    the first ledger ring where G'' has all its points (G(R') -> G''(R')
    is onto there, as checked).  budget bounds the section search alone."""
    nker = E.kernel.order
    nquo = E.quotient.rank
    if not is_etale(E.quotient)[0]:
        raise HopfError("splitting needs an etale quotient")
    if gcd(nker, nquo) != 1:
        raise HopfError("splitting needs coprime kernel and quotient orders")
    if not E.ledger:
        # exactness on no test ring is no evidence
        if not E.skipped:
            raise HopfError(f"no test ring gave points: {E.total.ring.name()} "
                            "has no test ring")
        raise HopfError("no test ring gave points within the budget: " + "; ".join(
            f"{text} over " + ", ".join(T.name() for T, t in E.skipped if t == text)
            for text in dict.fromkeys(text for _, text in E.skipped)))
    for entry in E.ledger:
        if not (entry["left_injective"] and entry["exact_middle"]
                and entry["right_surjective"]):
            raise InternalInconsistencyError(
                f"point sequence not exact over {entry['ring']}: {entry}"
            )
    for T, PG, PQ, out_map in E.ledger_points:
        if PQ.order != nquo:
            continue
        section, complete = _section_search(AbstractGroup.from_points(PQ),
                                            AbstractGroup.from_points(PG),
                                            out_map, budget)
        if section is not None:
            return SplitResult("found", T.name(), section)
        if not complete:
            return SplitResult("unknown", T.name(),
                               detail="section search budget exhausted")
        return SplitResult("not-found", T.name(),
                           detail="search exhausted without a section")
    return SplitResult("no-splitting-ring",
                       detail="no test ring gives the quotient full points")


def _section_search(Q: AbstractGroup, Gp: AbstractGroup, out_map, budget):
    """(first homomorphic section sigma with out_map[sigma(q)] = q, or
    None; whether every candidate was tried within the budget).  The
    candidates send the generators of Q to preimages under out_map, in
    itertools.product order, and each is counted before Q.extend tries it."""
    gens = Q._small_generators()
    preimages = [
        [g for g in range(Gp.order) if out_map[g] == q] for q in gens
    ]
    for count, images in enumerate(itertools.product(*preimages), 1):
        if count > budget:
            return None, False
        sigma = Q.extend(Gp, gens, images)
        if sigma is not None and all(out_map[s] == q for q, s in enumerate(sigma)):
            return sigma, True
    return None, True


# ----------------------------------------------------------------------
# Common refinement (two etale-quotient extensions)


def common_refinement(E1: ExtensionWitness, E2: ExtensionWitness) -> ExtensionWitness:
    """The extension of their total scheme by the intersection of the two
    kernels; its ledger takes points within the smaller of their budgets."""
    if E1.total is not E2.total and E1.total.to_dict() != E2.total.to_dict():
        raise HopfError("refinement needs extensions of the same scheme")
    if not (is_etale(E1.quotient)[0] and is_etale(E2.quotient)[0]):
        raise HopfError("refinement needs etale quotients")
    K = intersect(E1.kernel, E2.kernel)
    rep = K.verify_hopf_ideal()
    if not rep:
        raise InternalInconsistencyError(f"intersection not a Hopf ideal: {rep}")
    try:
        E = extension_witness(E1.total, K, min(E1.budget, E2.budget))
    except HopfError as exc:
        raise InternalInconsistencyError(f"refined kernel not flat: {exc}")
    if not is_etale(E.quotient)[0]:
        raise InternalInconsistencyError(
            "refined quotient has a non-unit discriminant"
        )
    return E


# ----------------------------------------------------------------------
# The decomposition pipeline


class TheoremCertificate:
    def __init__(self, G, i_values, witness, quotient_disc, factors,
                 conjugation, split):
        self.scheme = G
        self.i_values = i_values
        self.witness = witness
        self.quotient_discriminant = quotient_disc
        self.factors = factors          # [] or [(p, ClosedSubgroup)]
        self.conjugation = conjugation  # list of (p, bool)
        self.split = split

    def to_dict(self):
        R = self.scheme.ring
        return {
            "schema": 1,
            "base": R.name(),
            "order": self.scheme.rank,
            "infinitesimal_ranks": self.i_values,
            "kernel_order": self.witness.kernel.order,
            "quotient_order": self.witness.quotient.rank,
            "quotient_discriminant": R.show(self.quotient_discriminant),
            "factors": [
                {
                    "prime": p,
                    "order": H.order,
                    "ideal": H.shown_ideal(),
                    "commutative": H.scheme().is_commutative(),
                }
                for p, H in self.factors
            ],
            # G' is trivial or one factor, so it is the product of its factors
            "product_isomorphism": True,
            "conjugation_invariant": [
                {"prime": p, "invariant": ok} for p, ok in self.conjugation
            ],
            "extension": self.witness.to_dict(),
            "splitting": self.split.to_dict() if self.split else None,
        }


def theorem_decompose(G: GroupScheme, budget: int = 200000,
                      section_budget: int = 200000) -> TheoremCertificate:
    """The certificate of 1 -> G' -> G -> G'' -> 1; budget bounds the
    points per test ring and section_budget the section search."""
    n = G.rank
    if any(n % (p * p) == 0 for p in prime_factors(n)) and n > 1:
        raise HopfError("the decomposition needs square-free order")
    reports = fiber_report(G)
    i_values = sorted({r.infinitesimal_rank for r in reports})
    # a square-free fiber has infinitesimal rank 1 or its residue
    # characteristic, and a connected base has at most one positive one;
    # over a disconnected Z/n with two prime ranks, V_p below fails for
    # the smaller one.  So G' is trivial or one order-p subgroup.
    primes = [p for p in i_values if p != 1]
    if primes:
        p = primes[0]
        rep = _locus_report(G, p, reports)
        if not rep.vp_is_whole():
            # a finite base with several points (Z/n with two prime
            # factors) is disconnected, so the locus may then be a proper
            # part: the base is at fault
            if G.ring.is_finite and len(rep.spectrum_ids) > 1:
                raise HopfError(
                    f"V_{p} is a proper part of Spec {G.ring.name()}, which "
                    "is not connected; the theorem needs a connected base"
                )
            raise InternalInconsistencyError(
                f"V_{p} is a proper nonempty part of a connected spectrum"
            )
        Gprime = rep.subgroup
        subgroups = [(p, Gprime)]
    else:
        Gprime = trivial_subgroup(G)
        subgroups = []
    E = extension_witness(G, Gprime, budget=budget)
    flag, disc = is_etale(E.quotient)
    if not flag:
        raise InternalInconsistencyError(
            "the quotient by the infinitesimal part is not etale"
        )
    # order_p_subgroup refused a factor that conjugation moves
    conjugation = [(p, is_normal(H)[0]) for p, H in subgroups]
    if Gprime.order > 1:
        Gp_scheme = Gprime.scheme()
        if not Gp_scheme.is_commutative():
            raise InternalInconsistencyError(
                "square-free product of prime-order subgroups must be commutative"
            )
        # G' of prime order p is its own p-primary part: [p] kills it
        if not convolution_power(Gp_scheme, p).is_trivial():
            raise InternalInconsistencyError(f"[{p}] is not zero on G'")
    split = hochschild_split(E, budget=section_budget)
    return TheoremCertificate(G, i_values, E, disc, subgroups, conjugation, split)
