"""Structural analysis of finite flat group schemes of small order.

Fiberwise invariants (infinitesimal and separable rank), the
connected-etale sequence over fields and Artin local bases, Frobenius
and Verschiebung with the order-p classifier, p-primary decomposition,
the loci where an order-p subgroup exists, and the full decomposition
pipeline producing a re-verifiable certificate:

    1 -> G' -> G -> G'' -> 1

with G'' etale, G' a product of normal prime-order subgroups, and a
splitting section searched for on points over the test-ring family.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from .linalg import (
    canonical_span,
    member,
    row_kernel,
    transpose,
    vec_scale,
    vec_sub,
)
from .hopf import (
    GroupScheme,
    GroupSchemeHom,
    HopfError,
    convolution_power,
    cartier_dual,
    identity_idempotent,
    is_etale,
    lift_idempotent,
    points,
    power_map_alg,
    trace_form,
)
from .constructions import (
    ClosedSubgroup,
    ExtensionWitness,
    extension_witness,
    ideal_closure,
    intersect,
    is_normal,
    kernel,
    image,
    trivial_subgroup,
)
from .oracle import AbstractGroup
from .rings import (
    MAX_FIELD_ORDER,
    DualNumbers,
    FiniteField,
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    QQ,
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


def augmentation_core(G: GroupScheme):
    """Canonical basis of (1 - e0)A, with e0 the unit of the local factor
    of the algebra at the identity.

    It is the stabilized power of the augmentation ideal J = ker(counit),
    the ideal of the identity component: over a field its codimension is
    the infinitesimal rank.  Over Dual(k) the fiber's e0 is lifted by
    Newton steps, since idempotents lift uniquely along the nilpotent
    ideal (eps)."""
    R = G.ring
    if R.is_field:
        e0 = identity_idempotent(G)
    elif isinstance(R, DualNumbers):
        k = R.base
        fiber = G.base_change(RingHom(R, k, lambda a: a[0], "eps -> 0"))
        e0 = lift_idempotent(G, [(a, k.zero) for a in identity_idempotent(fiber)])
    else:
        raise HopfError(
            f"identity component needs a field or Artin local base, not {R.name()}"
        )
    u = vec_sub(R, G.unit, e0)
    return canonical_span(
        R, [G.mul_vec(u, G.basis_vector(i)) for i in range(G.rank)]
    )


def infinitesimal_rank(G: GroupScheme) -> int:
    """Order of the identity component of G over a field."""
    if not G.ring.is_field:
        raise HopfError("infinitesimal rank is a fiber invariant")
    return G.rank - len(augmentation_core(G))


def separable_rank(G: GroupScheme) -> int:
    """Number of geometric points of G over a field."""
    k = G.ring
    if not k.is_field:
        raise HopfError("separable rank is a fiber invariant")
    if k.char() == 0:
        return len(canonical_span(k, trace_form(G)))
    # char p: rank of the iterated q-power map a -> a^q (k-linear)
    q = k.size()
    M = [G.power_vec(G.basis_vector(i), q) for i in range(G.rank)]
    rank = len(canonical_span(k, M))
    cur = M
    while True:
        cur = [[k.dot(row, col) for col in zip(*M)] for row in cur]
        r = len(canonical_span(k, cur))
        if r == rank:
            return rank
        rank = r


def identity_component(G: GroupScheme) -> ClosedSubgroup:
    """The identity component as a closed subgroup, cut out by the ideal
    (1 - e0)A of `augmentation_core` (field or dual-number base)."""
    return ClosedSubgroup(G, augmentation_core(G), check=False)


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
    Fd = frobenius(cartier_dual(G))
    return GroupSchemeHom(p_twist(G), G, transpose(Fd.alg))


def frobenius_verschiebung(G: GroupScheme):
    return frobenius(G), verschiebung(G)


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
    if F.is_module_iso():  # pragma: no cover - caught by is_etale above
        return "etale"
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
        fiber = G.base_change(s.residue_hom)
        i = infinitesimal_rank(fiber)
        sep = separable_rank(fiber)
        flag, _ = is_etale(fiber)
        if i == 1:
            cls = "trivial"
        elif is_prime(i) and i == fiber.ring.char():
            comp = identity_component(fiber).scheme()
            if fiber.ring.is_finite:
                cls = classify_order_p(comp)
            else:  # pragma: no cover - char 0 has i = 1
                cls = "none"
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
    if isinstance(k, PrimeField):
        p, d0 = k.p, 1
    elif isinstance(k, FiniteField):
        p, d0 = k.p, k.k
    else:
        raise HopfError("splitting extension needs a finite base field")
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
    H = _torsion_equalizer(G, d)
    count = (H.order - 1) // (d - 1)
    if not count:
        return ("absent", 0)
    if count > 1:
        return ("not unique", count)
    return ("ok", H)


# ----------------------------------------------------------------------
# Order-p subgroup production per base


def _saturate_zloc(R: LocalizedIntegers, rows_q, width: int):
    """Basis over Zloc(p) of span_Q(rows_q) intersected with Zloc^width."""
    rref = canonical_span(QQ, rows_q)
    if not rref:
        return []
    # e = max p-adic valuation appearing in any denominator
    e = max(R.valuation(Fraction(c.denominator)) for row in rref for c in row)
    if e == 0:
        return canonical_span(R, [[Fraction(c) for c in row] for row in rref])
    pe = R.p ** e
    Rmod = IntegersMod(pe)
    D = [[(c * pe).numerator * pow((c * pe).denominator, -1, pe) % pe
          for c in row] for row in rref]
    ker = row_kernel(Rmod, D)
    rows_out = []
    for t in ker:
        v = [Fraction(0)] * width
        for c, row in zip(t, rref):
            v = [a + c * b for a, b in zip(v, row)]
        rows_out.append(v)
    for row in rref:
        rows_out.append([pe * c for c in row])
    return canonical_span(R, rows_out)


def _torsion_equalizer(G: GroupScheme, p: int) -> ClosedSubgroup:
    """The closed subscheme of points x with x^p = identity, via the
    p-fold convolution power of the identity (a linear map even when the
    group law is not commutative)."""
    R = G.ring
    alg = power_map_alg(G, p)
    gens = [
        vec_sub(R, alg[j], vec_scale(R, G.counit[j], G.unit))
        for j in range(G.rank)
    ]
    return ClosedSubgroup(G, ideal_closure(G, gens), check=False)


def order_p_subgroup(G: GroupScheme, p: int) -> ClosedSubgroup:
    """The (unique, normal) order-p subgroup, for a prime p.

    Over a field where G has infinitesimal rank p it is the identity
    component, and over Zloc(p) it is saturated from the generic fiber.
    Otherwise it is the subscheme x^p = 1; when G has no order-p subgroup
    or several, that subscheme is not an order-p subgroup, and HopfError
    says so."""
    if not is_prime(p):
        raise HopfError(f"order-p subgroups need a prime p, not {p}")
    R = G.ring
    by_torsion = False
    # a connected scheme over a field of characteristic l has l-power order
    if R.is_field and R.char() == p and infinitesimal_rank(G) == p:
        H = identity_component(G)
    elif isinstance(R, LocalizedIntegers):
        Gq = G.base_change(find_hom(R, QQ))
        Hq = order_p_subgroup(Gq, p)
        rows = _saturate_zloc(R, [list(v) for v in Hq.ideal], G.rank)
        H = ClosedSubgroup(G, rows, check=False)
    else:
        H, by_torsion = _torsion_equalizer(G, p), True
    rep = H.verify_hopf_ideal()
    if by_torsion and not rep:
        raise HopfError(f"no unique order-{p} subgroup: x^{p} = 1 is not a "
                        f"subgroup ({rep.axiom} fails)")
    if by_torsion and H.order != p:
        raise HopfError(f"no unique order-{p} subgroup: x^{p} = 1 has order "
                        f"{H.order}")
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
            R = self.subgroup.ambient.ring
            d["subgroup_ideal"] = [[R.show(c) for c in v]
                                   for v in self.subgroup.ideal]
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
    vp = [x for x in sp if x not in s1]
    for r in reports:
        # one subgroup of order p: x^p = 1 has p geometric points
        if r.point.id in s1 and r.etale and _torsion_equalizer(r.fiber, p).order == p:
            vp.append(r.point.id)
    vp = [x for x in ids if x in vp]
    sub = None
    if set(vp) == set(ids) and vp:
        sub = order_p_subgroup(G, p)
    return LocusReport(p, s1, sp, vp, sub, ids)


# ----------------------------------------------------------------------
# p-primary decomposition (commutative case)


def _slot_product_map(G: GroupScheme, subgroups):
    """The algebra map of mult: H_1 x ... x H_t -> G, i.e.
    (pi_1 (x) ... (x) pi_t) o Delta^(t-1), as rows phi(e_i)."""
    R = G.ring
    t = len(subgroups)
    pbases = [H.quotient_data()[1] for H in subgroups]
    ranks = [H.order for H in subgroups]
    width = prod(ranks)
    rows = []
    for i in range(G.rank):
        cur = {(i,): R.one}
        for _ in range(t - 1):
            nxt: dict = {}
            for key, c in cur.items():
                for j, k, d in G.sparse.comult[key[-1]]:
                    nk = key[:-1] + (j, k)
                    nxt[nk] = R.add(nxt.get(nk, R.zero), R.mul(c, d))
            cur = nxt
        out = [R.zero] * width
        for key, c in cur.items():
            vecs = [pb[idx] for pb, idx in zip(pbases, key)]
            # product() runs through the slots in row-major order
            for flat, combo in enumerate(itertools.product(*map(range, ranks))):
                coeff = c
                for vec, pos in zip(vecs, combo):
                    coeff = R.mul(coeff, vec[pos])
                    if not R.nonzero(coeff):
                        break
                if R.nonzero(coeff):
                    out[flat] = R.add(out[flat], coeff)
        rows.append(out)
    return rows, width


def internal_product(G: GroupScheme, subgroups) -> tuple:
    """(ClosedSubgroup generated by the given subgroups, iso flag).

    The subgroup is cut out by the kernel of the multiplication map's
    algebra map; the flag records that the map identifies the product
    with it (full image rank)."""
    R = G.ring
    rows, width = _slot_product_map(G, subgroups)
    ideal = row_kernel(R, rows)
    H = ClosedSubgroup(G, ideal_closure(G, ideal), check=False)
    iso = len(canonical_span(R, rows)) == prod(s.order for s in subgroups) \
        and H.order == prod(s.order for s in subgroups)
    return H, iso


def p_primary_decompose(G: GroupScheme, automorphisms=()):
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
        for f in automorphisms:
            for v in Kp.ideal:
                if not member(G.ring, Kp.ideal, f.apply_alg(v)):
                    raise InternalInconsistencyError(
                        f"automorphism moves the {p}-primary ideal"
                    )
        factors.append((p, Kp))
    _, iso = internal_product(G, [f[1] for f in factors]) if len(factors) > 1 \
        else (None, True)
    if len(factors) > 1 and not iso:
        raise InternalInconsistencyError("primary product map is not an iso")
    return factors, iso


# ----------------------------------------------------------------------
# Connected-etale sequence


def connected_etale_sequence(G: GroupScheme) -> ExtensionWitness:
    H = identity_component(G)
    E = extension_witness(G, H)
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
        raise HopfError("no test ring gave points within the budget")
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
    None; whether every candidate was tried within the budget)."""
    gens = Q._small_generators()
    preimages = [
        [g for g in range(Gp.order) if out_map[g] == q] for q in gens
    ]
    count = 0
    for images in itertools.product(*preimages):
        count += 1
        if count > budget:
            return None, False
        sigma = {Q.identity: Gp.identity}
        frontier = [Q.identity]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y = Q.table[x][g]
                fy = Gp.table[sigma[x]][img]
                if out_map[fy] != y:
                    ok = False
                    break
                if y in sigma:
                    if sigma[y] != fy:
                        ok = False
                        break
                else:
                    sigma[y] = fy
                    frontier.append(y)
        if not ok or len(sigma) != Q.order:
            continue
        if all(sigma[Q.table[a][b]] == Gp.table[sigma[a]][sigma[b]]
               for a in range(Q.order) for b in range(Q.order)):
            return [sigma[q] for q in range(Q.order)], True
    return None, True


# ----------------------------------------------------------------------
# Common refinement (two etale-quotient extensions)


def common_refinement(E1: ExtensionWitness, E2: ExtensionWitness) -> ExtensionWitness:
    if E1.total is not E2.total and E1.total.to_dict() != E2.total.to_dict():
        raise HopfError("refinement needs extensions of the same scheme")
    if not (is_etale(E1.quotient)[0] and is_etale(E2.quotient)[0]):
        raise HopfError("refinement needs etale quotients")
    K = intersect(E1.kernel, E2.kernel)
    rep = K.verify_hopf_ideal()
    if not rep:
        raise InternalInconsistencyError(f"intersection not a Hopf ideal: {rep}")
    try:
        E = extension_witness(E1.total, K)
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
                 product_iso, conjugation, split):
        self.scheme = G
        self.i_values = i_values
        self.witness = witness
        self.quotient_discriminant = quotient_disc
        self.factors = factors          # list of (p, ClosedSubgroup)
        self.product_iso = product_iso
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
                    "ideal": [[R.show(c) for c in v] for v in H.ideal],
                    "commutative": H.scheme().is_commutative(),
                }
                for p, H in self.factors
            ],
            "product_isomorphism": self.product_iso,
            "conjugation_invariant": [
                {"prime": p, "invariant": ok} for p, ok in self.conjugation
            ],
            "extension": self.witness.to_dict(),
            "splitting": self.split.to_dict() if self.split else None,
        }


def theorem_decompose(G: GroupScheme, budget: int = 200000) -> TheoremCertificate:
    n = G.rank
    if any(n % (p * p) == 0 for p in prime_factors(n)) and n > 1:
        raise HopfError("the decomposition needs square-free order")
    reports = fiber_report(G)
    i_values = sorted({r.infinitesimal_rank for r in reports})
    primes = [p for p in i_values if p != 1]
    if primes:
        subgroups = []
        for p in primes:
            rep = _locus_report(G, p, reports)
            if not rep.vp_is_whole():
                # Spec Z/n is disconnected when n has two prime factors, so
                # the locus may then be a proper part: the base is at fault
                if isinstance(G.ring, IntegersMod) and len(rep.spectrum_ids) > 1:
                    raise HopfError(
                        f"V_{p} is a proper part of Spec {G.ring.name()}, which "
                        "is not connected; the theorem needs a connected base"
                    )
                raise InternalInconsistencyError(
                    f"V_{p} is a proper nonempty part of a connected spectrum"
                )
            subgroups.append((p, rep.subgroup))
        if len(subgroups) == 1:
            Gprime = subgroups[0][1]
            product_iso = True
        else:
            Gprime, product_iso = internal_product(G, [h for _, h in subgroups])
            if not product_iso:
                raise InternalInconsistencyError(
                    "product of prime subgroups is not an isomorphism"
                )
            if Gprime.order != prod(p for p, _ in subgroups):
                raise InternalInconsistencyError("internal product has wrong order")
    else:
        Gprime = trivial_subgroup(G)
        subgroups = []
        product_iso = True
    E = extension_witness(G, Gprime, budget=budget)
    flag, disc = is_etale(E.quotient)
    if not flag:
        raise InternalInconsistencyError(
            "the quotient by the infinitesimal part is not etale"
        )
    # the prime factors and their conjugation invariance
    factors = []
    conjugation = []
    if Gprime.order > 1:
        Gp_scheme = Gprime.scheme()
        if not Gp_scheme.is_commutative():
            raise InternalInconsistencyError(
                "square-free product of prime-order subgroups must be commutative"
            )
        for p, H in subgroups:
            factors.append((p, H))
            ok, _ = is_normal(H)
            conjugation.append((p, ok))
            if not ok:
                raise InternalInconsistencyError(
                    f"conjugation moves the order-{p} factor"
                )
        # cross-check the primary decomposition of G' itself
        inner, _ = p_primary_decompose(Gp_scheme)
        if sorted(p for p, _ in inner) != sorted(p for p, _ in subgroups):
            raise InternalInconsistencyError(
                "primary decomposition of G' disagrees with the locus factors"
            )
    split = hochschild_split(E, budget=budget)
    return TheoremCertificate(G, i_values, E, disc, factors, product_iso,
                              conjugation, split)
