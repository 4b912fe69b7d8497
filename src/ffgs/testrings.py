"""Deterministic family of small test rings attached to a base ring.

Used wherever a statement about a group scheme is probed on actual
points: extension exactness ledgers, isomorphism invariants, splitting
searches. The family is fixed once and documented in the README:

  * every finite field GF(q), q <= 32, admitting a map from the base
  * quotients Z/d of the base (prime power d for Z/n bases, p-power
    d <= 32 for a p-local base)
  * dual numbers over the small residue fields

Order within the family is deterministic (by size, then name)."""

from .rings import (
    DualNumbers,
    IntegersMod,
    LocalizedIntegers,
    QQ,
    RationalField,
    Ring,
    find_hom,
    gf,
    prime_factors,
)

MAX_FIELD_SIZE = 32


def _small_fields():
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        q = p
        k = 1
        while q <= MAX_FIELD_SIZE:
            out.append(gf(p, k))
            k += 1
            q *= p
    return out


def test_ring_family(base: Ring):
    """Finite rings R' with a supported map base -> R', smallest first.

    For base Q the family is [Q] itself (points over Q are available for
    etale schemes only, so callers treat that entry specially)."""
    if isinstance(base, RationalField):
        return [QQ]
    fam = []
    for k in _small_fields():
        if find_hom(base, k) is not None:
            fam.append(k)
    if isinstance(base, IntegersMod):
        for p in prime_factors(base.n):
            d = p * p
            while base.n % d == 0 and d <= MAX_FIELD_SIZE:
                fam.append(IntegersMod(d))
                d *= p
        if base.n not in [r.size() for r in fam] and base.n <= MAX_FIELD_SIZE:
            if not base.is_field:
                fam.append(IntegersMod(base.n))
    if isinstance(base, LocalizedIntegers):
        d = base.p * base.p
        while d <= MAX_FIELD_SIZE:
            fam.append(IntegersMod(d))
            d *= base.p
    residue_fields = [r for r in fam if r.is_field and r.size() ** 2 <= MAX_FIELD_SIZE]
    for k in residue_fields:
        fam.append(DualNumbers(k))
    if isinstance(base, DualNumbers):
        if base.is_finite and base.size() <= MAX_FIELD_SIZE:
            fam.append(base)
    fam = [r for r in fam if find_hom(base, r) is not None]
    seen = []
    for r in sorted(fam, key=lambda r: (r.size(), r.name())):
        if r not in seen:
            seen.append(r)
    return seen
