"""Deterministic family of small test rings attached to a base ring.

Used wherever a statement about a group scheme is probed on actual
points: extension exactness ledgers, isomorphism invariants, splitting
searches. The family is fixed once and documented in the README.  For
base Q it is [Q]; otherwise it is every candidate that `find_hom` reaches
from the base:

  * the small fields GF(q), q <= 32
  * Dual(k) for each small field k with |k|^2 <= 32
  * Z/|k| for each small field k whose order is not prime
  * the base itself when it is finite, not a field and has at most 32
    elements

Which maps exist is `find_hom`'s to say, so no class of the base is
tested here.  Order within the family is deterministic (by size, then
name)."""

import functools

from .rings import DualNumbers, IntegersMod, QQ, Ring, find_hom, gf

MAX_FIELD_SIZE = 32


@functools.cache
def _small_fields():
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        q = p
        k = 1
        while q <= MAX_FIELD_SIZE:
            out.append(gf(p, k))
            k += 1
            q *= p
    return tuple(out)


def test_ring_family(base: Ring):
    """Finite rings R' with a supported map base -> R', smallest first.

    For base Q the family is [Q].  `points` over Q raises for a scheme that
    is not etale, and callers skip Q then, as any ring whose points raise."""
    if base == QQ:
        return [QQ]
    fields = _small_fields()
    candidates = [*fields,
                  *(DualNumbers(k) for k in fields if k.size() ** 2 <= MAX_FIELD_SIZE),
                  *(IntegersMod(k.size()) for k in fields if k.size() != k.char())]
    if base.is_finite and not base.is_field and base.size() <= MAX_FIELD_SIZE:
        candidates.append(base)
    family = {r for r in candidates if find_hom(base, r) is not None}
    return sorted(family, key=lambda r: (r.size(), r.name()))
