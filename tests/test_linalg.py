import hashlib
import random
from fractions import Fraction

from ffgs.linalg import (
    canonical_span,
    det,
    echelon,
    identity_matrix,
    mat_inverse,
    mat_kernel,
    mat_vec,
    member,
    member_with_coeffs,
    reduce_mod_span,
    row_kernel,
    solve,
    span_equal,
    transpose,
    vec_is_zero,
)
from ffgs.rings import (
    DualNumbers,
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    QQ,
    gf,
)

RINGS = [QQ, PrimeField(5), gf(2, 2), IntegersMod(8), IntegersMod(12),
         IntegersMod(30), LocalizedIntegers(2), DualNumbers(PrimeField(3))]


def rand_elt(R, rng):
    if R.is_finite:
        els = list(R.elements())
        return rng.choice(els)
    if isinstance(R, LocalizedIntegers):
        return Fraction(rng.randrange(-8, 9), rng.choice([1, 1, 3, 5]))
    return Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))


def rand_matrix(R, rng, rows, cols):
    return [[rand_elt(R, rng) for _ in range(cols)] for _ in range(rows)]


def test_kernel_and_image_properties_random():
    rng = random.Random(11)
    for R in RINGS:
        for _ in range(12):
            M = rand_matrix(R, rng, rng.randrange(1, 4), rng.randrange(1, 4))
            ker = mat_kernel(R, M)
            for v in ker:
                assert vec_is_zero(R, mat_vec(R, M, v))
            img = canonical_span(R, transpose(M))
            for col in transpose(M):
                assert member(R, img, col)
            for row in img:
                assert solve(R, M, row) is not None


def test_canonical_span_is_canonical():
    rng = random.Random(5)
    for R in RINGS:
        for _ in range(10):
            rows = rand_matrix(R, rng, 3, 4)
            base = canonical_span(R, rows)
            # shuffled and doubled generating sets give the same form
            doubled = rows + [rows[0]] + rows[::-1]
            assert canonical_span(R, doubled) == base
            assert span_equal(R, rows, doubled)


def test_member_with_coeffs():
    rng = random.Random(23)
    for R in RINGS:
        for _ in range(10):
            rows = rand_matrix(R, rng, 3, 4)
            coeffs = [rand_elt(R, rng) for _ in rows]
            v = [R.zero] * 4
            for c, r in zip(coeffs, rows):
                v = [R.add(x, R.mul(c, y)) for x, y in zip(v, r)]
            x = member_with_coeffs(R, rows, v)
            assert x is not None
            w = [R.zero] * 4
            for c, r in zip(x, rows):
                w = [R.add(a, R.mul(c, b)) for a, b in zip(w, r)]
            assert w == [R.add(a, R.zero) for a in v]


def test_howell_membership_over_z4():
    R = IntegersMod(4)
    # the classic Howell example: span{(2,1)} over Z/4 contains (0,2)
    rows = [[2, 1]]
    canon = canonical_span(R, rows)
    assert member(R, canon, [0, 2])
    assert not member(R, canon, [1, 0])


def test_zloc_staircase():
    R = LocalizedIntegers(2)
    rows = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(4)]]
    canon = canonical_span(R, rows)
    # pivots are powers of 2; membership respects valuations
    assert member(R, canon, [Fraction(2), Fraction(5)])
    assert not member(R, canon, [Fraction(1), Fraction(0)])
    assert not member(R, canon, [Fraction(2), Fraction(1, 3)])
    assert member(R, canon, [Fraction(2), Fraction(1)])


def test_row_kernel_over_zn():
    R = IntegersMod(6)
    rows = [[2], [3]]
    ker = row_kernel(R, rows)
    for k in ker:
        s = R.zero
        for c, r in zip(k, rows):
            s = R.add(s, R.mul(c, r[0]))
        assert s == R.zero
    # (3, 0), (0, 2), ... generate; make sure nontrivial combos are found
    assert member(R, ker, [3, 0])
    assert member(R, ker, [0, 2])


def test_inverse_and_det():
    rng = random.Random(2)
    for R in RINGS:
        for _ in range(8):
            M = rand_matrix(R, rng, 3, 3)
            Minv = mat_inverse(R, M)
            d = det(R, M)
            if Minv is not None:
                from ffgs.linalg import mat_mul
                assert mat_mul(R, M, Minv) == identity_matrix(R, 3)
                assert R.is_unit(d)
            else:
                assert not R.is_unit(d)


def test_echelon_pivot_normalization():
    R = IntegersMod(12)
    rows = [[8, 1, 0], [4, 0, 2]]
    piv, pivots, _ = echelon(R, rows)
    for c, p in pivots:
        assert p % 12 == p
        assert 12 % __import__("math").gcd(p, 12) * 0 == 0
        # pivot is the canonical divisor gcd(p, 12)
        import math
        assert p == math.gcd(p, 12)


# -- canonical-form digest -------------------------------------------------
#
# sha256 of the echelon forms (with and without tracked columns), row
# kernels, coefficient solutions and determinants of seeded random spans
# over every base family.  It was recorded before the canonical-form rules
# moved onto the Ring classes, and pins the forms to be literal-list-equal
# to those of the per-ring implementation.

DIGEST_RINGS = [PrimeField(5), gf(2, 2), QQ, IntegersMod(8), IntegersMod(12),
                IntegersMod(30), LocalizedIntegers(2), LocalizedIntegers(3),
                DualNumbers(PrimeField(3)), DualNumbers(QQ)]

CANONICAL_FORM_DIGEST = (
    "69456d395521f92ee2b4d3cfa18fec46ed19737e179d3c2ba910a8eefb0838ad"
)


def digest_elt(R, rng):
    if rng.random() < 0.3:
        return R.zero
    if R.is_finite:
        return rng.choice(list(R.elements()))
    if isinstance(R, DualNumbers):
        return (digest_elt(R.base, rng), digest_elt(R.base, rng))
    if isinstance(R, LocalizedIntegers):
        return Fraction(rng.randrange(-12, 13), rng.choice([1, 1, 1, 5, 7]))
    return Fraction(rng.randrange(-12, 13), rng.randrange(1, 5))


def combine(R, coeffs, rows):
    v = [R.zero] * len(rows[0])
    for c, r in zip(coeffs, rows):
        v = [R.add(x, R.mul(c, y)) for x, y in zip(v, r)]
    return v


def canonical_form_records():
    rng = random.Random(2016)
    out = []
    for R in DIGEST_RINGS:
        for _ in range(24):
            nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[digest_elt(R, rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            if rng.random() < 0.5:
                rows.append(combine(
                    R, [digest_elt(R, rng) for _ in rows], rows))
            nprimary = rng.randrange(1, ncols + 1)
            inside = combine(R, [digest_elt(R, rng) for _ in rows], rows)
            outside = [digest_elt(R, rng) for _ in range(ncols)]
            n = rng.randrange(1, 5)
            M = [[digest_elt(R, rng) for _ in range(n)] for _ in range(n)]
            out.append((
                R.name(),
                echelon(R, rows),
                echelon(R, rows, nprimary),
                row_kernel(R, rows),
                member_with_coeffs(R, rows, inside),
                member_with_coeffs(R, rows, outside),
                det(R, M),
            ))
    return out


def test_canonical_form_digest():
    records = canonical_form_records()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == CANONICAL_FORM_DIGEST


def test_reduce_mod_span_is_a_normal_form():
    """v and v + s reduce to the same remainder for every s in the span."""
    rng = random.Random(31)
    for R in DIGEST_RINGS:
        for _ in range(12):
            rows = [[digest_elt(R, rng) for _ in range(4)] for _ in range(3)]
            canon = canonical_span(R, rows)
            v = [digest_elt(R, rng) for _ in range(4)]
            s = combine(R, [digest_elt(R, rng) for _ in rows], rows)
            w = [R.add(a, b) for a, b in zip(v, s)]
            assert reduce_mod_span(R, canon, v) == reduce_mod_span(R, canon, w)
