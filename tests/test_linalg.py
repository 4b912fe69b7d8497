import hashlib
import random
from fractions import Fraction

import pytest

from ffgs.linalg import (
    Span,
    add_scaled,
    canonical_span,
    det,
    echelon,
    identity_matrix,
    mat_vec,
    member,
    member_with_coeffs,
    reduce_mod_span,
    row_kernel,
    transpose,
    vec_add,
    vec_is_zero,
    vec_scale,
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


def mat_mul(R, A, B):
    return [[R.dot(row, col) for col in zip(*B)] for row in A]


def solve(R, M, b):
    """x with Mx = b, or None."""
    return member_with_coeffs(R, transpose(M), b)


def mat_kernel(R, M):
    """Canonical basis of the right kernel {x : Mx = 0}."""
    return row_kernel(R, transpose(M))


def mat_inverse(R, M):
    """M^-1 by one solve per column, or None."""
    n = len(M)
    cols = []
    for j in range(n):
        x = solve(R, M, [R.one if i == j else R.zero for i in range(n)])
        if x is None:
            return None
        cols.append(x)
    return transpose(cols)


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


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_add_scaled_matches_the_chain(R):
    """add_scaled against out = vec_add(out, vec_scale(c, row)) over the
    nonzero c, in place; a zero c never touches its row."""
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randrange(1, 5)
        rows = rand_matrix(R, rng, rng.randrange(0, 5), n)
        coeffs = [rand_elt(R, rng) if rng.random() < 0.7 else R.zero for _ in rows]
        start = [rand_elt(R, rng) for _ in range(n)]
        chain = list(start)
        for c, row in zip(coeffs, rows):
            if R.nonzero(c):
                chain = vec_add(R, chain, vec_scale(R, c, row))
        out = list(start)
        assert add_scaled(R, out, zip(coeffs, rows)) is out
        assert out == chain
    assert add_scaled(R, [R.one], [(R.zero, [None])]) == [R.one]


def scan_reduce_mod_span(R, canon_rows, v):
    """reduce_mod_span as it was, the reference: the pivot of each row is
    found by a scan on every call."""
    cols = [next(c for c, x in enumerate(row) if R.nonzero(x)) for row in canon_rows]
    v = list(v)
    for row, c in zip(canon_rows, cols):
        if R.nonzero(v[c]):
            q = R.divmod_pivot(v[c], row[c])[0]
            if R.nonzero(q):
                v = R.row_sub(v, q, row)
    return v, cols


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_span_reduces_like_the_scan(R):
    """A Span's pivots, first non-unit pivot, reduce_mod_span and member
    against the scan-per-call reference, on canonical spans and row
    kernels, for vectors inside and outside the span; the same Span
    placed row by row."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(hyp.strategies.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        ncols = rng.randrange(1, 6)
        rows = [[digest_elt(R, rng) for _ in range(ncols)]
                for _ in range(rng.randrange(1, 6))]
        for span in (canonical_span(R, rows), row_kernel(R, transpose(rows))):
            assert isinstance(span, Span)
            if not span:
                continue
            ref_cols = scan_reduce_mod_span(R, span, span[0])[1]
            assert span.cols == ref_cols
            assert span.nonunit == next((t for t, (row, c) in enumerate(
                zip(span, ref_cols)) if not R.is_unit(row[c])), None)
            rebuilt = Span(R)
            for row, c in zip(span, span.cols):
                rebuilt.place(R, row, c)
            assert (rebuilt, rebuilt.cols, rebuilt.nonunit) == \
                (span, span.cols, span.nonunit)
            width = len(span[0])
            inside = combine(R, [digest_elt(R, rng) for _ in span], span)
            for v in (inside, [digest_elt(R, rng) for _ in range(width)]):
                ref = scan_reduce_mod_span(R, span, v)[0]
                assert reduce_mod_span(R, span, v) == ref
                assert member(R, span, v) == vec_is_zero(R, ref)
            assert member(R, span, inside)

    check()
