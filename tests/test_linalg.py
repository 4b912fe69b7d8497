import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from ffgs.hopf import dense, nonzeros
from ffgs.linalg import (
    Span,
    add_scaled,
    canonical_span,
    echelon,
    member,
    member_with_coeffs,
    reduce_mod_span,
    row_kernel,
    solver,
)
from ffgs.rings import (
    DualNumbers,
    IntegersMod,
    LocalizedIntegers,
    PrimeField,
    QQ,
    gf,
    xgcd,
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


# dense reference arithmetic, which the other test modules import too

def vec_add(R, u, v):
    return [R.add(a, b) for a, b in zip(u, v)]


def vec_sub(R, u, v):
    return [R.sub(a, b) for a, b in zip(u, v)]


def vec_scale(R, c, u):
    return [R.mul(c, a) for a in u]


def identity_matrix(R, n):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def mat_vec(R, M, v):
    return [R.dot(row, v) for row in M]


def mat_mul(R, A, B):
    return [[R.dot(row, col) for col in zip(*B)] for row in A]


def transpose(M):
    return [list(col) for col in zip(*M)]


def vec_is_zero(R, u):
    return not any(map(R.nonzero, u))


def sparse_rows(R, rows):
    return [nonzeros(R, row) for row in rows]


def dense_rows(R, n, rows):
    return [dense(R, n, row) for row in rows]


def coeffs(R, rows, v):
    """member_with_coeffs on the dense rows and v, its x a dense list."""
    x = member_with_coeffs(R, sparse_rows(R, rows), nonzeros(R, v))
    return None if x is None else dense(R, len(rows), x)


def kernel_rows(R, rows):
    """row_kernel of the dense rows, as dense rows."""
    return dense_rows(R, len(rows), row_kernel(R, sparse_rows(R, rows)))


def span_rows(R, rows):
    """canonical_span of the dense rows, as dense rows."""
    return dense_rows(R, len(rows[0]) if rows else 0, canonical_span(R, sparse_rows(R, rows)))


def solve(R, M, b):
    """x with Mx = b, or None."""
    return coeffs(R, transpose(M), b)


def mat_kernel(R, M):
    """Canonical basis of the right kernel {x : Mx = 0}."""
    return kernel_rows(R, transpose(M))


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
            img = canonical_span(R, sparse_rows(R, transpose(M)))
            for col in transpose(M):
                assert member(R, img, nonzeros(R, col))
            for row in dense_rows(R, len(M), img):
                assert solve(R, M, row) is not None


def test_canonical_span_is_canonical():
    rng = random.Random(5)
    for R in RINGS:
        for _ in range(10):
            rows = rand_matrix(R, rng, 3, 4)
            base = canonical_span(R, sparse_rows(R, rows))
            # shuffled and doubled generating sets give the same form
            doubled = rows + [rows[0]] + rows[::-1]
            assert canonical_span(R, sparse_rows(R, doubled)) == base


def test_member_with_coeffs():
    rng = random.Random(23)
    for R in RINGS:
        for _ in range(10):
            rows = rand_matrix(R, rng, 3, 4)
            cs = [rand_elt(R, rng) for _ in rows]
            v = [R.zero] * 4
            for c, r in zip(cs, rows):
                v = [R.add(x, R.mul(c, y)) for x, y in zip(v, r)]
            x = coeffs(R, rows, v)
            assert x is not None
            w = [R.zero] * 4
            for c, r in zip(x, rows):
                w = [R.add(a, R.mul(c, b)) for a, b in zip(w, r)]
            assert w == [R.add(a, R.zero) for a in v]


def test_howell_membership_over_z4():
    R = IntegersMod(4)
    # the classic Howell example: span{(2,1)} over Z/4 contains (0,2)
    canon = canonical_span(R, [[(0, 2), (1, 1)]])
    assert member(R, canon, [(1, 2)])
    assert not member(R, canon, [(0, 1)])


def test_zloc_staircase():
    R = LocalizedIntegers(2)
    rows = [[(0, Fraction(2)), (1, Fraction(1))], [(1, Fraction(4))]]
    canon = canonical_span(R, rows)
    # pivots are powers of 2; membership respects valuations
    assert member(R, canon, [(0, Fraction(2)), (1, Fraction(5))])
    assert not member(R, canon, [(0, Fraction(1))])
    assert not member(R, canon, [(0, Fraction(2)), (1, Fraction(1, 3))])
    assert member(R, canon, [(0, Fraction(2)), (1, Fraction(1))])


def test_row_kernel_over_zn():
    R = IntegersMod(6)
    rows = [[2], [3]]
    ker = row_kernel(R, sparse_rows(R, rows))
    for k in dense_rows(R, 2, ker):
        s = R.zero
        for c, r in zip(k, rows):
            s = R.add(s, R.mul(c, r[0]))
        assert s == R.zero
    # (3, 0), (0, 2), ... generate; make sure nontrivial combos are found
    assert member(R, ker, [(0, 3)])
    assert member(R, ker, [(1, 2)])


def test_inverse_and_det():
    rng = random.Random(2)
    for R in RINGS:
        for _ in range(8):
            M = rand_matrix(R, rng, 3, 3)
            Minv = mat_inverse(R, M)
            d = R.det(M)
            if Minv is not None:
                assert mat_mul(R, M, Minv) == identity_matrix(R, 3)
                assert R.is_unit(d)
            else:
                assert not R.is_unit(d)


def echelon_triple(R, rows, nprimary=None):
    """echelon's result on the dense rows as the triple it once returned,
    which the digest below was recorded from: (pivot rows, [(col, pivot)],
    free rows), the rows expanded to dense lists."""
    span, free = echelon(R, sparse_rows(R, rows), nprimary)
    n = len(rows[0])
    return (dense_rows(R, n, span), [(c, row[0][1]) for row, c in zip(span, span.cols)],
            dense_rows(R, n, free))


def test_echelon_pivot_normalization():
    R = IntegersMod(12)
    rows = [[8, 1, 0], [4, 0, 2]]
    piv, pivots, _ = echelon_triple(R, rows)
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
# to those of the per-ring implementation.  Elements of Q, Zloc(p) and
# Dual(Q) were all Fractions then; an integral one may now be an int of the
# same value, so each is hashed as a Fraction.

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
            e = recorded_form(R)
            out.append((
                R.name(),
                encode_triple(e, echelon_triple(R, rows)),
                encode_triple(e, echelon_triple(R, rows, nprimary)),
                encode_rows(e, kernel_rows(R, rows)),
                encode_vector(e, coeffs(R, rows, inside)),
                encode_vector(e, coeffs(R, rows, outside)),
                e(R.det(M)),
            ))
    return out


def recorded_form(R):
    """The map taking an element of R to the form the digest was recorded
    in: each Q, Zloc(p) or Dual(Q) entry a Fraction, the others as they
    are."""
    if isinstance(R, DualNumbers):
        base = recorded_form(R.base)
        return lambda a: (base(a[0]), base(a[1]))
    return Fraction if R.char() == 0 else (lambda a: a)


def encode_vector(e, v):
    return None if v is None else [e(x) for x in v]


def encode_rows(e, rows):
    return [encode_vector(e, row) for row in rows]


def encode_triple(e, triple):
    """echelon_triple's result with its elements encoded; the pivot
    columns stay as they are."""
    span, pivots, free = triple
    return encode_rows(e, span), [(c, e(p)) for c, p in pivots], encode_rows(e, free)


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
            canon = canonical_span(R, sparse_rows(R, rows))
            v = [digest_elt(R, rng) for _ in range(4)]
            s = combine(R, [digest_elt(R, rng) for _ in rows], rows)
            w = [R.add(a, b) for a, b in zip(v, s)]
            assert reduce_mod_span(R, canon, nonzeros(R, v)) == \
                reduce_mod_span(R, canon, nonzeros(R, w))


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


# -- the dense reference ----------------------------------------------------
#
# echelon, reduce_mod_span and member_and_kernel, which solver replaced, as
# they were when a row was
# the dense list of its entries, with the canonical-form hooks they called,
# which scanned for the leading column on every step.

def ref_normalize_pivot(R, row, col):
    if isinstance(R, IntegersMod):
        n, g = R.n, row[col]
        d = gcd(g, n)
        w = next(w for w in range(pow(g // d, -1, n // d), n, n // d)
                 if gcd(w, n) == 1)
        return [w * x % n for x in row]
    if isinstance(R, LocalizedIntegers):
        u = Fraction(row[col]) / R.p ** R.valuation(row[col])
        return row if u == 1 else [x / u for x in row]
    if isinstance(R, DualNumbers) and not R.base.nonzero(row[col][0]):
        u = (R.base.inv(row[col][1]), R.base.zero)
        return [R.mul(u, x) for x in row]
    if row[col] == R.one:
        return row
    u = R.inv(row[col])
    return [R.mul(u, x) for x in row]


def ref_row_sub(R, row, q, piv):
    return [R.sub(x, R.mul(q, y)) for x, y in zip(row, piv)]


def ref_merge_pivot(R, piv, row, col):
    if isinstance(R, IntegersMod):
        n, d = R.n, piv[col]
        row = ref_row_sub(R, row, row[col] // d, piv)
        r = row[col]
        g, u, v = xgcd(d, r)
        return ([(u * x + v * y) % n for x, y in zip(piv, row)],
                [((d // g) * y - (r // g) * x) % n for x, y in zip(piv, row)], [])
    return row, [R.zero] * len(row), [piv]


def ref_annihilator(R, piv, col):
    if isinstance(R, IntegersMod):
        d = gcd(piv[col], R.n)
        return None if d == 1 else [(R.n // d) * x % R.n for x in piv]
    if isinstance(R, DualNumbers) and not R.base.nonzero(piv[col][0]):
        eps = (R.base.zero, R.base.one)
        return [R.mul(eps, x) for x in piv]
    return None


def ref_leading_col(R, row, limit):
    return next((c for c in range(limit) if R.nonzero(row[c])), None)


def ref_echelon(R, rows, nprimary=None):
    """(pivot rows, their cols, free rows, their cols) on dense rows."""
    if not rows:
        return [], [], [], []
    width = len(rows[0])
    if nprimary is None:
        nprimary = width
    placed, queue, free = {}, [list(r) for r in rows], []

    def place(row, col):
        placed[col] = piv = ref_normalize_pivot(R, row, col)
        ann = ref_annihilator(R, piv, col)
        if ann is not None:
            queue.append(ann)

    while queue:
        row = queue.pop(0)
        col = ref_leading_col(R, row, nprimary)
        while col is not None:
            piv = placed.get(col)
            if piv is None:
                place(row, col)
                break
            q, r = R.divmod_pivot(row[col], piv[col])
            if not R.nonzero(r):
                row = ref_row_sub(R, row, q, piv)
            else:
                newpiv, row, deferred = ref_merge_pivot(R, piv, row, col)
                place(newpiv, col)
                queue += deferred
            col = ref_leading_col(R, row, nprimary)
        else:
            if not vec_is_zero(R, row):
                free.append(row)
    cols = sorted(placed)
    pivot_rows = [placed[c] for c in cols]
    for i in range(len(pivot_rows) - 2, -1, -1):
        pivot_rows[i] = ref_reduce(R, pivot_rows[i + 1:], cols[i + 1:], pivot_rows[i])
    tail, tail_cols = [], []
    if free and nprimary < width:
        tail, tail_cols = ref_echelon(R, [r[nprimary:] for r in free])[:2]
    return (pivot_rows, cols, [[R.zero] * nprimary + t for t in tail],
            [nprimary + c for c in tail_cols])


def ref_reduce(R, rows, cols, v):
    for row, c in zip(rows, cols):
        if R.nonzero(v[c]):
            q = R.divmod_pivot(v[c], row[c])[0]
            if R.nonzero(q):
                v = ref_row_sub(R, v, q, row)
    return v


def ref_member_and_kernel(R, rows, v):
    """(x, K) on dense rows: x dense or None, K the dense kernel rows."""
    if not rows:
        return (None if not vec_is_zero(R, v) else []), []
    n, k = len(v), len(rows)
    augmented = [list(r) + [R.one if i == j else R.zero for j in range(k)]
                 for i, r in enumerate(rows)]
    pivot_rows, cols, free, _ = ref_echelon(R, augmented, nprimary=n)
    w = ref_reduce(R, pivot_rows, cols, list(v) + [R.zero] * k)
    x = [R.neg(a) for a in w[n:]] if vec_is_zero(R, w[:n]) else None
    return x, [f[n:] for f in free]


def random_rows(R, rng):
    ncols = rng.randrange(1, 6)
    rows = [[digest_elt(R, rng) for _ in range(ncols)]
            for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.5:
        rows.append(combine(R, [digest_elt(R, rng) for _ in rows], rows))
    return rows


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_sparse_rows_match_the_dense_reference(R):
    """echelon with and without tracked columns, reduce_mod_span and
    solver on the sparse rows against the dense reference: the same pivot
    rows, cols, first non-unit pivot, free rows, remainders, solutions x
    (also of a v with an entry past every column of the rows) and kernel
    K, each sparse result expanded, and every sparse row sorted with no
    zero entry."""
    hyp = pytest.importorskip("hypothesis")

    def form_ok(rows):
        return all(all(R.nonzero(x) for _, x in row)
                   and all(a[0] < b[0] for a, b in zip(row, row[1:])) for row in rows)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(hyp.strategies.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        rows = random_rows(R, rng)
        n = len(rows[0])
        for nprimary in (None, rng.randrange(1, n + 1)):
            span, free = echelon(R, sparse_rows(R, rows), nprimary)
            ref_span, ref_cols, ref_free, ref_free_cols = ref_echelon(R, rows, nprimary)
            assert form_ok(span) and form_ok(free)
            assert dense_rows(R, n, span) == ref_span and span.cols == ref_cols
            assert span.nonunit == next((t for t, (row, c) in enumerate(
                zip(ref_span, ref_cols)) if not R.is_unit(row[c])), None)
            assert dense_rows(R, n, free) == ref_free and free.cols == ref_free_cols
            if nprimary is None:
                inside = combine(R, [digest_elt(R, rng) for _ in rows], rows)
                for v in (inside, [digest_elt(R, rng) for _ in range(n)]):
                    w = reduce_mod_span(R, span, nonzeros(R, v))
                    assert form_ok([w])
                    assert dense(R, n, w) == ref_reduce(R, ref_span, ref_cols, v)
        solve, K = solver(R, sparse_rows(R, rows))
        assert form_ok(K)
        assert dense_rows(R, len(rows), K) == ref_member_and_kernel(R, rows, [R.zero] * n)[1]
        padded = [row + [R.zero] for row in rows]
        for v in (combine(R, [digest_elt(R, rng) for _ in rows], rows),
                  [digest_elt(R, rng) for _ in range(n)], [R.zero] * n,
                  [digest_elt(R, rng) for _ in range(n)] + [R.one]):
            x = solve(nonzeros(R, v))
            ref_x = ref_member_and_kernel(R, padded if len(v) > n else rows, v)[0]
            assert x is None or form_ok([x])
            assert (x if x is None else dense(R, len(rows), x)) == ref_x

    check()


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_span_reduces_like_the_scan(R):
    """A Span's pivots, first non-unit pivot, reduce_mod_span and member
    against the scan-per-call reference on its dense rows, on canonical
    spans and row kernels, for vectors inside and outside the span; the
    same Span placed row by row."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(hyp.strategies.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        ncols = rng.randrange(1, 6)
        rows = [[digest_elt(R, rng) for _ in range(ncols)]
                for _ in range(rng.randrange(1, 6))]
        for span, width in ((canonical_span(R, sparse_rows(R, rows)), ncols),
                            (row_kernel(R, sparse_rows(R, transpose(rows))), len(rows[0]))):
            assert isinstance(span, Span)
            if not span:
                continue
            dense_span = dense_rows(R, width, span)
            ref_cols = [ref_leading_col(R, row, width) for row in dense_span]
            assert span.cols == ref_cols
            assert span.nonunit == next((t for t, (row, c) in enumerate(
                zip(dense_span, ref_cols)) if not R.is_unit(row[c])), None)
            rebuilt = Span(R)
            for row in span:
                rebuilt.place(R, row)
            assert (rebuilt, rebuilt.cols, rebuilt.nonunit) == \
                (span, span.cols, span.nonunit)
            inside = combine(R, [digest_elt(R, rng) for _ in span], dense_span)
            for v in (inside, [digest_elt(R, rng) for _ in range(width)]):
                ref = ref_reduce(R, dense_span, ref_cols, v)
                assert dense(R, width, reduce_mod_span(R, span, nonzeros(R, v))) == ref
                assert member(R, span, nonzeros(R, v)) == vec_is_zero(R, ref)
            assert member(R, span, nonzeros(R, inside))

    check()
