"""Exact linear algebra over the supported base rings.

Submodules of R^n are given by canonical row bases.  `echelon` builds them
with one elimination loop that knows no ring; the per-ring rules are the
canonical-form hooks of `Ring`:

  normalize_pivot  scale a new pivot row by a unit to its canonical pivot
  divmod_pivot     canonical quotient and remainder of an entry by a pivot
  row_sub          the row update row - q*pivot
  merge_pivot      what to do when a pivot does not divide an entry
  annihilator      the row a new pivot adds to the work queue

The forms they give:
  * fields            -> reduced row echelon form (the Ring defaults)
  * Z/n               -> Howell form: pivots divide n, a non-dividing entry
                         merges into the pivot by a gcd combination, every
                         pivot queues its annihilator, and entries above a
                         pivot d lie in range(d)
  * Z localized at p  -> staircase form with pivots p^v: a lower-valuation
                         entry takes the pivot's place, and entries above a
                         pivot are reduced to their integer residue mod p^v
  * dual numbers      -> staircase form with pivots 1 or eps (chain ring,
                         same shape as Z/p^2); an eps pivot queues eps times
                         its row

Canonical forms are unique for a given row span, so submodule equality is
list equality.  `reduce_mod_span` returns the canonical remainder of a
vector, so membership is reduction to zero.  Determinants are `Ring.det`.
"""

from __future__ import annotations

from .rings import Ring


# -- vectors -------------------------------------------------------------

def vec_add(R: Ring, u, v):
    return [R.add(a, b) for a, b in zip(u, v)]

def vec_sub(R: Ring, u, v):
    return [R.sub(a, b) for a, b in zip(u, v)]

def vec_scale(R: Ring, c, u):
    return [R.mul(c, a) for a in u]

def vec_is_zero(R: Ring, u):
    return all(a == R.zero for a in u)


# -- matrices (list of rows; maps act on column vectors) ------------------

def transpose(M):
    return [list(col) for col in zip(*M)]

def identity_matrix(R: Ring, n: int):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]

def mat_vec(R: Ring, M, v):
    return [R.dot(row, v) for row in M]

def mat_mul(R: Ring, A, B):
    Bt = transpose(B)
    return [[R.dot(row, col) for col in Bt] for row in A]


# -- echelonization core ---------------------------------------------------

def _leading_col(R, row, limit):
    for c in range(limit):
        if row[c] != R.zero:
            return c
    return None


def echelon(R: Ring, rows, nprimary: int | None = None):
    """Canonical echelon form of the row span, echelonizing on columns
    0..nprimary-1; trailing columns ride along (used for kernel tracking).

    Returns (pivot_rows, pivots, free_rows): pivot_rows sorted by pivot
    column, pivots a list of (col, pivot_value), free_rows canonicalized
    rows whose primary part is zero (their tails span the tracked part).
    """
    if not rows:
        return [], [], []
    width = len(rows[0])
    if nprimary is None:
        nprimary = width
    placed: dict[int, list] = {}
    queue = [list(r) for r in rows]
    free: list[list] = []

    def place(row, col):
        placed[col] = piv = R.normalize_pivot(row, col)
        ann = R.annihilator(piv, col)
        if ann is not None:
            queue.append(ann)

    while queue:
        row = queue.pop(0)
        col = _leading_col(R, row, nprimary)
        while col is not None:
            piv = placed.get(col)
            if piv is None:
                place(row, col)
                break
            q, r = R.divmod_pivot(row[col], piv[col])
            if r == R.zero:
                row = R.row_sub(row, q, piv)
            else:
                # the order rows are processed in fixes the tracked columns
                # of the pivot rows (member_with_coeffs returns them), so the
                # ring decides what is reduced now and what is deferred
                newpiv, row, deferred = R.merge_pivot(piv, row, col)
                place(newpiv, col)
                queue += deferred
            col = _leading_col(R, row, nprimary)
        else:
            # the primary part is eliminated; what is left is free
            if not vec_is_zero(R, row):
                free.append(row)
    cols = sorted(placed)
    pivot_rows = [placed[c] for c in cols]
    # back-substitution: reduce each row at the later pivot columns
    for i in range(len(pivot_rows) - 2, -1, -1):
        pivot_rows[i] = _reduce(R, pivot_rows[i + 1:], cols[i + 1:], pivot_rows[i])
    pivots = [(c, placed[c][c]) for c in cols]
    if free:
        tail = [r[nprimary:] for r in free]
        if tail and tail[0]:
            tail = echelon(R, tail)[0]
            free = [[R.zero] * nprimary + t for t in tail]
        else:
            free = []
    return pivot_rows, pivots, free


def canonical_span(R: Ring, rows):
    """Unique canonical basis of the row span of `rows`."""
    return echelon(R, rows)[0]


def _reduce(R, rows, cols, v):
    """v with its entry at each cols[j] reduced by R.divmod_pivot against
    the pivot rows[j][cols[j]], in order."""
    for row, c in zip(rows, cols):
        if v[c] != R.zero:
            q = R.divmod_pivot(v[c], row[c])[0]
            if q != R.zero:
                v = R.row_sub(v, q, row)
    return v


def reduce_mod_span(R: Ring, canon_rows, v):
    """Canonical remainder of v modulo the span of a canonical row basis.
    It is zero exactly when v lies in the span."""
    cols = [_leading_col(R, row, len(v)) for row in canon_rows]
    return _reduce(R, canon_rows, cols, list(v))


def pivot_columns(R: Ring, canon_rows):
    """(pivot column of each row of a canonical basis, index of the first
    row whose pivot is not a unit, or None when all pivots are units)."""
    cols = [_leading_col(R, row, len(row)) for row in canon_rows]
    bad = next((t for t, (row, c) in enumerate(zip(canon_rows, cols))
                if not R.is_unit(row[c])), None)
    return cols, bad


def member(R: Ring, canon_rows, v) -> bool:
    return vec_is_zero(R, reduce_mod_span(R, canon_rows, v))


def span_equal(R: Ring, rows_a, rows_b) -> bool:
    return canonical_span(R, rows_a) == canonical_span(R, rows_b)


def _augment(R: Ring, rows):
    """rows with the identity matrix appended, to track combinations."""
    k = len(rows)
    return [list(r) + [R.one if i == j else R.zero for j in range(k)]
            for i, r in enumerate(rows)]


def row_kernel(R: Ring, rows):
    """Canonical basis of {x : sum_i x_i rows_i = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    _, _, free = echelon(R, _augment(R, rows), nprimary=n)
    return canonical_span(R, [f[n:] for f in free])


def member_with_coeffs(R: Ring, rows, v):
    """x with x . rows = v, or None."""
    if not rows:
        return None if not vec_is_zero(R, v) else []
    n = len(v)
    pivot_rows = echelon(R, _augment(R, rows), nprimary=n)[0]
    w = reduce_mod_span(R, pivot_rows, list(v) + [R.zero] * len(rows))
    if not vec_is_zero(R, w[:n]):
        return None
    return [R.neg(x) for x in w[n:]]


def mat_kernel(R: Ring, M):
    """Canonical basis of the right kernel {x : Mx = 0}."""
    return row_kernel(R, transpose(M))


def solve(R: Ring, M, b):
    """x with Mx = b, or None."""
    return member_with_coeffs(R, transpose(M), b)


def mat_inverse(R: Ring, M):
    n = len(M)
    cols = []
    for j in range(n):
        e = [R.one if i == j else R.zero for i in range(n)]
        x = solve(R, M, e)
        if x is None:
            return None
        cols.append(x)
    return transpose(cols)


def det(R: Ring, M):
    """Exact determinant of a square matrix (see Ring.det)."""
    return R.det(M)

