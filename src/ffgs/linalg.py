"""Exact linear algebra over the supported base rings.

Submodules of R^n are given by canonical row bases.  `echelon` builds them
with one elimination loop that knows no ring; the per-ring rules are the
hooks of `Ring`:

  nonzero          the zero test, bound to a local name in the loops
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
list equality.  `echelon` returns them as a `Span`, a list of the rows
that also carries the pivot column of each row and where the first
non-unit pivot is; it is the only form code outside this module reduces
against.  `reduce_mod_span` returns the canonical remainder of a vector
read at those pivots, never looking for one again, so membership is
reduction to zero.  Determinants are `Ring.det`.
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
    return not any(map(R.nonzero, u))

def add_scaled(R: Ring, out, terms):
    """out + sum of c * row over the (c, row) in terms, skipping zero c;
    the sum is made in out, which is returned."""
    nonzero, add, mul = R.nonzero, R.add, R.mul
    for c, row in terms:
        if nonzero(c):
            for t, x in enumerate(row):
                out[t] = add(out[t], mul(c, x))
    return out


# -- matrices (list of rows; maps act on column vectors) ------------------

def transpose(M):
    return [list(col) for col in zip(*M)]

def identity_matrix(R: Ring, n: int):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]

def mat_vec(R: Ring, M, v):
    return [R.dot(row, v) for row in M]


# -- echelonization core ---------------------------------------------------

class Span(list):
    """The list of a span's basis rows, with `cols`, the pivot column of
    each row, and `nonunit`, the index of the first row whose pivot is not
    a unit (None if there is none).  Each row is zero at the pivot columns
    of the rows before it, so reducing at the pivots in row order never
    refills a column.  `echelon` builds the canonical ones."""

    def __init__(self, R: Ring, rows=(), cols=()):
        super().__init__(rows)
        self.cols = list(cols)
        self.nonunit = next((t for t, (row, c) in enumerate(zip(self, self.cols))
                             if not R.is_unit(row[c])), None)

    def place(self, R: Ring, row, col):
        """Append row, zero at every pivot column so far, with pivot col."""
        if self.nonunit is None and not R.is_unit(row[col]):
            self.nonunit = len(self)
        self.append(row)
        self.cols.append(col)


def _leading_col(R, row, limit):
    nonzero = R.nonzero
    for c in range(limit):
        if nonzero(row[c]):
            return c
    return None


def echelon(R: Ring, rows, nprimary: int | None = None):
    """Canonical echelon form of the row span, echelonizing on columns
    0..nprimary-1; trailing columns ride along (used for kernel tracking).

    Returns (pivot_rows, pivots, free_rows): pivot_rows the Span of the
    pivot rows sorted by pivot column, pivots a list of (col, pivot_value),
    free_rows the Span of the canonicalized rows whose primary part is zero
    (their tails span the tracked part).
    """
    if not rows:
        return Span(R), [], Span(R)
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
            if not R.nonzero(r):
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
    tail = Span(R)
    if free and nprimary < width:
        tail = echelon(R, [r[nprimary:] for r in free])[0]
    free = Span(R, [[R.zero] * nprimary + t for t in tail],
                [nprimary + c for c in tail.cols])
    return Span(R, pivot_rows, cols), pivots, free


def canonical_span(R: Ring, rows) -> Span:
    """Unique canonical basis of the row span of `rows`."""
    return echelon(R, rows)[0]


def _reduce(R, rows, cols, v):
    """v with its entry at each cols[j] reduced by R.divmod_pivot against
    the pivot rows[j][cols[j]], in order."""
    nonzero = R.nonzero
    for row, c in zip(rows, cols):
        if nonzero(v[c]):
            q = R.divmod_pivot(v[c], row[c])[0]
            if nonzero(q):
                v = R.row_sub(v, q, row)
    return v


def reduce_mod_span(R: Ring, span: Span, v):
    """Remainder of v modulo a Span, read at its pivots.  For a canonical
    span it is canonical, and zero exactly when v lies in the span."""
    return _reduce(R, span, span.cols, list(v))


def member(R: Ring, span: Span, v) -> bool:
    return vec_is_zero(R, reduce_mod_span(R, span, v))


def _augment(R: Ring, rows):
    """rows with the identity matrix appended, to track combinations."""
    k = len(rows)
    return [list(r) + [R.one if i == j else R.zero for j in range(k)]
            for i, r in enumerate(rows)]


def member_and_kernel(R: Ring, rows, v):
    """(x, K) from one elimination of rows with the identity appended: x
    with x . rows = v, or None, and K the canonical Span of
    {x : x . rows = 0}, which echelon leaves in the free tails."""
    if not rows:
        return (None if not vec_is_zero(R, v) else []), Span(R)
    n = len(v)
    pivot_rows, _, free = echelon(R, _augment(R, rows), nprimary=n)
    w = reduce_mod_span(R, pivot_rows, list(v) + [R.zero] * len(rows))
    x = [R.neg(a) for a in w[n:]] if vec_is_zero(R, w[:n]) else None
    return x, Span(R, [f[n:] for f in free], [c - n for c in free.cols])


def row_kernel(R: Ring, rows):
    """Canonical Span of {x : sum_i x_i rows_i = 0}."""
    if not rows:
        return Span(R)
    return member_and_kernel(R, rows, [R.zero] * len(rows[0]))[1]


def member_with_coeffs(R: Ring, rows, v):
    """x with x . rows = v, or None."""
    return member_and_kernel(R, rows, v)[0]


def det(R: Ring, M):
    """Exact determinant of a square matrix (see Ring.det)."""
    return R.det(M)

