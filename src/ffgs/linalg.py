"""Exact linear algebra over the supported base rings.

A row, a vector of R^n, is the list of its nonzero (col, x) in increasing
col, the form an element of A has in `hopf`: no function here needs the
width n, and the zeros are never scanned.  Submodules of R^n are given by
canonical row bases.  `echelon` builds them with one elimination loop that
knows no ring; the per-ring rules are the hooks of `Ring`, which act on
such rows:

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

The pivot of a row is its first entry, so the leading column is row[0][0].
Canonical forms are unique for a given row span, so submodule equality is
list equality.  `echelon` returns them as a `Span`, a list of the rows
that also carries the pivot column of each row and where the first
non-unit pivot is; it is the only form code outside this module reduces
against.  `reduce_mod_span` returns the canonical remainder of a row
read at those pivots, never looking for one again, so membership is
reduction to zero.  Determinants are `Ring.det`.
"""

from __future__ import annotations

from .rings import Ring


def add_scaled(R: Ring, out, terms):
    """out + sum of c * row over the (c, row) in terms, skipping zero c,
    for dense lists out and row; the sum is made in out, which is
    returned."""
    nonzero, add, mul = R.nonzero, R.add, R.mul
    for c, row in terms:
        if nonzero(c):
            for t, x in enumerate(row):
                out[t] = add(out[t], mul(c, x))
    return out


# -- echelonization core ---------------------------------------------------

class Span(list):
    """The list of a span's basis rows, with `cols`, the pivot column of
    each row (its first entry), and `nonunit`, the index of the first row
    whose pivot is not a unit (None if there is none).  Each row is zero at
    the pivot columns of the rows before it, so reducing at the pivots in
    row order never refills a column.  `echelon` builds the canonical ones,
    in which each unit pivot is R.one and every row is zero at the pivot
    column of each other row whose pivot is a unit (above a non-unit pivot
    d an entry is only reduced by d); projections modulo a span with unit
    pivots and coordinates in it are read off these rows."""

    def __init__(self, R: Ring, rows=()):
        super().__init__(rows)
        self.cols = [row[0][0] for row in self]
        self.nonunit = next((t for t, row in enumerate(self)
                             if not R.is_unit(row[0][1])), None)

    def place(self, R: Ring, row):
        """Append row, zero at every pivot column so far."""
        if self.nonunit is None and not R.is_unit(row[0][1]):
            self.nonunit = len(self)
        self.append(row)
        self.cols.append(row[0][0])


def echelon(R: Ring, rows, nprimary: int | None = None):
    """Canonical echelon form of the row span, echelonizing on columns
    0..nprimary-1 (every column if None); later columns ride along (used
    for kernel tracking).

    Returns (pivot_rows, free_rows): pivot_rows the Span of the pivot rows
    sorted by pivot column, free_rows the canonical Span of the rows whose
    primary part is eliminated (they span the tracked part).
    """
    placed: dict[int, list] = {}
    queue = [r for r in rows if r]
    free: list[list] = []

    def place(row):
        placed[row[0][0]] = piv = R.normalize_pivot(row)
        ann = R.annihilator(piv)
        if ann:
            queue.append(ann)

    while queue:
        row = queue.pop(0)
        while row and (nprimary is None or row[0][0] < nprimary):
            col, a = row[0]
            piv = placed.get(col)
            if piv is None:
                place(row)
                break
            q, r = R.divmod_pivot(a, piv[0][1])
            if not R.nonzero(r):
                row = R.row_sub(row, q, piv)
            else:
                # the order rows are processed in fixes the tracked columns
                # of the pivot rows (solver reads solutions off them), so the
                # ring decides what is reduced now and what is deferred
                newpiv, row, deferred = R.merge_pivot(piv, row)
                place(newpiv)
                queue += deferred
        else:
            # the primary part is eliminated; what is left is free
            if row:
                free.append(row)
    pivot_rows = [placed[c] for c in sorted(placed)]
    # back-substitution: reduce each row at the later pivot columns
    for i in range(len(pivot_rows) - 2, -1, -1):
        pivot_rows[i] = _reduce(R, pivot_rows[i + 1:], pivot_rows[i])
    free = echelon(R, free)[0] if free else Span(R)
    return Span(R, pivot_rows), free


def canonical_span(R: Ring, rows) -> Span:
    """Unique canonical basis of the row span of `rows`."""
    return echelon(R, rows)[0]


def _reduce(R, rows, v):
    """v with its entry at the pivot of each of rows reduced by
    R.divmod_pivot against it, in order."""
    nonzero = R.nonzero
    entries = dict(v)
    for row in rows:
        c, p = row[0]
        a = entries.get(c)
        if a is not None:
            q = R.divmod_pivot(a, p)[0]
            if nonzero(q):
                v = R.row_sub(v, q, row)
                entries = dict(v)
    return v


def reduce_mod_span(R: Ring, span: Span, v):
    """Remainder of v modulo a Span, read at its pivots.  For a canonical
    span it is canonical, and zero exactly when v lies in the span."""
    return _reduce(R, span, v)


def member(R: Ring, span: Span, v) -> bool:
    return not reduce_mod_span(R, span, v)


def solver(R: Ring, rows):
    """(solve, K) from one elimination of rows with the tracked column
    n + i appended to row i, n past every column of rows: solve(v) is x
    with x . rows = v, or None, and K the canonical Span of
    {x : x . rows = 0}, which echelon leaves in the free rows."""
    n = 1 + max((r[-1][0] for r in rows if r), default=-1)
    pivot_rows, free = echelon(
        R, [r + [(n + i, R.one)] for i, r in enumerate(rows)], nprimary=n)

    def solve(v):
        if v and v[-1][0] >= n:
            return None
        w = reduce_mod_span(R, pivot_rows, v)
        return [(c - n, R.neg(a)) for c, a in w] if not w or w[0][0] >= n else None

    return solve, Span(R, [[(c - n, a) for c, a in f] for f in free])


def row_kernel(R: Ring, rows):
    """Canonical Span of {x : sum_i x_i rows_i = 0}."""
    return solver(R, rows)[1]


def member_with_coeffs(R: Ring, rows, v):
    """x with x . rows = v, or None."""
    return solver(R, rows)[0](v)
