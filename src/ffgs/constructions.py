"""Standard group schemes and the category operations on them.

Builtins: multiplicative mu_n, constant groups, the infinitesimal
alpha_p in characteristic p, order-2 schemes x^2 = a x with a*b = -2,
semidirect products of a constant group acting on anything, and direct
products.

Subobjects are Hopf ideals; kernels, images, intersections, normality
and free quotients are all computed at the ideal level with canonical
module forms, so equality of subgroups is literal equality of bases."""

from __future__ import annotations

import functools
import itertools
from math import comb

from .linalg import Span, canonical_span, row_kernel, solver
from .hopf import (
    GroupScheme,
    GroupSchemeHom,
    HopfError,
    VerificationReport,
    dense,
    hom_on_points,
    map_tensor,
    nonzeros,
    points,
    project,
)
from .oracle import AbstractGroup, cyclic_table
from .rings import Ring, RingError, find_hom, is_prime
from .testrings import test_ring_family


# ----------------------------------------------------------------------
# Builtins


def mu(R: Ring, n: int) -> GroupScheme:
    """mu_n = Spec R[x]/(x^n - 1), group law x (x) x. Basis x^0..x^{n-1}."""
    if n < 1:
        raise HopfError("mu needs n >= 1")
    O = R.one
    mult = [[[((i + j) % n, O)] for j in range(n)] for i in range(n)]
    comult = [[(i, i, O)] for i in range(n)]
    antipode = [[(-i % n, O)] for i in range(n)]
    return GroupScheme(R, n, (mult, comult, antipode), [(0, O)], [O] * n, f"mu_{n}")


def group_of_table(table) -> AbstractGroup:
    """The finite group of a multiplication table; HopfError unless the
    table is a non-empty Latin square on 0..n-1 with an identity."""
    n = len(table)
    if not n or any(not isinstance(row, (list, tuple)) or len(row) != n
                    or any(type(x) is not int for x in row) for row in table):
        raise HopfError("a group table is a non-empty square array of indices")
    if any(sorted(line) != list(range(n)) for line in [*table, *zip(*table)]):
        raise HopfError("each row and column of a group table must permute 0..n-1")
    if not any(all(table[e][x] == x == table[x][e] for x in range(n))
               for e in range(n)):
        raise HopfError("the group table has no identity")
    return AbstractGroup(table)


def constant(R: Ring, table, name: str | None = None) -> GroupScheme:
    """Constant group scheme of a finite group given by its table.

    Basis = indicator functions of the group elements."""
    G = group_of_table(table)
    n = G.order
    Z, O = R.zero, R.one
    mult = [[[(i, O)] if i == j else [] for j in range(n)] for i in range(n)]
    comult = [[] for _ in range(n)]
    for h in range(n):
        for hp in range(n):
            comult[table[h][hp]].append((h, hp, O))
    counit = [O if g == G.identity else Z for g in range(n)]
    antipode = [[(G.inverse(g), O)] for g in range(n)]
    unit = [(g, O) for g in range(n)]
    return GroupScheme(R, n, (mult, comult, antipode), unit, counit,
                       name or f"constant({G.identify()})")


def constant_cyclic(R: Ring, n: int) -> GroupScheme:
    return constant(R, cyclic_table(n), name=f"Z/{n}")


def alpha(R: Ring, p: int) -> GroupScheme:
    """alpha_p = Spec R[x]/(x^p), additive group law (p prime, char p only)."""
    if R.char() != p:
        raise HopfError(f"alpha_{p} needs a base of characteristic {p}")
    if not is_prime(p):
        raise HopfError(f"alpha_{p} needs a prime p")
    O, m = R.one, p
    mult = [[[(i + j, O)] if i + j < m else [] for j in range(m)] for i in range(m)]
    # 0 < comb(i, j) < p for i < p, so no coefficient vanishes in char p
    comult = [[(j, i - j, R.from_int(comb(i, j))) for j in range(i + 1)]
              for i in range(m)]
    antipode = [[(i, R.from_int((-1) ** i))] for i in range(m)]
    return GroupScheme(R, m, (mult, comult, antipode), [(0, O)],
                       [O] + [R.zero] * (m - 1), f"alpha_{p}")


def tate_oort2(R: Ring, a, b) -> GroupScheme:
    """Order 2: Spec R[x]/(x^2 - a x), Delta x = x(x)1 + 1(x)x + b x(x)x.

    Requires a * b = -2. (a, b) = (0, anything with 0*b = -2 impossible
    unless char 2; standard members: (2, -1) = mu_2, (0, b) with char 2.)"""
    if R.mul(a, b) != R.neg(R.from_int(2)):
        raise HopfError("tate_oort2 needs a * b = -2")
    O = R.one
    mult = [[[(0, O)], [(1, O)]], [[(1, O)], [(1, a)] if R.nonzero(a) else []]]
    comult = [[(0, 0, O)], [(0, 1, O), (1, 0, O)] + ([(1, 1, b)] if R.nonzero(b) else [])]
    # every point squares to the identity, so the antipode is the identity:
    # m(S(x)id)Delta(x) = 2x + b x^2 = (2 + ab) x = 0
    antipode = [[(0, O)], [(1, O)]]
    return GroupScheme(R, 2, (mult, comult, antipode), [(0, O)],
                       [O, R.zero], f"ot2({R.show(a)},{R.show(b)})")


def direct_product(G: GroupScheme, H: GroupScheme) -> GroupScheme:
    """G x H via the tensor product Hopf algebra."""
    if G.ring != H.ring:
        raise HopfError("direct product needs a common base")
    R = G.ring
    mG, mH = G.rank, H.rank
    m = mG * mH
    def idx(i, a):
        return i * mH + a
    nonzero, mul = R.nonzero, R.mul
    (GM, GC, GS), (HM, HC, HS) = G.sparse, H.sparse
    pairs = list(itertools.product(range(mG), range(mH)))  # idx order

    def product(u, v):  # u (x) v for elements
        return [(idx(k, c), d) for k, x in u for c, y in v if nonzero(d := mul(x, y))]

    mult = [[product(GM[i][j], HM[a][b]) for j, b in pairs] for i, a in pairs]
    comult = [sorted((idx(j, x), idx(k, y), d) for j, k, c in GC[i] for x, y, e in HC[a]
                     if nonzero(d := mul(c, e))) for i, a in pairs]
    antipode = [product(GS[i], HS[a]) for i, a in pairs]
    unit = product(G.unit, H.unit)
    counit = [mul(G.counit[i], H.counit[a]) for i, a in pairs]
    name = None
    if G.name and H.name:
        name = f"{G.name} x {H.name}"
    return GroupScheme(R, m, (mult, comult, antipode), unit, counit, name)


def semidirect(Q: GroupScheme, P_table, action) -> GroupScheme:
    """Semidirect product Q x| P with P the constant group of P_table
    acting on Q.

    action[g] is the algebra map of the automorphism alpha_g of Q, the
    rows alpha_g^*(e_j) as elements of Hopf(Q).  Each must be a Hopf
    automorphism, trivial at the identity, with alpha_h then alpha_g
    equal to alpha_{gh} (a left action).

    Basis: a_i (x) f_g with a_i the Q basis and f_g indicators of P."""
    R = Q.ring
    P = group_of_table(P_table)
    n = P.order
    mQ = Q.rank
    autos = {}
    for g in range(n):
        h = GroupSchemeHom(Q, Q, action[g])
        rep = h.is_valid()
        if not rep or not h.is_module_iso():
            raise HopfError(f"action entry {g} is not a Hopf automorphism: {rep}")
        autos[g] = h
    ident = [Q.basis_vector(j) for j in range(mQ)]
    if autos[P.identity].alg != ident:
        raise HopfError("action at the identity must be trivial")
    for g in range(n):
        for h in range(n):
            gh = P.table[g][h]
            comp = autos[h].then(autos[g])
            if comp.alg != autos[gh].alg:
                raise HopfError(f"action is not a homomorphism at ({g},{h})")
    m = mQ * n
    def idx(i, g):
        return i * n + g
    QM, QC, _ = Q.sparse
    pairs = list(itertools.product(range(mQ), range(n)))  # idx order
    # algebra: (a (x) f_g)(b (x) f_h) = delta_{g,h} ab (x) f_g
    mult = [[[(idx(k, g), c) for k, c in QM[i][j]] if g == h else []
             for j, h in pairs] for i, g in pairs]
    unit = [(idx(i, g), c) for i, c in Q.unit for g in range(n)]
    # Delta(a (x) f_g) = sum_{h h' = g} a_(1) (x) f_h (x) alpha_h^*(a_(2)) (x) f_h',
    # with (id (x) alpha_h^*) Delta_Q(a) made once per (a, h); the terms of
    # each h have their own first index (j, h), so none are summed across h
    moved = [[map_tensor(R, ident, autos[h].alg, QC[i]) for h in range(n)]
             for i in range(mQ)]
    comult = [sorted((idx(j, h), idx(t, P.table[P.inverse(h)][g]), c)
                     for h in range(n) for j, t, c in moved[i][h])
              for i, g in pairs]
    counit = [Q.counit[i] if g == P.identity else R.zero for i, g in pairs]
    # S(a (x) f_g) = S_Q(alpha_g^* a) (x) f_{g^{-1}}
    antipode = [[(idx(t, P.inverse(g)), x) for t, x in Q.antipode_vec(autos[g].alg[i])]
                for i, g in pairs]
    name = None
    if Q.name:
        name = f"{Q.name} x| {P.identify()}"
    return GroupScheme(R, m, (mult, comult, antipode), unit, counit, name)


def inversion_action(Q: GroupScheme, P_table):
    """The action of a group of exponent <= 2 on commutative Q by
    inversion on non-identity elements."""
    P = group_of_table(P_table)
    out = []
    for g in range(P.order):
        if g == P.identity:
            out.append([Q.basis_vector(i) for i in range(Q.rank)])
        else:
            if P.element_order(g) != 2:
                raise HopfError("inversion action needs exponent 2 off identity")
            out.append([Q.antipode_vec(Q.basis_vector(i)) for i in range(Q.rank)])
    return out


# ----------------------------------------------------------------------
# Closed subgroups = Hopf ideals


class ClosedSubgroup:
    """A closed subgroup scheme of ambient, stored by the canonical basis
    of its defining Hopf ideal: a canonical Span is kept as given, other
    rows are echelonized.  The rows are trusted to span a Hopf ideal;
    `verify_hopf_ideal` checks it.  Its quotient data and their sparse
    rows, Hopf-ideal report, normality verdict and scheme are cached
    properties, made on first use and kept; callers do not mutate them."""

    def __init__(self, ambient: GroupScheme, ideal_rows):
        self.ambient = ambient
        self.ideal = (ideal_rows if isinstance(ideal_rows, Span)
                      else canonical_span(ambient.ring, ideal_rows))

    @property
    def order(self) -> int:
        return self.ambient.rank - len(self.ideal)

    def __eq__(self, other):
        return (
            isinstance(other, ClosedSubgroup)
            and self.ambient is other.ambient
            and self.ideal == other.ideal
        )

    def __repr__(self):
        return f"<closed subgroup of order {self.order} in {self.ambient!r}>"

    def shown_ideal(self):
        """The ideal's rows as the dense lists of `show` texts printed."""
        R, m = self.ambient.ring, self.ambient.rank
        return [[R.show(c) for c in dense(R, m, v)] for v in self.ideal]

    def verify_hopf_ideal(self) -> VerificationReport:
        return self._hopf_ideal_report

    @functools.cached_property
    def _hopf_ideal_report(self) -> VerificationReport:
        G = self.ambient
        R = G.ring
        # with unit pivots A = F (+) I, F spanned by the free columns: v is in
        # I iff pi(v) = 0, and I (x) A + A (x) I is the kernel of pi (x) pi
        if self.ideal.nonunit is not None:
            return VerificationReport(False, "not-flat", (self.ideal.nonunit,))
        pb = self.quotient_data()[1]

        def outside(v, i):  # v e_i is not in I
            return project(R, pb, G.mul_vec(v, G.basis_vector(i)))

        # ideal: closed under multiplication by the ambient algebra, which
        # a generator s = e_g of A settles alone; on a failure the basis scan
        # names the first failing (t, i)
        g = G.presentation.index
        if g is None or any(outside(v, g) for v in self.ideal):
            for t, v in enumerate(self.ideal):
                for i in range(G.rank):
                    if outside(v, i):
                        return VerificationReport(False, "ideal-closure", (t, i))
        # inside the augmentation ideal
        for t, v in enumerate(self.ideal):
            if R.nonzero(G.counit_of(v)):
                return VerificationReport(False, "augmentation", (t,))
        for t, v in enumerate(self.ideal):
            if map_tensor(R, pb, pb, G.comult_vec(v)):
                return VerificationReport(False, "coideal", (t,))
        for t, v in enumerate(self.ideal):
            if project(R, pb, G.antipode_vec(v)):
                return VerificationReport(False, "antipode-stability", (t,))
        return VerificationReport(True)

    def quotient_data(self):
        """Free quotient A/I: (free columns, [nonzeros(pi(e_j)) for j < m]).

        pi: A -> A/I is reduction modulo I read at the free columns.  It
        needs every pivot of I to be a unit (HopfError if not), and then
        reads it off the rows (`linalg.Span`): pi(e_j) = e_j at a free
        column j, and pi(e_c) = -row_t where c is the pivot of row t."""
        if self.ideal.nonunit is not None:
            raise HopfError("quotient is not a free module (non-unit pivot)")
        return self._quotient

    @functools.cached_property
    def _quotient(self):
        R, m = self.ambient.ring, self.ambient.rank
        free_cols = sorted(set(range(m)) - set(self.ideal.cols))
        at = {j: s for s, j in enumerate(free_cols)}
        pb = [[(at[j], R.one)] if j in at else None for j in range(m)]
        for row, c in zip(self.ideal, self.ideal.cols):
            pb[c] = [(at[x], R.neg(a)) for x, a in row[1:]]
        return free_cols, pb

    def scheme(self) -> GroupScheme:
        """The subgroup scheme Spec(A/I)."""
        return self._scheme

    @functools.cached_property
    def _scheme(self) -> GroupScheme:
        G = self.ambient
        R = G.ring
        M, C, S = G.sparse
        free_cols, pb = self.quotient_data()
        mult = [[project(R, pb, M[a][b]) for b in free_cols] for a in free_cols]
        comult = [map_tensor(R, pb, pb, C[a]) for a in free_cols]
        antipode = [project(R, pb, S[a]) for a in free_cols]
        return GroupScheme(R, len(free_cols), (mult, comult, antipode),
                           project(R, pb, G.unit),
                           [G.counit[a] for a in free_cols])

    @functools.cached_property
    def _normal(self):
        """`is_normal`'s verdict: the first t with (id (x) pi) ad(v_t) != 0."""
        G, R = self.ambient, self.ambient.ring
        ident = [[(j, R.one)] for j in range(G.rank)]
        pb = self.quotient_data()[1]
        return next(((False, t) for t, v in enumerate(self.ideal)
                     if map_tensor(R, ident, pb, conjugation_tensor(G, v))),
                    (True, None))

    def inclusion(self) -> GroupSchemeHom:
        """The closed immersion scheme(self) -> ambient."""
        return GroupSchemeHom(self.scheme(), self.ambient, self.quotient_data()[1])

    def is_trivial(self) -> bool:
        return self.order == 1


def ideal_closure(G: GroupScheme, gens):
    """The ideal generated by gens in A, which is commutative and
    associative (`verify` checks both); V is the canonical span of gens.

    Where the presentation's s generates A, the ideal is the sum of the
    V s^k: round k adds V s^k to the span, and once the canonical span is
    unchanged V s^(k+1) lies in it too.  The test is equality of the
    canonical spans, not of their row counts, which a non-unit pivot
    turning into a unit one leaves alone (3e becoming e over Z/9).
    Otherwise it is the span of the products v e_i of the rows v of V
    with the basis, which holds v = v 1; as (v e_j) e_i = v (e_j e_i) lies
    in that span again, one round closes it."""
    R, m = G.ring, G.rank
    span = frontier = canonical_span(R, gens)
    pres = G.presentation
    if pres.index is None:
        return canonical_span(R, [G.mul_vec(v, G.basis_vector(i))
                                  for v in frontier for i in range(m)])
    s = G.basis_vector(pres.index)
    while True:
        frontier = [G.mul_vec(v, s) for v in frontier]
        bigger = canonical_span(R, span + frontier)
        if bigger == span:
            return span
        span = bigger


def whole_subgroup(G: GroupScheme) -> ClosedSubgroup:
    return ClosedSubgroup(G, Span(G.ring))


def trivial_subgroup(G: GroupScheme) -> ClosedSubgroup:
    """The trivial subgroup, cut out by the augmentation ideal ker(counit):
    its canonical rows as `_augmentation_rows` writes them, else as
    `row_kernel` reads them."""
    rows = _augmentation_rows(G)
    if rows is None:
        rows = row_kernel(G.ring, [nonzeros(G.ring, [c]) for c in G.counit])
    return ClosedSubgroup(G, rows)


def _augmentation_rows(G: GroupScheme):
    """The canonical Span of ker(counit) where c_l is a unit, for c_i =
    eps(e_i) and l the last index with c_l != 0, else None.  Its rows are
    then e_i - (c_i/c_l) e_l for i != l: each has pivot 1 at i and is zero
    at the other pivots, and no multiple of e_l but 0 lies in ker(counit).
    Where eps(1) = 1 and c_l is no unit, the span has a non-unit pivot."""
    R, eps = G.ring, G.counit
    last = max((i for i, c in enumerate(eps) if R.nonzero(c)), default=None)
    if last is None or not R.is_unit(eps[last]):
        return None
    scale = R.neg(R.inv(eps[last]))
    return Span(R, [[(i, R.one)] + ([(last, R.mul(c, scale))] if R.nonzero(c) else [])
                    for i, c in enumerate(eps) if i != last])


def kernel(f: GroupSchemeHom) -> ClosedSubgroup:
    """ker f as a closed subgroup of the source: the ideal that the
    f*(e_j) - counit(e_j) 1 generate, closed under multiplication here
    as they span less than it."""
    G, R = f.source, f.source.ring
    gens = [project(R, [v, G.unit], [(0, R.one), (1, R.neg(c))])
            for v, c in zip(f.alg, f.target.counit)]
    return ClosedSubgroup(G, ideal_closure(G, gens))


def image(f: GroupSchemeHom) -> ClosedSubgroup:
    """Scheme-theoretic image, a closed subgroup of the target.

    The defining ideal is the kernel of the algebra map, i.e. all
    functions on the target pulling back to zero; as the kernel of an
    algebra map it is an ideal already."""
    return ClosedSubgroup(f.target, row_kernel(f.source.ring, f.alg))


def intersect(H1: ClosedSubgroup, H2: ClosedSubgroup) -> ClosedSubgroup:
    if H1.ambient is not H2.ambient:
        raise HopfError("intersection needs a common ambient scheme")
    return ClosedSubgroup(H1.ambient, canonical_span(H1.ambient.ring, H1.ideal + H2.ideal))


def conjugation_tensor(G: GroupScheme, v):
    """ad(v) = sum v_(1) S(v_(3)) (x) v_(2) as its nonzero (j, k, c) in
    increasing (j, k), projected through the scheme's kept ad(e_i), as ad
    is linear in v.

    The subgroup cut out by an ideal I is normal iff ad(I) lies in
    A (x) I: the conjugated element stays in the subgroup whatever the
    conjugating point does on the first tensor factor."""
    return [(j, k, c) for (j, k), c in project(G.ring, G.adjoint, v)]


def is_normal(H: ClosedSubgroup):
    """(flag, certificate): certificate is a failing generator index or None;
    made once per subgroup and kept.

    ad(v) lies in A (x) I = ker(id (x) pi) exactly when (id (x) pi) ad(v) = 0.
    This reads pi, so a non-flat I raises HopfError (see `quotient_data`)."""
    return H._normal


def quotient(G: GroupScheme, H: ClosedSubgroup):
    """(G/H, projection hom) for H normal, via coinvariants of the
    coaction (id (x) pi) Delta.  Its tables read coordinates in their basis
    B with `project` and `map_tensor`, each checked by re-expansion.

    Where H's ideal is ker(counit) and (id (x) eps) Delta(e_i) = e_i for
    every i, pi is eps up to the unit 1/c_l, so every a is coinvariant, B
    is the basis and G/1 has G's own tables: it is G under the quotient's
    name (`GroupScheme.renamed`), with G's kept objects and points."""
    if H.ambient is not G:
        raise HopfError("subgroup does not live in this scheme")
    R = G.ring
    m, n = G.rank, H.order
    ident = [[(j, R.one)] for j in range(m)]
    pb = H.quotient_data()[1]
    name = f"{G.name}/H" if G.name else None
    if n == 1 and H.ideal == _augmentation_rows(G) and _right_counit_law(G, ident):
        Gbar = G.renamed(name)
        return Gbar, GroupSchemeHom(G, Gbar, ident)
    minus_unit = [(k, R.neg(u)) for k, u in G.unit]
    # a = sum t_i e_i is coinvariant iff (id (x) pi) Delta(a) = a (x) pi(1),
    # that is iff sum t_i (id (x) pi)(Delta(e_i) - e_i (x) 1) = 0
    cols = []
    for i, terms in enumerate(G.sparse.comult):
        tensor = map_tensor(R, ident, pb, terms + [(i, k, u) for k, u in minus_unit])
        cols.append([(j * n + s, c) for j, s, c in tensor])
    B = row_kernel(R, cols)
    if not B:
        raise HopfError("coinvariants are zero")
    if len(B) * n != m:
        raise HopfError(
            f"quotient rank {len(B)} times subgroup order {n} "
            f"misses the ambient order {m}"
        )
    # unit pivots make B free, and its canonical form has B[t][c_t] = 1 and
    # B[s][c_t] = 0 for s != t (`linalg.Span`): kappa(e_{c_t}) = e_t (zero at
    # other columns) reads coordinates and beta(e_t) = B[t], the rows of B
    # as they are, expands them, so v is in span(B) iff beta(kappa(v)) = v,
    # and likewise on B (x) B with kappa and beta on both
    if B.nonunit is not None:
        raise HopfError("coinvariants are not free on their basis (non-unit pivot)")
    at = {c: t for t, c in enumerate(B.cols)}
    kappa = [[(at[c], R.one)] if c in at else [] for c in range(m)]
    def coords(v):
        x = project(R, kappa, v)
        if project(R, B, x) != v:
            raise HopfError("coinvariant algebra is not closed as expected")
        return x
    rB = len(B)
    mult = [[coords(G.mul_vec(a, b)) for b in B] for a in B]
    comult = []
    for b in B:
        terms = G.comult_vec(b)
        x = map_tensor(R, kappa, kappa, terms)
        if map_tensor(R, B, B, x) != terms:
            raise HopfError("comultiplication does not restrict to coinvariants")
        comult.append(x)
    antipode = [coords(G.antipode_vec(b)) for b in B]
    Gbar = GroupScheme(R, rB, (mult, comult, antipode), coords(G.unit),
                       [G.counit_of(b) for b in B], name)
    proj = GroupSchemeHom(G, Gbar, B)
    return Gbar, proj


def _right_counit_law(G: GroupScheme, ident):
    """Does (id (x) eps) Delta(e_i) = e_i hold for every i?  One pass over
    the nonzeros of Delta; ident holds the rows e_j."""
    R, eps = G.ring, G.counit
    nonzero, mul = R.nonzero, R.mul
    return all(project(R, ident, [(j, mul(c, eps[k])) for j, k, c in terms
                                  if nonzero(eps[k])]) == ident[i]
               for i, terms in enumerate(G.sparse.comult))


# ----------------------------------------------------------------------
# Extensions 1 -> H -> G -> Gbar -> 1 with point-level evidence


class ExtensionWitness:
    """A quotient presentation of G by a normal closed subgroup, together
    with a ledger recording exactness of the point sequences over the
    test rings, made on first read.  ledger_points keeps (T, G(T),
    (G/H)(T), the index map between them) for each ledger ring T, and
    skipped keeps (T, exception text) for each test ring T whose points
    raised; both are made with the ledger and stay outside to_dict."""

    def __init__(self, kernel_subgroup: ClosedSubgroup, total: GroupScheme,
                 quotient_scheme: GroupScheme, projection: GroupSchemeHom,
                 budget: int):
        self.kernel = kernel_subgroup
        self.total = total
        self.quotient = quotient_scheme
        self.projection = projection
        self.budget = budget

    @functools.cached_property
    def _ledgers(self):
        G, incl, budget = self.total, self.kernel.inclusion(), self.budget
        ledger, ledger_points, skipped = [], [], []
        for T in test_ring_family(G.ring):
            try:
                PH = points(incl.source, T, bound=budget)
                PG = points(G, T, bound=budget)
                PQ = points(self.quotient, T, bound=budget)
            except (HopfError, RingError) as exc:
                skipped.append((T, str(exc)))
                continue
            hom = find_hom(G.ring, T)
            in_map = hom_on_points(incl, PH, PG, hom)
            # G/1 shares G's kept points, and pi is the identity on them
            out_map = (list(range(PG.order)) if PQ is PG
                       else hom_on_points(self.projection, PG, PQ, hom))
            mid_kernel = {i for i, j in enumerate(out_map) if j == PQ.identity_index}
            ledger.append({
                "ring": T.name(),
                "counts": [PH.order, PG.order, PQ.order],
                "left_injective": len(set(in_map)) == PH.order,
                "exact_middle": mid_kernel == set(in_map),
                "right_surjective": len(set(out_map)) == PQ.order,
            })
            ledger_points.append((T, PG, PQ, out_map))
        return ledger, ledger_points, skipped

    ledger, ledger_points, skipped = (
        property(lambda E, i=i: E._ledgers[i]) for i in range(3))

    def __repr__(self):
        return (f"<extension 1 -> {self.kernel.order} -> {self.total.rank} "
                f"-> {self.quotient.rank} -> 1>")

    def to_dict(self):
        return {
            "kernel_order": self.kernel.order,
            "total_order": self.total.rank,
            "quotient_order": self.quotient.rank,
            "kernel_ideal": self.kernel.shown_ideal(),
            "quotient": self.quotient.to_dict(),
            "ledger": self.ledger,
        }


def extension_witness(G: GroupScheme, H: ClosedSubgroup,
                      budget: int = 200000) -> ExtensionWitness:
    """Quotient G by the normal subgroup H, with the ledger of the point
    sequences 1 -> H(T) -> G(T) -> (G/H)(T) over every test ring T."""
    flag, cert = is_normal(H)
    if not flag:
        raise HopfError(f"subgroup is not normal (generator {cert})")
    Gbar, proj = quotient(G, H)
    return ExtensionWitness(H, G, Gbar, proj, budget)


# ----------------------------------------------------------------------
# Isomorphism testing


class IsoResult:
    def __init__(self, status: str, hom: GroupSchemeHom | None = None,
                 reason: str | None = None):
        self.status = status        # "iso" | "no" | "unknown"
        self.hom = hom
        self.reason = reason

    def __repr__(self):
        return f"IsoResult({self.status}{': ' + self.reason if self.reason else ''})"


def find_isomorphism(G: GroupScheme, H: GroupScheme,
                     budget: int = 200000) -> IsoResult:
    """Search for an isomorphism G -> H over a common finite-type base.

    Cheap invariants first (order, commutativity, point counts and group
    types over the test-ring family); then a search for a Hopf algebra
    map Hopf(H) -> Hopf(G) determined by the image of a single algebra
    generator of Hopf(H). Budget exhaustion gives status "unknown"."""
    if G.ring != H.ring:
        return IsoResult("no", reason="different base rings")
    if G.rank != H.rank:
        return IsoResult("no", reason=f"orders {G.rank} and {H.rank}")
    if G.is_commutative() != H.is_commutative():
        return IsoResult("no", reason="one group law is commutative, one is not")
    for Rp in test_ring_family(G.ring):
        if not Rp.is_finite:
            continue
        try:
            PG = points(G, Rp)
            PH = points(H, Rp)
        except (HopfError, RingError):
            continue
        if PG.order != PH.order:
            return IsoResult(
                "no", reason=f"{PG.order} vs {PH.order} points over {Rp.name()}"
            )
        if not AbstractGroup.from_points(PG).is_isomorphic_to(
            AbstractGroup.from_points(PH)
        ):
            return IsoResult(
                "no", reason=f"point groups over {Rp.name()} differ"
            )
    R = G.ring
    if not R.is_finite:
        return IsoResult("unknown", reason="no search over an infinite base")
    # monogenic path: an element generating Hopf(H) as an algebra, the
    # presentation's basis vector, else 1 at rank 1 (every element has the
    # powers [1] there), else the first of a bounded scan over all module
    # elements
    m = H.rank
    basis = [H.basis_vector(j) for j in range(m)]

    def powers_of(K, v):  # 1, v, ..., v^(m-1) in Hopf(K)
        powers = [K.unit]
        for _ in range(m - 1):
            powers.append(K.mul_vec(powers[-1], v))
        return powers

    def coordinates(powers):  # of each e_j in the powers, None if they do not span
        solve = solver(R, powers)[0]
        exprs = [solve(e) for e in basis]
        return None if None in exprs else exprs

    index = H.presentation.index
    candidates = ([H.basis_vector(index)] if index is not None else
                  [H.unit] if m == 1 else
                  (nonzeros(R, v) for v in itertools.product(R.elements(), repeat=m))
                  if R.size() ** m <= 4096 else [])
    found = (coordinates(powers_of(H, v)) for v in candidates)
    exprs = next((x for x in found if x is not None), None)
    if exprs is None:
        return _exhaustive_isomorphism(G, H, budget)
    els = list(R.elements())
    count = 0
    for v in itertools.product(els, repeat=G.rank):
        count += 1
        if count > budget:
            return IsoResult("unknown", reason="search budget exhausted")
        vpow = powers_of(G, nonzeros(R, v))
        f = GroupSchemeHom(G, H, [project(R, vpow, e) for e in exprs])
        if f.is_module_iso() and f.is_valid():
            return IsoResult("iso", hom=f)
    # the monogenic image determines the map, so exhaustion is conclusive
    return IsoResult("no", reason="no isomorphism carries a generator")


def _exhaustive_isomorphism(G: GroupScheme, H: GroupScheme,
                            budget: int) -> IsoResult:
    """Scan every module map Hopf(H) -> Hopf(G); conclusive at tiny rank."""
    R = G.ring
    els = list(R.elements())
    m = G.rank
    if len(els) ** (m * m) > budget:
        return IsoResult("unknown", reason="search budget exhausted")
    for flat in itertools.product(els, repeat=m * m):
        alg = [nonzeros(R, flat[j * m:(j + 1) * m]) for j in range(m)]
        f = GroupSchemeHom(G, H, alg)
        if f.is_module_iso() and f.is_valid():
            return IsoResult("iso", hom=f)
    return IsoResult("no", reason="exhausted all module maps")
