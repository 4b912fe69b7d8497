"""Finite flat group schemes as finite free Hopf algebras.

A group scheme of order m over R is stored by the nonzero structure
constants of its Hopf algebra on a free module with basis e_0..e_{m-1},
the tables of `GroupScheme.sparse`:

  mult[a][b]     the (x, c) of e_a * e_b = sum c e_x
  comult[i]      the (j, k, c) of Delta(e_i) = sum c e_j (x) e_k
  antipode[j]    the (x, c) of S(e_j) = sum c e_x

each row without zeros and in increasing index order, and by two more:

  unit           the (x, c) of the algebra unit, in the same form
  counit         the list of the counit values

The scheme is Spec of this algebra; the group law is dual to comult.  A
name, where one is given, is only a tag.  The one constructor,
GroupScheme(ring, rank, (mult, comult, antipode), unit, counit, name),
takes them in this form.

Every Hopf operation and base change reads the tables, so none scans
the zeros of the m^3 dense entries.  An element v of A is the sorted list
of its nonzero (x, c), as a mult row is: the unit, `basis_vector`, and
what `mul_vec`, `power_vec`, `antipode_vec` and `project` take and give.
An element of A (x) A is the sorted list of its nonzero (j, k, c), as a
comult row is: Delta(v) (`comult_vec`), ad(v) and `map_tensor`'s output.
Every product sum c e_a e_b is one loop, `combine`.  A linear map f is
applied in one sparse form, on its rows f(e_j): f(v) by `project` and
(f (x) g)(t) by `map_tensor`; a linear combination sum c_x v_x is
`project` on the rows v_x.  A homomorphism keeps the rows of its algebra
map (`GroupSchemeHom.alg`), which pulling back, composing, its checks and
its map on points read, and a convolution m o (f (x) g) o Delta is
`map_tensor` summed by `combine`.  A row handed to `linalg` is in the
same form, and so are the rows of the spans it returns.  Lists of values
on the basis stay dense: the counit, characters and points.  So do the
dense lists of a scheme file, which `from_dict` reads straight into the
tables and `to_dict` writes from them, and the square matrix `Ring.det`
takes.
The tables are fixed once a scheme is made, so the conjugation tensors
ad(e_i) (`adjoint`), the presentation A = R[t]/(mu) by the first basis
vector other than 1 that generates A, where one does (`presentation`,
which `characters`, `identity_idempotent`, the ideal closure, the
Hopf-ideal report and `find_isomorphism` read), the index of the nonzero
products e_a e_k (`_partners`, which the law checks of `verify` read),
the live pairs e_i e_j != 0 read off it, which `hom_pairs` reads for
tangent rows (`_live_pairs`) and, for each index x, those whose product
has an e_x term, which it reads for a known vector (`_pairs_into`),
the generators `verify` checks the laws on (`algebra_generators`, its e_s,
else the basis), whether Delta is cocommutative (`_cocommutative`, which
`is_commutative` reads), the etale flag (`etale`) and the trace discriminant
(`discriminant`), the ideal of the identity component (`identity_core`),
the characters over a field (`field_characters`), the subschemes x^p = 1
(`torsion_subschemes`), the distinct coefficients (`_coefficients`), the
base change to each ring and the tables of each tuple of images
(`base_change`), the points per ring and bound (`points`), and over a
field the tangent solver of each character (`_lifted_points`) and the
minimal polynomials (`_minpoly`) are kept too.  All but the subschemes
sit in one store, which the scheme under another name on the same tables
shares (`renamed`, G/1 in `constructions.quotient`).

The points over an Artin local ring R lift the characters of the fiber
over its residue field k (`_lifted_points`).  Where that fiber has all
`rank` characters it is etale, so each character has one R-point above
it, and a lift k -> R that is a point costs one `point_is_hom` and no
tangent system.  Without a generating basis vector the characters come
from the walk of `_splittings`, which splits an idempotent c = e e_idx off
as c and e - c with no minimal polynomial.

The dual module, with the tables transposed (`_transposed`), is the
Cartier dual of a commutative scheme (`cartier_dual`).  `verify` reads
coassociativity of A as associativity of this dual algebra A^∨, and
checks it, and multiplicativity where A has no generator, on the basis
vector that presents A^∨; otherwise the laws are checked by basis scans.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from . import linalg
from .linalg import Span, reduce_mod_span
from .rings import (
    QQ,
    Ring,
    RingError,
    RingHom,
    find_hom,
    parse_ring,
    spectrum,
)


class HopfError(ValueError):
    pass


class VerificationReport:
    def __init__(self, ok: bool, axiom: str | None = None, witness=None):
        self.ok = ok
        self.axiom = axiom
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "VerificationReport(pass)"
        return f"VerificationReport(fail: {self.axiom} at {self.witness})"

    def to_dict(self):
        if self.ok:
            return {"status": "pass"}
        return {"status": "fail", "axiom": self.axiom,
                "witness": list(self.witness) if self.witness else None}


SparseTensors = namedtuple("SparseTensors", "mult comult antipode")
Presentation = namedtuple("Presentation", "index minpoly powers")


def nonzeros(R: Ring, v):
    """The (x, c) with c != 0 of the vector v, in increasing x."""
    nonzero = R.nonzero
    return [(x, c) for x, c in enumerate(v) if nonzero(c)]


def dense(R: Ring, n: int, entries):
    """The length-n vector with c at x for each (x, c) in entries, else zero."""
    v = [R.zero] * n
    for x, c in entries:
        v[x] = c
    return v


def map_tensor(R: Ring, left, right, terms):
    """(f (x) g) of sum c e_j (x) e_k over the (j, k, c) in terms, as its
    nonzero (s, t, c) in increasing (s, t); left[j] and right[k] are the
    nonzero (s, c) of f(e_j) and the (t, c) of g(e_k)."""
    add, mul = R.add, R.mul
    out: dict = {}
    for j, k, c in terms:
        for s, u in left[j]:
            cu = mul(c, u)
            for t, w in right[k]:
                out[(s, t)] = add(out.get((s, t), R.zero), mul(cu, w))
    return sorted((s, t, c) for (s, t), c in out.items() if R.nonzero(c))


def project(R: Ring, rows, terms):
    """f of sum c e_x over the (x, c) in terms, as its nonzero (s, c) in
    increasing s; rows[x] is nonzeros(f(e_x)) for any linear map f.  On
    the rows v_x it is the linear combination sum c v_x."""
    add, mul = R.add, R.mul
    out: dict = {}
    for x, c in terms:
        for s, u in rows[x]:
            out[s] = add(out.get(s, R.zero), mul(c, u))
    return sorted((s, c) for s, c in out.items() if R.nonzero(c))


def _pair(R: Ring, entries, v):
    """sum c v[x] over the (x, c) in entries."""
    add, mul = R.add, R.mul
    out = R.zero
    for x, c in entries:
        out = add(out, mul(c, v[x]))
    return out


def _kept_property(make, name=None):
    """A property of a scheme made on first use and kept in its store of
    kept objects, `GroupScheme._kept`, which a copy under another name
    shares (`renamed`); each instance then reads it as a cached property."""
    name = name or make.__name__

    def get(G):
        kept = G._kept
        if name not in kept:
            kept[name] = make(G)
        return kept[name]

    get.__doc__ = make.__doc__
    return functools.cached_property(get)


class GroupScheme:
    def __init__(self, ring: Ring, rank: int, tables, unit, counit,
                 name: str | None = None):
        """The scheme stored by tables = (mult, comult, antipode) in the
        form of `sparse` and by the unit in the form of an element, which
        the caller builds without zeros and in increasing index order."""
        self.ring, self.rank, self.name = ring, rank, name
        self.sparse = SparseTensors(*tables)
        self.unit, self.counit = list(unit), list(counit)

    # -- bookkeeping ---------------------------------------------------
    @property
    def order(self) -> int:
        return self.rank

    def basis_vector(self, i):
        return [(i, self.ring.one)]

    @_kept_property
    def adjoint(self):
        """ad(e_i) = sum (e_i)_(1) S((e_i)_(3)) (x) (e_i)_(2) for each i, as
        its nonzero ((t, a), c); made on first use and kept, so each product
        e_j S(e_b) is made once per scheme.  Where Delta is cocommutative,
        Delta^(2)(e_i) is symmetric, so ad(e_i) = 1 (x) e_i by the antipode
        and counit laws, which every scheme read holds (`cli.load_scheme`
        verifies a file first)."""
        if self.is_commutative():
            return [[((t, i), c) for t, c in self.unit] for i in range(self.rank)]
        R = self.ring
        add, mul = R.add, R.mul
        _, C, S = self.sparse
        products: dict = {}  # (j, b) -> the nonzero (t, x) of e_j S(e_b)
        out = []
        for i in range(self.rank):
            ad: dict = {}
            for j, k, c in C[i]:
                for a, b, d in C[k]:
                    # (e_i)_(1) = e_j, (e_i)_(2) = e_a, (e_i)_(3) = e_b
                    if (j, b) not in products:
                        products[(j, b)] = self.mul_vec(self.basis_vector(j), S[b])
                    cd = mul(c, d)
                    for t, x in products[(j, b)]:
                        ad[(t, a)] = add(ad.get((t, a), R.zero), mul(cd, x))
            out.append([(key, c) for key, c in ad.items() if R.nonzero(c)])
        return out

    @_kept_property
    def algebra_generators(self):
        """[e_s] for the presentation's e_s, whose powers 1, e_s, ...,
        e_s^(m-1) span the algebra, else the basis; made on first use and
        kept.  `verify` says why the laws need only be checked on these."""
        s = self.presentation.index
        if s is not None:
            return [self.basis_vector(s)]
        return [self.basis_vector(i) for i in range(self.rank)]

    @_kept_property
    def presentation(self):
        """(i, mu, P) with s = e_i the first basis vector other than 1 that
        generates A = R[t]/(mu), certified by `_fiber_minpolys`; made on
        first use and kept.  Over a field mu is the minimal polynomial of s
        and P its powers 1, s, ..., s^(m-1); over another base they are not
        kept.  All three are None where no basis vector generates."""
        for i in range(self.rank):
            if self.basis_vector(i) == self.unit:
                continue
            found = self._fiber_minpolys(i)
            if found is not None:
                minpoly, powers = found[0] if self.ring.is_field else (None, None)
                return Presentation(i, minpoly, powers)
        return Presentation(None, None, None)

    def hom_pairs(self, support, fiber=None, tangent=False):
        """The sorted pairs (i, j) on which a linear v with v(1) = 1 and
        nonzeros at the indices in support must have v(e_i e_j) =
        v(e_i) v(e_j) to be an algebra map: (i, s) for all i where the
        presentation's e_s generates A (Light's test, as in `verify`).
        Where none does, v_i v_j is 0 unless i and j are in support, and
        v(e_i e_j) is 0 unless e_i e_j meets it, so a known v is read on
        the pairs i <= j in support and the live pairs (e_i e_j != 0) whose
        product meets it (`_pairs_into`).  The tangent rows of a character
        chi (tangent), whose d is unknown, read the live pairs and the
        pairs meeting supp chi.  The presentation read is that of fiber,
        the fiber over the residue field where given: an e_s that
        generates it generates A too (Nakayama's lemma)."""
        s = (fiber or self).presentation.index
        if s is not None:
            return [(i, s) for i in range(self.rank)]
        if tangent:
            pairs = set(self._live_pairs)
            for a in support:
                pairs.update((min(a, b), max(a, b)) for b in range(self.rank))
        else:
            pairs = set(itertools.combinations_with_replacement(sorted(support), 2))
            for x in support:
                pairs.update(self._pairs_into[x])
        return sorted(pairs)

    @_kept_property
    def _partners(self):
        """For each a, the k with e_a e_k != 0 in increasing k: the one
        index of the nonzero products, made on first use and kept.  `verify`
        reads it (`_Laws`), and `_live_pairs` are read off it."""
        return [[k for k, v in enumerate(row) if v] for row in self.sparse.mult]

    @_kept_property
    def _live_pairs(self):
        """The pairs i <= j with e_i e_j != 0, read off `_partners`."""
        return [(i, j) for i, row in enumerate(self._partners) for j in row if j >= i]

    @_kept_property
    def _pairs_into(self):
        """For each index x, the live pairs (i, j) whose product e_i e_j
        has an e_x term, made on first use and kept."""
        M, out = self.sparse.mult, [[] for _ in range(self.rank)]
        for i, j in self._live_pairs:
            for x, _ in M[i][j]:
                out[x].append((i, j))
        return out

    def _fiber_minpolys(self, i):
        """[(mu, P)] of s = e_i at the residue field k of every closed
        point of Spec R, where s generates A on each kept fiber over k, else
        None: its minimal polynomial mu there has degree m, and P holds its
        powers (`_minpoly`).  `presentation` is its one caller.
        R is semi-local, so this is exact (Nakayama's lemma): the
        determinant of the m powers over R is a unit just when it is
        nonzero in every k, so the powers are a basis over R just when they
        are one over each k.  For m > 2 an s whose square in a fiber is
        itself or 0 fails at once, as its powers there span at most 1 and
        s."""
        m, out = self.rank, []
        for p in spectrum(self.ring):
            if p.specializations:
                continue
            H = self.base_change(p.residue_field)
            s = H.basis_vector(i)
            if m > 2 and H.mul_vec(s, s) in (s, []):
                return None
            minpoly, powers = H._minpoly(H.unit, s)
            if len(minpoly) != m + 1:
                return None
            out.append((minpoly, powers))
        return out

    def _minpoly(self, e, c):
        """`_minpoly_of_vector` of c on the factor with unit e (field
        base), made once per (e, c) and kept."""
        key = (tuple(e), tuple(c))
        if key not in self._minpolys:
            self._minpolys[key] = _minpoly_of_vector(self, e, c)
        return self._minpolys[key]

    @_kept_property
    def etale(self):
        """Whether the scheme is etale, that is, whether its trace
        discriminant is a unit; made on first use and kept, by the first
        rule that applies, each exact on a scheme that passes `verify`:
        - over a field of characteristic 0, yes (Cartier; Waterhouse,
          Introduction to Affine Group Schemes, 11.4);
        - over a field where the kept `field_characters`, read and never
          made here, number `rank`, yes: A is k^m;
        - over a field where the presentation's s generates A = k[t]/(mu),
          iff eps(s) is a simple root of mu, mu'(eps(s)) != 0: the local
          factor at the identity is k[t]/((t - eps(s))^e), e the
          multiplicity, and G is etale iff that factor is k;
        - over a base that is not a field, iff every fiber over a closed
          point is, as R is semi-local and the discriminant commutes with
          base change;
        - over a field where every basis vector is idempotent, as for a
          constant group in its natural basis, yes: A is a product of r
          local factors, whose idempotents span k^r, so m independent ones
          make r = m and A = k^m;
        - else iff the kept `discriminant` is a unit."""
        R = self.ring
        if not R.is_field:
            return all(self.base_change(p.residue_field).etale
                       for p in spectrum(R) if not p.specializations)
        if R.char() == 0:
            return True
        if len(self._kept.get("field_characters", ())) == self.rank:
            return True
        pres = self.presentation
        if pres.index is not None:
            return R.nonzero(_derivative_at(R, pres.minpoly, self.counit[pres.index]))
        M = self.sparse.mult
        if all(M[a][a] == [(a, R.one)] for a in range(self.rank)):
            return True
        return R.is_unit(self.discriminant)

    @_kept_property
    def discriminant(self):
        """trace_discriminant(self), made on first use and kept: read where
        it is printed, and by `etale` where no other rule applies."""
        return trace_discriminant(self)

    @_kept_property
    def identity_core(self):
        """Canonical basis of (1 - e0)A, with e0 the unit of the local factor
        of the algebra at the identity; made on first use and kept.

        It is the stabilized power of the augmentation ideal J = ker(counit),
        the ideal of the identity component: over a field its codimension is
        the infinitesimal rank.  Over a field or an Artin local base (Dual(k),
        Z/p^e) the e0 of the fiber over the residue field k is put in along
        the lift of `Ring.residue_lifting` and lifted by Newton steps, since
        idempotents lift uniquely along the nilpotent kernel of R -> k."""
        R, m = self.ring, self.rank
        try:
            k, lift, _ = R.residue_lifting()
        except RingError:
            raise HopfError("identity component needs a field or Artin local base, "
                            f"not {R.name()}") from None
        fiber = self.base_change(k)
        e0 = lift_idempotent(self, [(x, lift(a)) for x, a in identity_idempotent(fiber)])
        u = project(R, [self.unit, e0], [(0, R.one), (1, R.neg(R.one))])
        return linalg.canonical_span(R, [self.mul_vec(u, self.basis_vector(i))
                                         for i in range(m)])

    @_kept_property
    def field_characters(self):
        """characters(self) over a field, made on first use and kept.  Where
        the scheme is F's base change along a map of fields h and F keeps
        all `rank` of its characters, they are h of F's: distinct ones are
        linearly independent (Dedekind), and h is injective."""
        if self._made_along is not None:
            F, h = self._made_along
            found = vars(F).get("field_characters")
            if found is not None and len(found) == self.rank:
                return _sorted_points(self.ring, [tuple(map(h.fn, chi)) for chi in found])
        return characters(self)

    # (F, h) where the scheme is F's base change along the map of fields h
    _made_along = None

    # the store of the kept objects, shared by a copy under another name
    _kept = functools.cached_property(lambda G: {})

    # filled as they are made: the base change to each ring and the tables
    # of each tuple of images (`base_change`), the points per (ring, bound)
    # (`points`) and, over a field, the tangent solvers (`_lifted_points`)
    # and minimal polynomials
    _base_changes, _image_tables, _point_groups, _tangents, _minpolys = (
        _kept_property(lambda G: {}, name)
        for name in ("_base_changes", "_image_tables", "_point_groups", "_tangents",
                     "_minpolys"))
    # the closed subscheme x^p = 1 for each prime p (`structure`), a subgroup
    # of this scheme, so kept apart from the store a copy shares
    torsion_subschemes = functools.cached_property(lambda G: {})

    def renamed(self, name):
        """The scheme on these tables under another name, made by the one
        constructor: it reads and fills this scheme's kept objects, base
        changes, etale flag, presentation, fibers and points among them."""
        out = GroupScheme(self.ring, self.rank, self.sparse, self.unit, self.counit, name)
        out._kept = self._kept
        return out

    # -- algebra operations ---------------------------------------------
    def mul_vec(self, v, w):
        """v w, as `combine` of the terms of v (x) w whose e_i e_j is not 0."""
        mul, M = self.ring.mul, self.sparse.mult
        return self.combine([(i, j, mul(a, b)) for i, a in v for j, b in w if M[i][j]])

    def combine(self, terms):
        """sum of c e_a e_b over the (a, b, c) in terms, as an element: the
        one product loop."""
        R, M = self.ring, self.sparse.mult
        zero, nonzero, add, mul = R.zero, R.nonzero, R.add, R.mul
        out: dict = {}
        get = out.get
        for a, b, c in terms:
            for x, d in M[a][b]:
                out[x] = add(get(x, zero), mul(c, d))
        return sorted([(x, c) for x, c in out.items() if nonzero(c)])

    def power_vec(self, v, n: int):
        """v^n for n >= 0, by square-and-multiply."""
        if n < 0:
            raise HopfError("negative power of an algebra element")
        out = self.unit
        while n:
            if n & 1:
                out = self.mul_vec(out, v)
            n >>= 1
            if n:
                v = self.mul_vec(v, v)
        return out

    def counit_of(self, v):
        return _pair(self.ring, v, self.counit)

    def antipode_vec(self, v):
        return project(self.ring, self.sparse.antipode, v)

    def comult_vec(self, v):
        """Delta(v) as its nonzero (j, k, c) in increasing (j, k)."""
        R, C = self.ring, self.sparse.comult
        zero, add, mul = R.zero, R.add, R.mul
        out: dict = {}
        for i, a in v:
            for j, k, c in C[i]:
                out[(j, k)] = add(out.get((j, k), zero), mul(a, c))
        return sorted((j, k, c) for (j, k), c in out.items() if R.nonzero(c))

    def tensor_mul(self, x: dict, y: dict) -> dict:
        """Product in A (x) A of two tensors given as {(j,k): coeff}.

        No ffgs code calls it since `verify` contracts Delta(e_i) Delta(e_j)
        in stages; bench/tracer.py still wraps it by name."""
        R, M = self.ring, self.sparse.mult
        out: dict = {}
        for ((j1, k1), c1), ((j2, k2), c2) in itertools.product(x.items(), y.items()):
            for (a, la), (b, rb) in itertools.product(M[j1][j2], M[k1][k2]):
                term = R.mul(R.mul(c1, c2), R.mul(la, rb))
                out[(a, b)] = R.add(out.get((a, b), R.zero), term)
        return {key: c for key, c in out.items() if R.nonzero(c)}

    def is_commutative(self) -> bool:
        """Commutativity of the group law (symmetric comultiplication), read
        off the kept `_cocommutative`."""
        return self._cocommutative

    @_kept_property
    def _cocommutative(self):
        """Whether every Delta(e_i) is symmetric; made on first use and kept."""
        return all({(j, k, c) for j, k, c in terms} == {(k, j, c) for j, k, c in terms}
                   for terms in self.sparse.comult)

    # -- verification -----------------------------------------------------
    def verify(self) -> VerificationReport:
        """Check the Hopf-algebra axioms and report the first that fails.

        The checks run in a fixed order: algebra-commutativity, algebra-unit,
        associativity, coassociativity, counit, bialgebra-unit, counit-unit,
        then bialgebra-mult and counit-mult for each pair (i, j) in turn, and
        antipode-left and antipode-right for each i in turn.  The witness is
        the first failing index tuple in lexicographic order.

        Where they can, associativity, coassociativity and bialgebra-mult/
        counit-mult are checked on the basis vector that presents A or the
        dual algebra A^∨ (`presentation`, `algebra_generators`).  Each such
        check is exact, and when it fails the basis scan runs, which names
        the first failing triple or pair.

        - Associativity, on the generators S of A: (e_x s) e_y = e_x (s e_y)
          for all x, y, each s in S.  The a with (xa)y = x(ay) for all x, y
          form a submodule closed under products (Light's test, Clifford and
          Preston, The Algebraic Theory of Semigroups I, 1961), and it holds
          1, so it holds the powers of S, which span.
        - Coassociativity, on A^∨: the module dual to A, with the tables
          transposed (`_transposed`), so mult and comult swap and so do the
          unit and the counit eps.  Coassociativity of A is associativity of
          A^∨, term for term, so Light's test on A^∨ over {s*, eps} settles
          it.  eps must be in the set, as the counit law, which makes eps
          the unit of A^∨, is checked only later, unless its rows read
          eps e_k = e_k for all k.  A^∨ is built only when Delta
          is cocommutative, so A^∨ is commutative, and when the basis scan
          reads W > m^3 terms, W = sum over Delta(e_i) of |Delta(e_j)| +
          |Delta(e_k)|; where A has a generator, only when nnz Delta <= m^2
          too (`_dual_laws`).
        - Multiplicativity, on the generator s of A: Delta(s e_j) =
          Delta(s) Delta(e_j) and eps(s e_j) = eps(s) eps(e_j) for all j.
          Once the product is associative the a with Delta(ab) =
          Delta(a) Delta(b) for all b form a unital subalgebra, as do those
          for eps.
        - Multiplicativity where A has no single generator, on s* of A^∨:
          first eps(e_a e_b) = eps(e_a) eps(e_b) for all a, b, which says
          Delta^∨(eps) = eps (x) eps; then Delta^∨(s* e_k) =
          Delta^∨(s*) Delta^∨(e_k) for all k.  Delta(e_a e_b) =
          Delta(e_a) Delta(e_b) at e_j (x) e_k and Delta^∨(e_j e_k) =
          Delta^∨(e_j) Delta^∨(e_k) at e_a (x) e_b are the same sum over
          the tables.  A^∨ is associative with unit eps by now, so the a
          with Delta^∨(ab) = Delta^∨(a) Delta^∨(b) for all b form a
          subalgebra holding eps and s*, hence all of A^∨.

        With one generator that is m^2 products for associativity and m
        pairs for multiplicativity, against m^3 and m^2 on the basis.  The
        associativity and counit-mult scans on the basis read only where a
        product is nonzero: m of the m^3 triples and m of the pairs on const:Zn.

        Each law is read by the cheapest exact contraction (`_Laws`), and
        the first failure is unchanged:
        - mult is commutative by the time any law is read, so (i, j, k)
          fails associativity iff (k, j, i) does, on a generator s_j as on
          the basis, and (i, j) fails bialgebra-mult or counit-mult iff
          (j, i) does: the scans read only k >= i and j >= i;
        - where Delta is cocommutative, coassociativity compares one side
          with its rotation, and the two sides of the antipode law are
          equal, so one is built and it fails as antipode-left;
        - the antipode law contracts each row of Delta(e_i) by S before one
          product, O(m^4) on a dense basis where term by term is O(m^5).
        """
        R = self.ring
        m = self.rank
        nonzero, mul = R.nonzero, R.mul
        M, C, _ = self.sparse
        basis = [self.basis_vector(i) for i in range(m)]
        laws = _Laws(self)

        def first_failure(fast, scan):
            """scan(), the basis scan, unless fast, a check on generators,
            is given and passes."""
            return scan() if fast is None or fast() is not None else None

        # algebra: commutativity of mult (the scheme is a scheme)
        # the rows list their nonzeros in increasing index order
        for i in range(m):
            for j in range(i + 1, m):
                if M[i][j] != M[j][i]:
                    return VerificationReport(False, "algebra-commutativity", (i, j))
        # unit law
        unit = self.unit
        for i in range(m):
            if self.combine((a, i, u) for a, u in unit) != basis[i]:
                return VerificationReport(False, "algebra-unit", (i,))
        gens = None
        if self.algebra_generators != basis:
            gens = laws.generators(self.algebra_generators)
        report = first_failure(
            None if gens is None else lambda: laws.associativity(gens),
            lambda: laws.associativity(laws.basis))
        if report is not None:
            return report
        # coassociativity of A is associativity of A^∨
        dual, dual_gen = _dual_laws(self)

        def on_dual():  # Light's test on A^∨ over s* and eps
            gens = dual.generators([dual_gen, nonzeros(R, self.counit)])
            if all(row == [(k, R.one)] for k, row in enumerate(gens[1][0])):
                gens = gens[:1]  # eps e_k = e_k: eps is the unit of A^∨
            return dual.associativity(gens, "coassociativity")

        report = first_failure(None if dual is None else on_dual, laws.coassociativity)
        if report is not None:
            return report
        # counit laws
        eps = dict(nonzeros(R, self.counit))  # the terms with eps = 0 add nothing
        for i in range(m):
            left = project(R, basis, [(k, mul(c, eps[j])) for j, k, c in C[i] if j in eps])
            right = project(R, basis, [(j, mul(c, eps[k])) for j, k, c in C[i] if k in eps])
            if left != basis[i] or right != basis[i]:
                return VerificationReport(False, "counit", (i,))
        # bialgebra: Delta and counit are algebra maps
        if self.comult_vec(unit) != [(j, k, d) for j, a in unit for k, b in unit
                                     if nonzero(d := mul(a, b))]:
            return VerificationReport(False, "bialgebra-unit", ())
        if self.counit_of(unit) != R.one:
            return VerificationReport(False, "counit-unit", ())

        def on_generators():  # on s of A, else on s* of A^∨
            if gens is not None:
                return laws.multiplicativity(gens)
            report = laws.counit_mult()
            if report is not None:
                return report
            return dual.multiplicativity(dual.generators([dual_gen]))

        report = first_failure(
            None if gens is None and dual is None else on_generators,
            lambda: laws.multiplicativity(laws.basis))
        if report is not None:
            return report
        report = laws.antipode()
        return VerificationReport(True) if report is None else report

    # -- functoriality -----------------------------------------------------
    def base_change(self, hom: RingHom | Ring) -> "GroupScheme":
        """G along hom.  Given a ring S, G itself when S is its ring, else
        the base change along find_hom, made once per ring and kept.  A
        field over a residue field k0 whose fiber is kept is reached
        through it (`Ring.residue_field_below`), so its characters can
        carry up (`field_characters`); find_hom factors through k0.

        hom maps each distinct coefficient once (`_coefficients`).  Where
        every image is its coefficient, of the same type, the new scheme
        is made on G's own tables; else the tables of each tuple of images
        are made once and kept in G's store, so that rings with the same
        images, such as GF(4) and GF(32), or GF(p) and Z/p^e below
        Zloc(p), share them.  Either way the new scheme keeps its own
        objects, as its characters, points and fibers depend on the ring.
        No caller changes a table row."""
        if isinstance(hom, Ring):
            if hom == self.ring:
                return self
            if hom not in self._base_changes:
                k0 = self.ring.residue_field_below(hom) if hom.is_field else None
                if k0 in self._base_changes:
                    made = self._base_changes[k0].base_change(hom)
                else:
                    made = self.base_change(_base_map(self.ring, hom))
                self._base_changes[hom] = made
            return self._base_changes[hom]
        if hom.source != self.ring:
            raise RingError("base change homomorphism has the wrong source")
        # each distinct coefficient is mapped once
        f, nonzero, values = hom.fn, hom.target.nonzero, self._coefficients
        images = {key: f(c) for key, c in values.items()}
        if all(_typed(d) == _typed(values[key]) for key, d in images.items()):
            tables, unit = self.sparse, self.unit
        else:
            shape = tuple(_typed(d) if nonzero(d) else None for d in images.values())
            if shape not in self._image_tables:
                self._image_tables[shape] = self._mapped_tables(
                    {key: d if nonzero(d) else None for key, d in images.items()})
            tables, unit = self._image_tables[shape]
        out = GroupScheme(hom.target, self.rank, tables, unit,
                          [images[type(c), c] for c in self.counit], self.name)
        if hom.source.is_field and hom.target.is_field:
            out._made_along = self, hom
        return out

    @_kept_property
    def _coefficients(self):
        """{(type, value): value} for the distinct values of mult, comult,
        antipode, the unit and the counit, made on first use and kept: an
        int and the Fraction it equals are two, as a map may tell them
        apart."""
        M, C, S = self.sparse
        out = {(type(c), c): c for row in M for v in row for _, c in v}
        out.update(((type(c), c), c) for terms in C for *_, c in terms)
        out.update(((type(c), c), c) for v in [*S, self.unit] for _, c in v)
        out.update(((type(c), c), c) for c in self.counit)
        return out

    def _mapped_tables(self, image):
        """((mult, comult, antipode), unit) with each entry c replaced by
        image[(type(c), c)], and dropped where that is None (sent to 0)."""
        M, C, S = self.sparse

        def row(entries):
            return [(x, d) for x, c in entries if (d := image[type(c), c]) is not None]

        return ([[row(v) if v else [] for v in r] for r in M],
                [[(j, k, d) for j, k, c in terms if (d := image[type(c), c]) is not None]
                 for terms in C],
                [row(v) for v in S]), row(self.unit)

    def to_dict(self) -> dict:
        """The dense lists, written from the tables: each row is a copy of
        the shown zeros with `show` called once per nonzero."""
        R, m = self.ring, self.rank
        show, zeros = R.show, [R.show(R.zero)] * m
        M, C, S = self.sparse

        def row(entries):
            out = zeros.copy()
            for x, c in entries:
                out[x] = show(c)
            return out

        def matrix(terms):  # the rows j of the (j, k, c) in terms
            out = [zeros.copy() for _ in range(m)]
            for j, k, c in terms:
                out[j][k] = show(c)
            return out

        d = {
            "base": R.name(),
            "rank": m,
            "mult": [[row(v) for v in r] for r in M],
            "unit": row(self.unit),
            "comult": [matrix(terms) for terms in C],
            "counit": [show(c) for c in self.counit],
            "antipode": [row(v) for v in S],
        }
        if self.name:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GroupScheme":
        """The scheme of the dense lists `to_dict` writes, read straight
        into the tables in one pass: each level is checked to be a list of
        rank entries as it is walked, each distinct literal is parsed once,
        and only the nonzeros are kept.  An entry spelled as the zero
        `to_dict` writes is skipped unparsed, and so is a row of them."""
        base, rank, name = d["base"], d["rank"], d.get("name")
        if not isinstance(base, str):
            raise HopfError("base must be a ring spec string")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise HopfError("rank must be an integer")
        if "name" in d and not isinstance(name, str):
            raise HopfError("name must be a string")
        R = parse_ring(base)
        if rank < 1:
            raise HopfError("rank must be >= 1")
        literal = functools.cache(R.parse)  # each distinct literal parsed once
        nonzero, z = R.nonzero, R.show(R.zero)  # z: the zero to_dict writes

        def read(key, depth):
            # JSON lists of rank entries nested depth deep, with ring
            # elements at the bottom; R.parse refuses a non-string with
            # RingError
            def walk(x, depth):
                if not isinstance(x, list):
                    raise HopfError(f"{key} must be nested lists, {depth} deep")
                if len(x) != rank:
                    raise HopfError("tensor dimensions do not match the rank")
                if depth > 1:
                    return [walk(y, depth - 1) for y in x]
                if x.count(z) == rank:
                    return []
                return [(i, c) for i, s in enumerate(x) if s != z
                        and nonzero(c := literal(s) if isinstance(s, str) else R.parse(s))]
            return walk(d[key], depth)

        mult, unit = read("mult", 3), read("unit", 1)
        comult = [[(j, k, c) for j, row in enumerate(rows) for k, c in row]
                  for rows in read("comult", 3)]
        counit, antipode = dense(R, rank, read("counit", 1)), read("antipode", 2)
        return cls(R, rank, (mult, comult, antipode), unit, counit, name)

    def __repr__(self):
        tag = self.name or "group scheme"
        return f"<{tag} of order {self.rank} over {self.ring.name()}>"


def _typed(c):
    """c with the type of each of its parts: equal as values, an int and a
    Fraction, or two pairs of them, are still two coefficients."""
    return type(c), (tuple(map(_typed, c)) if type(c) is tuple else c)


def _base_map(R: Ring, S: Ring) -> RingHom:
    """find_hom(R, S), or RingError where there is none."""
    found = find_hom(R, S)
    if found is None:
        raise RingError(f"no base map {R.name()} -> {S.name()}")
    return found


class _Laws:
    """The law checks of `verify` on one algebra: A, or the dual algebra
    A^∨ on the transposed tables.  They read its tables, unit and counit
    alone, its kept index of the nonzero products (`_partners`) and its kept
    cocommutativity flag.  A generator s is (rows, terms, eps): the nonzero
    (x, c) of s e_k for each k, the (a, b, c) of Delta(s), and eps(s).  On
    `basis` these are the stored rows, and each check is the basis scan,
    whose first failure is the witness.  Every check runs once mult is
    known to commute, and reads only the half of its indices that this
    leaves, or one side where Delta is cocommutative (see `verify`)."""

    def __init__(self, G: GroupScheme):
        self.ring, self.rank, self.unit, self.counit = G.ring, G.rank, G.unit, G.counit
        self.mult, self.comult, self.antipode_rows = G.sparse
        self.combine, self.delta = G.combine, G.comult_vec
        self._scheme = G
        self.basis = [(self.mult[j], self.comult[j], self.counit[j])
                      for j in range(G.rank)]

    def generators(self, elements):
        """Each element s as a generator; s e_k = e_k s, as the product is
        commutative by the time a generator is read."""
        return [([self.combine((b, k, c) for b, c in s) for k in range(self.rank)],
                 self.delta(s), _pair(self.ring, s, self.counit))
                for s in elements]

    def associativity(self, generators, axiom="associativity"):
        """The first (i, j, k) with (e_i s_j) e_k != e_i (s_j e_k), reported
        as axiom, each compared as one sparse difference.  Only the k where
        a side has a nonzero product are read, in increasing order: the
        partners k of an e_a in e_i s_j (`_partners`), and the k where
        s_j e_k holds a partner b of i, indexed once per generator.  Of
        those only k >= i: as mult commutes, (e_k s_j) e_i = e_i (s_j e_k)
        and e_k (s_j e_i) = (e_i s_j) e_k, so (k, j, i) fails iff (i, j, k)
        does, and the first failure has k >= i."""
        R, M, m, partners = self.ring, self.mult, self.rank, self._partners
        zero, nonzero, add, sub, mul = R.zero, R.nonzero, R.add, R.sub, R.mul
        index = []  # for each s_j: its rows, b -> the k with e_b in s_j e_k, the i read
        for rows, _, _ in generators:
            held: dict = {}
            for k, row in enumerate(rows):
                for b, _ in row:
                    held.setdefault(b, []).append(k)
            # i reads a k if e_i s_j != 0 or i partners a held b (mult commutes)
            read = {i for i, row in enumerate(rows) if row}
            index.append((rows, held, read.union(*map(partners.__getitem__, held))))
        for i in range(m):
            for j, (rows, held, read) in enumerate(index):
                if i not in read:
                    continue
                ks = set().union(*(partners[a] for a, _ in rows[i]),
                                 *(held.get(b, ()) for b in partners[i]))
                for k in sorted(k for k in ks if k >= i):
                    diff: dict = {}
                    for a, c in rows[i]:
                        for x, d in M[a][k]:
                            diff[x] = add(diff.get(x, zero), mul(c, d))
                    for b, c in rows[k]:
                        for x, d in M[i][b]:
                            diff[x] = sub(diff.get(x, zero), mul(c, d))
                    if any(map(nonzero, diff.values())):
                        return VerificationReport(False, axiom, (i, j, k))
        return None

    def coassociativity(self):
        """The first i with (Delta (x) id) Delta(e_i) != (id (x) Delta)
        Delta(e_i): a scan of the W terms that `_dual_laws` counts.  Where
        Delta is cocommutative, the right side at (x, a, b), sum_k c^i_xk
        c^k_ab, is the left at (a, b, x), sum_j c^i_jx c^j_ab, so only the
        left is built and compared with its rotation: half the terms."""
        R, C = self.ring, self.comult
        zero, nonzero, add, mul = R.zero, R.nonzero, R.add, R.mul
        rotate = self._scheme.is_commutative()
        for i in range(self.rank):
            lhs: dict = {}
            rhs: dict = {}
            for j, k, c in C[i]:
                for a, b, d in C[j]:
                    key = (a, b, k)
                    lhs[key] = add(lhs.get(key, zero), mul(c, d))
                if rotate:
                    continue
                for a, b, d in C[k]:
                    key = (j, a, b)
                    rhs[key] = add(rhs.get(key, zero), mul(c, d))
            lhs = {key: c for key, c in lhs.items() if nonzero(c)}
            if rotate:
                rhs = {(x, a, b): c for (a, b, x), c in lhs.items()}
            else:
                rhs = {key: c for key, c in rhs.items() if nonzero(c)}
            if lhs != rhs:
                return VerificationReport(False, "coassociativity", (i,))
        return None

    def counit_mult(self):
        """The first (a, b) with eps(e_a e_b) != eps(e_a) eps(e_b), read
        where e_a e_b != 0 or eps(e_a) eps(e_b) != 0: both are 0 elsewhere."""
        R, M, eps = self.ring, self.mult, self.counit
        # a <= b: mult is commutative by now, so a first failure has a <= b
        live = [a for a, c in enumerate(eps) if R.nonzero(c)]
        pairs = set(self._scheme._live_pairs)
        pairs.update(itertools.combinations_with_replacement(live, 2))
        for a, b in sorted(pairs):
            if _pair(R, M[a][b], eps) != R.mul(eps[a], eps[b]):
                return VerificationReport(False, "counit-mult", (a, b))
        return None

    @functools.cached_property
    def _right_stages(self):
        # Q_j[(c, b)] = sum_d C^j_cd e_b e_d for each j, made once for every
        # generator (see `multiplicativity`)
        return [self._stage(self.comult[j], False) for j in range(self.rank)]

    # for each a, the k with e_a e_k != 0: the algebra's kept index
    _partners = functools.cached_property(lambda laws: laws._scheme._partners)

    def _stage(self, terms, left):
        R = self.ring
        zero, add, mul = R.zero, R.add, R.mul
        out: dict = {}
        for a, b, coeff in terms:
            row = self.mult[a if left else b]
            for c in self._partners[a if left else b]:
                acc = out.setdefault((c, b) if left else (a, c), {})
                for x, d in row[c]:
                    acc[x] = add(acc.get(x, zero), mul(coeff, d))
        return {key: [(x, v) for x, v in acc.items() if R.nonzero(v)]
                for key, acc in out.items()}

    def multiplicativity(self, generators):
        """The first (i, j) where Delta or eps of s_i e_j is not the
        product.

        Delta(s) Delta(e_j) = sum C^s_ab C^j_cd e_a e_c (x) e_b e_d, in two
        stages that meet on (c, b):  P_s[(c, b)] = sum_a C^s_ab e_a e_c and
        Q_j[(c, b)] = sum_d C^j_cd e_b e_d.  Each stage is O(m^5) on a dense
        basis and pairing them O(m^6), where expanding the product is
        O(m^8).  Q reads e_d e_b for e_b e_d: mult is commutative by now.
        So e_i e_j = e_j e_i and Delta(e_i) Delta(e_j) = Delta(e_j)
        Delta(e_i), and the basis scan reads only the pairs j >= i."""
        R, Q = self.ring, self._right_stages
        zero, nonzero, add, mul = R.zero, R.nonzero, R.add, R.mul
        on_basis = generators is self.basis
        for i, (rows, terms, eps) in enumerate(generators):
            P = self._stage(terms, True)
            for j in range(i if on_basis else 0, self.rank):
                rhs: dict = {}
                for key, xs in P.items():
                    for y, q in Q[j].get(key, ()):
                        for x, p in xs:
                            rhs[(x, y)] = add(rhs.get((x, y), zero), mul(p, q))
                # in comult_vec's form: the sorted (x, y, c), each (x, y) once
                rhs = sorted([(x, y, c) for (x, y), c in rhs.items() if nonzero(c)])
                if self.delta(rows[j]) != rhs:
                    return VerificationReport(False, "bialgebra-mult", (i, j))
                if _pair(R, rows[j], self.counit) != mul(eps, self.counit[j]):
                    return VerificationReport(False, "counit-mult", (i, j))
        return None

    def antipode(self):
        """The first i with m(S (x) id)Delta(e_i) or m(id (x) S)Delta(e_i)
        not eps(e_i) 1, reported as antipode-left or antipode-right.

        m(id (x) S)Delta(e_i) = sum_j e_j S(sum_k c^i_jk e_k): one
        contraction of each row of Delta(e_i) by the rows of S, then one
        product (`_contracted`).  As mult commutes by now, the left side is
        the same sum over the flipped terms (k, j, c): sum c^i_jk S(e_j) e_k
        = sum c^i_jk e_k S(e_j).  That is O(m^3) products per i on a dense
        basis, where expanding c^i_jk e_j S(e_k) term by term is O(m^4).
        Where Delta is cocommutative the flip is Delta(e_i) itself, so the
        sides are equal: one is built, and it fails as antipode-left."""
        R, C, eps = self.ring, self.comult, self.counit
        nonzero, mul = R.nonzero, R.mul
        both = not self._scheme.is_commutative()
        for i in range(self.rank):
            target = [(x, c) for x, u in self.unit if nonzero(c := mul(eps[i], u))]
            if self._contracted([(k, j, c) for j, k, c in C[i]] if both else C[i]) != target:
                return VerificationReport(False, "antipode-left", (i,))
            if both and self._contracted(C[i]) != target:
                return VerificationReport(False, "antipode-right", (i,))
        return None

    def _contracted(self, terms):
        """m(id (x) S) of sum c e_j (x) e_k over the (j, k, c) in terms:
        for each j, the row sum_k c e_k is taken through S, then the
        products e_j S(...) are summed by `combine`."""
        R, S = self.ring, self.antipode_rows
        add, mul = R.add, R.mul
        rows: dict = {}  # j -> {x: the e_x coefficient of S(sum_k c e_k)}
        for j, k, c in terms:
            row = rows.get(j)
            if row is None:
                row = rows[j] = {}
            for x, s in S[k]:
                old = row.get(x)
                row[x] = mul(c, s) if old is None else add(old, mul(c, s))
        return self.combine([(j, x, c) for j, row in rows.items() for x, c in row.items()])


def _dual_laws(G: GroupScheme):
    """(the `_Laws` of A^∨, the e_s* of its presentation) where `verify`
    checks on A^∨, else (None, None).

    A^∨ is built where Delta is cocommutative, so that A^∨ is commutative,
    and where the basis scan of coassociativity reads W > m^3 terms, more
    than one generator search; W takes O(nnz Delta) to count.  Where A has
    a generator, A^∨ can spare that scan alone, and it does so only when
    its products are sparse, so there it is built only when nnz Delta <=
    m^2.  It is used where it has one generator."""
    m, C = G.rank, G.sparse.comult
    work = sum(len(C[j]) + len(C[k]) for terms in C for j, k, _ in terms)
    if work <= m ** 3 or not G.is_commutative():
        return None, None
    if sum(map(len, C)) > m * m and G.presentation.index is not None:
        return None, None
    D = _transposed(G)
    s = D.presentation.index
    if s is None:
        return None, None
    return _Laws(D), D.basis_vector(s)


def _transposed(G: GroupScheme, name: str | None = None) -> GroupScheme:
    """The scheme on the module dual to G's: mult and comult swap by
    transposing their nonzero triples, the antipode is transposed, and the
    unit and the counit swap.  The Cartier dual when G is commutative."""
    # the old indices are read in increasing order, so that each new row is
    # in increasing index order
    m = G.rank
    M, C, S = G.sparse
    mult = [[[] for _ in range(m)] for _ in range(m)]
    comult, antipode = [[] for _ in range(m)], [[] for _ in range(m)]
    for a in range(m):
        for i, j, c in C[a]:
            mult[i][j].append((a, c))
        for b, entries in enumerate(M[a]):
            for i, c in entries:
                comult[i].append((a, b, c))
        for i, c in S[a]:
            antipode[i].append((a, c))
    return GroupScheme(G.ring, m, (mult, comult, antipode), nonzeros(G.ring, G.counit),
                       dense(G.ring, m, G.unit), name)


def cartier_dual(G: GroupScheme) -> GroupScheme:
    """Dual module with mult and comult swapped (commutative G only)."""
    if not G.is_commutative():
        raise HopfError("Cartier duality needs a commutative group scheme")
    return _transposed(G, f"dual({G.name})" if G.name else None)


class GroupSchemeHom:
    """Homomorphism source -> target, stored contravariantly: alg[j] is the
    image in Hopf(source) of the j-th basis vector of Hopf(target), an
    element of Hopf(source), which every map the homomorphism applies
    reads."""

    def __init__(self, source: GroupScheme, target: GroupScheme, alg):
        if source.ring != target.ring:
            raise HopfError("homomorphisms need a common base ring")
        indices = range(source.rank)
        if len(alg) != target.rank or any(x not in indices for v in alg for x, _ in v):
            raise HopfError("algebra map has wrong dimensions")
        self.source = source
        self.target = target
        self.alg = [list(v) for v in alg]

    def apply_alg(self, v):
        """Pull back a Hopf(target) element along the homomorphism."""
        return project(self.source.ring, self.alg, v)

    def is_valid(self) -> VerificationReport:
        R = self.source.ring
        S, T = self.source, self.target
        TM, TC, _ = T.sparse
        A = self.alg
        if self.apply_alg(T.unit) != S.unit:
            return VerificationReport(False, "hom-unit", ())
        for i in range(T.rank):
            if _pair(R, A[i], S.counit) != T.counit[i]:
                return VerificationReport(False, "hom-counit", (i,))
            # Delta_S(f(e_i)) = (f (x) f) Delta_T(e_i)
            if S.comult_vec(A[i]) != map_tensor(R, A, A, TC[i]):
                return VerificationReport(False, "hom-comult", (i,))
            for j in range(T.rank):
                if project(R, A, TM[i][j]) != S.mul_vec(A[i], A[j]):
                    return VerificationReport(False, "hom-mult", (i, j))
        return VerificationReport(True)

    def then(self, other: "GroupSchemeHom") -> "GroupSchemeHom":
        """Composite self followed by other (source -> target of other)."""
        if other.source is not self.target and other.source.rank != self.target.rank:
            raise HopfError("composition mismatch")
        alg = [self.apply_alg(v) for v in other.alg]
        return GroupSchemeHom(self.source, other.target, alg)

    def is_trivial(self) -> bool:
        """Does the homomorphism factor through the trivial group?"""
        R, unit = self.source.ring, [self.source.unit]
        return all(v == project(R, unit, [(0, c)])
                   for v, c in zip(self.alg, self.target.counit))

    def is_module_iso(self) -> bool:
        R, m = self.source.ring, self.source.rank  # det A^T = det A
        return R.is_unit(R.det([dense(R, m, v) for v in self.alg]))


def trivial_endo(G: GroupScheme) -> GroupSchemeHom:
    return GroupSchemeHom(G, G, [project(G.ring, [G.unit], [(0, c)]) for c in G.counit])


def convolution(G: GroupScheme, f, g):
    """Convolution m o (f (x) g) o Delta of two linear endomaps of Hopf(G),
    given by their rows f(e_j) and g(e_j) as alg holds them: (f (x) g)
    Delta(e_i) through `map_tensor`, then summed through the products
    e_s e_t."""
    R = G.ring
    return [G.combine(map_tensor(R, f, g, terms)) for terms in G.sparse.comult]


def convolution_power(G: GroupScheme, n: int) -> GroupSchemeHom:
    """The endomorphism [n] of a commutative group scheme."""
    if not G.is_commutative():
        raise HopfError("[n] needs a commutative group scheme")
    return GroupSchemeHom(G, G, power_map_alg(G, n))


def power_map_alg(G: GroupScheme, n: int):
    """Pullback of the n-th power map of the scheme (any G; a group
    homomorphism only when G is commutative)."""
    if n == 0:
        return trivial_endo(G).alg
    if n < 0:
        # compose with the antipode: a -> [(-1)]^* [n]^* a
        return [G.antipode_vec(v) for v in power_map_alg(G, -n)]
    # square-and-multiply: convolution is associative, so the convolution
    # powers of the identity satisfy id^a * id^b = id^(a + b)
    square = [G.basis_vector(j) for j in range(G.rank)]  # id^(2^i)
    out = None
    while True:
        if n & 1:
            out = square if out is None else convolution(G, out, square)
        n >>= 1
        if not n:
            return out
        square = convolution(G, square, square)


# ----------------------------------------------------------------------
# Points functor


class PointGroup:
    """All R'-points of G with the convolution group structure.  The
    point -> index map is built here, once; the builders make the group
    from its sorted points and fill table and identity_index through it."""

    def __init__(self, ring: Ring, elements, table, identity_index: int):
        self.ring = ring
        self.elements = elements            # list of tuples, canonically sorted
        self.table = table                  # table[i][j] = index of product
        self.identity_index = identity_index
        self._at = {p: i for i, p in enumerate(elements)}

    @property
    def order(self):
        return len(self.elements)

    def index(self, point) -> int:
        """The index of point; ValueError if it is not in the group."""
        try:
            return self._at[tuple(point)]
        except KeyError:
            raise ValueError(f"{tuple(point)} is not a point of the group") from None

    def to_dict(self):
        R = self.ring
        return {
            "ring": R.name(),
            "order": self.order,
            "elements": [[R.show(c) for c in e] for e in self.elements],
            "table": self.table,
            "identity": self.identity_index,
        }


def point_group_from_set(GR: GroupScheme, vecs) -> PointGroup:
    """Assemble the group structure on a closed set of points of GR.

    (u * v)_i = sum_{j,k} c_ijk u_j v_k, with c_ijk the coefficient of
    e_j (x) e_k in Delta(e_i).  The table is filled from generators: each
    is the first point g, in sorted order, not yet reached from the
    identity.  Contracting g once gives L_g[j] = {i: sum_k c_ijk g_k}, and
    reading L_g at the nonzero a_j of each point a gives rho_g(a) = a * g.
    Convolution is associative, so column b g of the table is rho_g applied
    to column b, and a breadth-first walk from the identity column fills
    the table.  Each generator at least doubles the points reached, so the
    table takes at most log2 |P| times nnz(Delta) + |P| nnz(L) ring
    operations, where every product would take |P|^2 nnz(L)."""
    R = GR.ring
    m = GR.rank
    zero, nonzero, add, mul = R.zero, R.nonzero, R.add, R.mul
    pts = _sorted_points(R, {tuple(v) for v in vecs})
    P = PointGroup(R, pts, [], None)  # its table and identity are filled below
    index = P._at
    ident = tuple(GR.counit)
    if ident not in index:
        raise HopfError("point set lacks the identity (the counit)")
    P.identity_index = index[ident]
    # T[k] lists the nonzero (j, i, c_ijk)
    T = [[] for _ in range(m)]
    for i, terms in enumerate(GR.sparse.comult):
        for j, k, c in terms:
            T[k].append((j, i, c))
    cols = {P.identity_index: list(range(len(pts)))}  # cols[b][a]: index of a * b
    rhos = []
    for g in pts:
        if index[g] in cols:
            continue
        L = [{} for _ in range(m)]
        for k, b in enumerate(g):
            if nonzero(b):
                for j, i, c in T[k]:
                    L[j][i] = add(L[j].get(i, zero), mul(c, b))
        L = [[(i, c) for i, c in row.items() if nonzero(c)] for row in L]
        rho = []
        for a in pts:
            w = [zero] * m
            for j, x in enumerate(a):
                if nonzero(x):
                    for i, c in L[j]:
                        w[i] = add(w[i], mul(x, c))
            w = tuple(w)
            if w not in index:
                raise HopfError("point set is not closed under the group law")
            rho.append(index[w])
        rhos.append(rho)
        queue = list(cols)  # the walk grows the queue as it reads it
        for b in queue:
            for rho in rhos:
                if rho[b] not in cols:
                    cols[rho[b]] = [rho[x] for x in cols[b]]
                    queue.append(rho[b])
    P.table = [list(row) for row in zip(*(cols[b] for b in range(len(pts))))]
    return P


def _support(R: Ring, v):
    """The indices x with v[x] != 0."""
    return [x for x, _ in nonzeros(R, v)]


def point_is_hom(GR: GroupScheme, v, fiber=None) -> bool:
    """Is v(1) = 1, and is v multiplicative on each of the `hom_pairs` of
    its support, those that reach it?  fiber, where given, is GR's kept
    fiber over the residue field, whose presentation `hom_pairs` reads."""
    R, M = GR.ring, GR.sparse.mult
    return _pair(R, GR.unit, v) == R.one and all(
        R.mul(v[i], v[j]) == _pair(R, M[i][j], v)
        for i, j in GR.hom_pairs(_support(R, v), fiber))


def _minpoly_of_vector(GR: GroupScheme, e, c_vec):
    """Monic minimal polynomial of multiplication by c_vec on the unital
    factor with unit e, and the powers e, c, c c, ..., c^(n-1) below its
    degree n (field base); c lies in the factor, so e c = c.  Each power
    is reduced once against the rows [c^i | x^i] placed so far, x^i at
    column m + i; the first to vanish on the left has the minimal
    polynomial on the right."""
    R, m = GR.ring, GR.rank
    # each reduced row is zero at the pivots of the rows placed before it
    rows, powers, v = Span(R), [], e
    while True:
        n = len(powers)
        w = reduce_mod_span(R, rows, v + [(m + n, R.one)])
        if w[0][0] >= m:
            return dense(R, n + 1, [(c - m, a) for c, a in w]), powers
        rows.place(R, R.normalize_pivot(w))
        powers.append(v)
        v = GR.mul_vec(v, c_vec) if n else c_vec


def lift_idempotent(GR: GroupScheme, u):
    """The idempotent f with u - f nilpotent, by the Newton steps
    u <- 3u^2 - 2u^3: each one at least squares the nilpotent part."""
    R = GR.ring
    three, two = R.from_int(3), R.from_int(2)
    # a nilpotent of an algebra of rank m has index at most m(c + 1) over a
    # base whose maximal ideal dies after c square-zero steps (0 for a field)
    chain = len(R.residue_lifting()[2]) + 1
    for _ in range((GR.rank * chain).bit_length() + 2):
        u2 = GR.mul_vec(u, u)
        if u2 == u:
            return u
        u = project(R, [u2, GR.mul_vec(u2, u)], [(0, three), (1, R.neg(two))])
    raise HopfError("no idempotent lift: the algebra is not commutative "
                    "and associative")


def _eigen_idempotent(GR: GroupScheme, minpoly, powers, lam):
    """The unit f_lam of the generalized lam-eigenspace of c inside the
    factor eA, where minpoly and powers come from _minpoly_of_vector.

    With minpoly = (x - lam)^k g and g(lam) != 0, g(c) vanishes on the
    other eigenspaces (Fitting decomposition), so g(c)/g(lam) is f_lam
    plus a nilpotent."""
    R = GR.ring
    g = minpoly
    while True:
        # Horner's scheme: the partial sums are the quotient by x - lam,
        # highest degree first, and the last one is g(lam)
        partial = []
        acc = R.zero
        for a in reversed(g):
            acc = R.add(R.mul(acc, lam), a)
            partial.append(acc)
        if R.nonzero(acc):
            break
        g = partial[-2::-1]
    scale = R.inv(acc)
    u = project(R, powers, [(i, R.mul(scale, a)) for i, a in enumerate(g[:len(powers)])])
    return lift_idempotent(GR, u)


def _derivative_at(R: Ring, coeffs, x):
    """mu'(x) for the polynomial mu with coefficients coeffs, low degree
    first, by Horner's scheme."""
    acc = R.zero
    for i in range(len(coeffs) - 1, 0, -1):
        acc = R.add(R.mul(acc, x), R.mul(R.from_int(i), coeffs[i]))
    return acc


def _scalar_on(R: Ring, e, c):
    """s with c = s e, or None: s is c/e at the first nonzero entry of e."""
    j, x = e[0]
    s = R.mul(next((d for y, d in c if y == j), R.zero), R.inv(x))
    return s if project(R, [e], [(0, s)]) == c else None


def _scalar_on_line(R: Ring, M, e, idx):
    """s with e e_idx = s e, or None, for e = a e_g on one basis vector:
    e e_idx = a M[g][idx] is s e just when that row is empty (s = 0) or
    [(g, s)], as a != 0 in a field."""
    g = e[0][0]
    row = M[g][idx]
    if not row:
        return R.zero
    return row[0][1] if len(row) == 1 and row[0][0] == g else None


def _splittings(GR: GroupScheme, choose):
    """(e, chi) for each factor eA that the eigen-idempotent walk splits
    off (field base), one basis vector at a time: e_idx acts on eA as
    chi[idx], and where it is no scalar the walk branches on the
    eigenvalues choose(minpoly, idx) picks among the roots of its minimal
    polynomial.  A scalar step writes chi[idx] in place; chi is copied
    only where the walk branches.  On a factor e = a e_g the step reads
    the scalar off the table (`_scalar_on_line`), with no product.  Where
    c = e e_idx is idempotent, its minimal polynomial on eA is t^2 - t,
    and the factors at 1 and 0 are c and e - c, with no minimal polynomial
    and no Newton step."""
    R, m, M = GR.ring, GR.rank, GR.sparse.mult
    minus_one = R.neg(R.one)
    # stack entries: (factor unit, next ambient index, chi)
    stack = [(GR.unit, 0, [None] * m)]
    while stack:
        e, idx, chi = stack.pop()
        while idx < m:
            s = _scalar_on_line(R, M, e, idx) if len(e) == 1 else None
            if s is None:
                c = GR.mul_vec(e, GR.basis_vector(idx))
                if len(e) == 1 or (s := _scalar_on(R, e, c)) is None:
                    break
            chi[idx] = s
            idx += 1
        if idx == m:
            yield e, chi
            continue
        if GR.mul_vec(c, c) == c:
            minpoly, powers = [R.zero, minus_one, R.one], None
        else:
            minpoly, powers = GR._minpoly(e, c)
        for lam in choose(minpoly, idx):
            if powers is not None:
                f = _eigen_idempotent(GR, minpoly, powers, lam)
            else:
                f = c if R.nonzero(lam) else project(R, [e, c], [(0, R.one), (1, minus_one)])
            branch = chi.copy()
            branch[idx] = lam
            stack.append((f, idx + 1, branch))


def identity_idempotent(G: GroupScheme):
    """e0, the unit of the local factor of the algebra at the identity
    point (field base).  Where the presentation's s generates A =
    k[t]/(mu), the local factors are those of the irreducible factors of
    mu, and the identity's is that of t - eps(s): e0 is the eigen-idempotent
    of s at eps(s).  Otherwise it is the walk of `characters` along the
    counit."""
    pres = G.presentation
    if pres.index is not None:
        return _eigen_idempotent(G, pres.minpoly, pres.powers, G.counit[pres.index])
    [(e0, _)] = _splittings(G, lambda minpoly, idx: [G.counit[idx]])
    return e0


def _presented_characters(GR: GroupScheme):
    """The chi with chi(s^j) = lam^j for each root lam of mu, where the
    presentation's s generates A = k[t]/(mu): the powers P are a basis, so
    chi solves sum_i P[j][i] chi_i = lam^j for j < m.  One elimination of
    [P | I] gives P^-1 for every root."""
    R, m = GR.ring, GR.rank
    pres = GR.presentation
    rows = [v + [(m + t, R.one)] for t, v in enumerate(pres.powers)]
    inverse = [[(c - m, a) for c, a in row if c >= m]
               for row in linalg.canonical_span(R, rows)]
    for lam in R.roots(pres.minpoly):
        powers = [R.one]
        while len(powers) < m:
            powers.append(R.mul(powers[-1], lam))
        yield [_pair(R, row, powers) for row in inverse]


def characters(GR: GroupScheme):
    """All algebra homomorphisms Hopf(GR) -> base field, as value vectors.

    Pure linear algebra, with eigenvalues the roots `Ring.roots` finds
    exactly.  Where the presentation's s generates A = k[t]/(mu), the
    characters are read off the roots of mu.  Otherwise the algebra is
    split by the idempotents of the generalized eigenspaces of
    multiplication operators, one basis vector at a time.  The kept
    `field_characters` call it unless they carry up from a subfield."""
    R = GR.ring
    if not R.is_field:
        raise HopfError("characters need a field")
    if GR.presentation.index is not None:
        found = _presented_characters(GR)
    else:
        found = (chi for _, chi in _splittings(GR, lambda minpoly, idx: R.roots(minpoly)))
    return _sorted_points(R, {tuple(chi) for chi in found if point_is_hom(GR, chi)})


def _sorted_points(R: Ring, vecs):
    """The value vectors vecs in the order of their entries' sort keys."""
    return sorted(vecs, key=lambda t: tuple(R.sort_key(x) for x in t))


def trace_form(G: GroupScheme):
    """Gram matrix (Tr(e_i e_j)) of the trace form of the Hopf algebra."""
    R, m, M = G.ring, G.rank, G.sparse.mult
    # Tr(e_k) sums the coefficient of e_i in e_k e_i
    tr = [functools.reduce(R.add, (c for i in range(m) for x, c in M[k][i] if x == i),
                           R.zero) for k in range(m)]
    return [[_pair(R, M[i][j], tr) for j in range(m)] for i in range(m)]


def trace_discriminant(G: GroupScheme):
    """Determinant of the trace form of the Hopf algebra."""
    return G.ring.det(trace_form(G))


def is_etale(G: GroupScheme) -> bool:
    """Is the trace-form discriminant a unit?  The kept flag, read without
    the discriminant where a rule gives it (`GroupScheme.etale`)."""
    return G.etale


def points(G: GroupScheme, Rp: Ring, bound: int = 10000) -> PointGroup:
    """The group G(R') of R'-points, made once per (R', bound) and kept;
    callers do not mutate it.

    R' must be finite, or Q for etale G (root finding stays in Q).  G(R')
    is the product of the `_lifted_points` over the `local_parts` of R',
    summed as embedded in R'; past `bound` points it raises HopfError.  At
    rank 1 it is the one point h(eps(e_0)), the counit along the base map
    h: an algebra map R e_0 -> R' is fixed by sending 1 to 1."""
    kept = G._point_groups
    if (Rp, bound) not in kept:
        kept[Rp, bound] = _points(G, Rp, bound)
    return kept[Rp, bound]


def _points(G: GroupScheme, Rp: Ring, bound: int) -> PointGroup:
    """`points`, made afresh, with the same errors at rank 1."""
    if G.rank == 1:
        h = _base_map(G.ring, Rp)
        for S, _ in Rp.local_parts():
            S.residue_lifting()  # RingError where points are unsupported
        if bound < 1:
            raise HopfError(f"more than {bound} points (the points bound)")
        return PointGroup(Rp, [(h(G.counit[0]),)], [[0]], 0)
    GR = G.base_change(Rp)
    parts = [(_lifted_points(G, S, bound), embed) for S, embed in Rp.local_parts()]
    if functools.reduce(lambda size, part: size * len(part[0]), parts, 1) > bound:
        raise HopfError(f"more than {bound} points (the points bound)")
    if len(parts) == 1:
        return point_group_from_set(GR, parts[0][0])
    embedded = [[[embed(x) for x in v] for v in vecs] for vecs, embed in parts]
    return point_group_from_set(GR, [[functools.reduce(Rp.add, xs) for xs in zip(*combo)]
                                     for combo in itertools.product(*embedded)])


def _tangent_rows(k: Ring, fiber: GroupScheme, chi):
    """The rows of `_square_zero_lifts`, one per basis index x: entry t of
    row x is the coefficient of d_x in condition t, the x-coefficient of
    chi_i e_j + chi_j e_i - e_i e_j for the t-th (i, j) of the fiber's
    `hom_pairs` of supp chi for the tangent rows (the live pairs and
    those meeting supp chi where no e_s generates), and of the unit in the
    last one, filled in increasing t.  The condition of any other pair has
    no d in it."""
    M, pairs = fiber.sparse.mult, fiber.hom_pairs(_support(k, chi), tangent=True)
    rows = [{} for _ in range(fiber.rank)]
    for t, (i, j) in enumerate(pairs):
        for x, c in M[i][j]:
            rows[x][t] = k.neg(c)
        rows[i][t] = k.add(rows[i].get(t, k.zero), chi[j])
        rows[j][t] = k.add(rows[j].get(t, k.zero), chi[i])
    for x, c in fiber.unit:
        rows[x][len(pairs)] = c
    return [[(t, c) for t, c in row.items() if k.nonzero(c)] for row in rows]


def _square_zero_lifts(GR: GroupScheme, fiber: GroupScheme, tangent, chi, phi, coord):
    """(d0, K): the d in k^m for which phi + delta d is a point of GR are
    d0 plus the k-span of the rows of K, and d0 is None if there is none.

    (delta) is a square-zero ideal of GR.ring with residue field k, the
    fiber's ring, and coord reads the k-coordinate of an element of it:
    a[1] for eps, and a // p^j % p for p^j in Z/p^(j+1).  phi is a point
    modulo delta whose residue is the character chi of the fiber.  As
    delta^2 = 0 the conditions are linear in d: the `_tangent_rows` of chi
    against minus the coordinates of phi's defect on the fiber's
    `hom_pairs` of supp chi for the tangent rows (Waterhouse, Introduction
    to Affine Group Schemes, ch. 12), whose `linalg.solver` (solve, K) is
    tangent.

    Any other pair has a zero tangent column, so the coordinate of its
    whole defect, with GR's table, must be 0; that is read on GR's
    `hom_pairs` of supp phi, the pairs that reach supp phi, as a product
    zero in the fiber need not be zero over R."""
    R, M, k = GR.ring, GR.sparse.mult, fiber.ring
    pairs = fiber.hom_pairs(_support(k, chi), tangent=True)
    solve, kern = tangent

    def defect(i, j):
        return coord(R.sub(R.mul(phi[i], phi[j]), _pair(R, M[i][j], phi)))

    columns = set(pairs)
    if any(k.nonzero(defect(i, j)) for i, j in GR.hom_pairs(_support(R, phi), fiber)
           if (i, j) not in columns):
        return None, kern
    rhs = [k.neg(defect(i, j)) for i, j in pairs]
    rhs.append(k.neg(coord(R.sub(_pair(R, GR.unit, phi), R.one))))
    return solve(nonzeros(k, rhs)), kern


def _lifted_points(G: GroupScheme, R: Ring, bound: int):
    """The R-points of G for a local R with residue field k and a chain of
    square-zero ideals (`Ring.residue_lifting`; a field is its own k, with
    no ideal): the kept characters of G over k, lifted along one ideal
    after the other; k's may be carried up from a subfield
    (`field_characters`).  A lift raises HopfError, naming `bound`, before
    it makes more than `bound` points (`points` checks a field's).

    Where the fiber has all `rank` characters, A over k is k^m (Dedekind),
    so it is etale, and so is A over R: each chi has exactly one R-point
    above it (Waterhouse, ch. 12).  Where lift(chi) passes `point_is_hom`
    over R it is that point, and no tangent rows are built for chi; the
    others take the steps, each with an empty kernel."""
    k, lift, steps = R.residue_lifting()
    fiber = G.base_change(k)
    if R == QQ and not is_etale(fiber):
        raise HopfError("Q-points are supported for etale schemes only")
    if not steps:
        return fiber.field_characters
    GR = G.base_change(R)
    base = [(chi, [lift(c) for c in chi]) for chi in fiber.field_characters]
    held = set()  # the chi whose lift is their one R-point
    if len(base) == fiber.rank:
        held = {chi for chi, phi in base if point_is_hom(GR, phi, fiber)}
    # the tangent rows depend on chi alone, so every step and every ring
    # over k share them and their one elimination
    tangent = fiber._tangents
    add, mul, one = R.add, R.mul, k.one
    for delta, coord in steps:
        nxt = []
        for chi, phi in base:
            if chi in held:
                part, kern = [], []  # d = 0
            else:
                if chi not in tangent:
                    tangent[chi] = linalg.solver(k, _tangent_rows(k, fiber, chi))
                part, kern = _square_zero_lifts(GR, fiber, tangent[chi], chi, phi, coord)
                if part is None:
                    continue
            if kern and not k.is_finite:
                raise HopfError("infinite solution space over an infinite field")
            if len(nxt) + (k.size() ** len(kern) if kern else 1) > bound:
                raise HopfError(f"more than {bound} points (the points bound)")
            for combo in itertools.product(list(k.elements()) if kern else [],
                                           repeat=len(kern)):
                lifted = list(phi)
                for x, y in project(k, [part, *kern], enumerate((one, *combo))):
                    lifted[x] = add(lifted[x], mul(delta, lift(y)))
                nxt.append((chi, lifted))
        base = nxt
    return [tuple(phi) for _, phi in base]


def hom_on_points(f: GroupSchemeHom, P_source: PointGroup, P_target: PointGroup,
                  hom: RingHom):
    """Index map P_source -> P_target induced by f over the points' ring:
    f's rows mapped through hom, paired with each point at its nonzero
    coordinates."""
    Rp = P_source.ring
    nonzero = Rp.nonzero
    mapped = [[(x, d) for x, c in row if nonzero(d := hom(c))] for row in f.alg]
    out = []
    for pt in P_source.elements:
        live = [nonzero(c) for c in pt]
        img = tuple(_pair(Rp, [(x, d) for x, d in row if live[x]], pt) for row in mapped)
        out.append(P_target.index(img))
    return out
