"""Finite flat group schemes as finite free Hopf algebras.

A group scheme of order m over R is stored by total structure-constant
tensors on a free module with basis e_0..e_{m-1}:

  mult[i][j]     vector: e_i * e_j
  unit           vector: the algebra unit
  comult[i]      m x m matrix: coefficient of e_j (x) e_k in Delta(e_i)
  counit         vector of counit values
  antipode[i]    vector: S(e_i)

The scheme is Spec of this algebra; the group law is dual to comult.
Polynomial presentations are kept only as optional name tags.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .linalg import (
    mat_kernel,
    member_with_coeffs,
    solve,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from .rings import (
    DualNumbers,
    IntegersMod,
    PrimeField,
    QQ,
    Ring,
    RingError,
    RingHom,
    find_hom,
    parse_ring,
    prime_factors,
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


class GroupScheme:
    def __init__(self, ring: Ring, rank: int, mult, unit, comult, counit,
                 antipode, name: str | None = None):
        self.ring = ring
        self.rank = rank
        self.mult = mult
        self.unit = list(unit)
        self.comult = comult
        self.counit = list(counit)
        self.antipode = antipode
        self.name = name
        self._check_dimensions()

    # -- bookkeeping ---------------------------------------------------
    def _check_dimensions(self):
        m = self.rank
        if m < 1:
            raise HopfError("rank must be >= 1")
        if (
            len(self.mult) != m
            or any(len(row) != m for row in self.mult)
            or any(len(v) != m for row in self.mult for v in row)
            or len(self.unit) != m
            or len(self.comult) != m
            or any(len(mat) != m for mat in self.comult)
            or any(len(r) != m for mat in self.comult for r in mat)
            or len(self.counit) != m
            or len(self.antipode) != m
            or any(len(v) != m for v in self.antipode)
        ):
            raise HopfError("tensor dimensions do not match the rank")

    @property
    def order(self) -> int:
        return self.rank

    def basis_vector(self, i):
        R = self.ring
        return [R.one if j == i else R.zero for j in range(self.rank)]

    def comult_sparse(self, i):
        R = self.ring
        return [
            (j, k, c)
            for j, row in enumerate(self.comult[i])
            for k, c in enumerate(row)
            if c != R.zero
        ]

    # -- algebra operations ---------------------------------------------
    def mul_vec(self, v, w):
        R = self.ring
        out = [R.zero] * self.rank
        for i, a in enumerate(v):
            if a == R.zero:
                continue
            for j, b in enumerate(w):
                if b == R.zero:
                    continue
                ab = R.mul(a, b)
                for k, c in enumerate(self.mult[i][j]):
                    if c != R.zero:
                        out[k] = R.add(out[k], R.mul(ab, c))
        return out

    def power_vec(self, v, n: int):
        out = self.unit
        for _ in range(n):
            out = self.mul_vec(out, v)
        return out

    def counit_of(self, v):
        return self.ring.dot(self.counit, v)

    def antipode_vec(self, v):
        R = self.ring
        out = [R.zero] * self.rank
        for i, a in enumerate(v):
            if a != R.zero:
                out = vec_add(R, out, vec_scale(R, a, self.antipode[i]))
        return out

    def comult_vec(self, v):
        """Delta(v) as a dict {(j, k): coeff}."""
        R = self.ring
        out: dict = {}
        for i, a in enumerate(v):
            if a == R.zero:
                continue
            for j, k, c in self.comult_sparse(i):
                key = (j, k)
                out[key] = R.add(out.get(key, R.zero), R.mul(a, c))
        return {key: c for key, c in out.items() if c != R.zero}

    def tensor_mul(self, x: dict, y: dict) -> dict:
        """Product in A (x) A of two tensors given as {(j,k): coeff}.

        No ffgs code calls it since `verify` contracts Delta(e_i) Delta(e_j)
        in stages; bench/tracer.py still wraps it by name."""
        R = self.ring
        out: dict = {}
        for (j1, k1), c1 in x.items():
            for (j2, k2), c2 in y.items():
                c = R.mul(c1, c2)
                left = self.mult[j1][j2]
                right = self.mult[k1][k2]
                for a, la in enumerate(left):
                    if la == R.zero:
                        continue
                    cla = R.mul(c, la)
                    for b, rb in enumerate(right):
                        if rb != R.zero:
                            key = (a, b)
                            out[key] = R.add(out.get(key, R.zero), R.mul(cla, rb))
        return {key: c for key, c in out.items() if c != R.zero}

    def is_commutative(self) -> bool:
        """Commutativity of the group law (symmetric comultiplication)."""
        m = self.rank
        return all(
            self.comult[i][j][k] == self.comult[i][k][j]
            for i in range(m)
            for j in range(m)
            for k in range(j + 1, m)
        )

    # -- verification -----------------------------------------------------
    def verify(self) -> VerificationReport:
        """Check the Hopf-algebra axioms and report the first that fails.

        The checks run in a fixed order: algebra-commutativity, algebra-unit,
        associativity, coassociativity, counit, bialgebra-unit, counit-unit,
        then bialgebra-mult and counit-mult for each pair (i, j) in turn, and
        antipode-left and antipode-right for each i in turn.  The witness is
        the first failing index tuple in lexicographic order.
        """
        R = self.ring
        m = self.rank
        zero, add, mul = R.zero, R.add, R.mul
        # sparse tables, read once: M[a][b] lists the nonzero (x, c) of
        # e_a e_b, C[i] the nonzero (j, k, c) of Delta(e_i), S[j] those of S(e_j)
        M = [[[(x, c) for x, c in enumerate(v) if c != zero] for v in row]
             for row in self.mult]
        C = [self.comult_sparse(i) for i in range(m)]
        S = [[(x, c) for x, c in enumerate(v) if c != zero] for v in self.antipode]
        basis = [self.basis_vector(i) for i in range(m)]

        def combine(terms):
            """sum of c * e_a e_b over the (a, b, c) in terms, as a vector."""
            out = [zero] * m
            for a, b, c in terms:
                for x, d in M[a][b]:
                    out[x] = add(out[x], mul(c, d))
            return out

        def delta(v):
            """Delta of the sparse vector v as {(j, k): coeff}."""
            out: dict = {}
            for a, c in v:
                for j, k, d in C[a]:
                    out[(j, k)] = add(out.get((j, k), zero), mul(c, d))
            return {key: c for key, c in out.items() if c != zero}

        # algebra: commutativity of mult (the scheme is a scheme)
        for i in range(m):
            for j in range(i + 1, m):
                if self.mult[i][j] != self.mult[j][i]:
                    return VerificationReport(False, "algebra-commutativity", (i, j))
        # unit law
        unit = [(a, u) for a, u in enumerate(self.unit) if u != zero]
        for i in range(m):
            if combine((a, i, u) for a, u in unit) != basis[i]:
                return VerificationReport(False, "algebra-unit", (i,))
        # associativity: (e_i e_j) e_k = e_i (e_j e_k)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    lhs = combine((a, k, c) for a, c in M[i][j])
                    rhs = combine((i, b, c) for b, c in M[j][k])
                    if lhs != rhs:
                        return VerificationReport(False, "associativity", (i, j, k))
        # coassociativity: (Delta (x) id) Delta = (id (x) Delta) Delta
        for i in range(m):
            lhs: dict = {}
            rhs: dict = {}
            for j, k, c in C[i]:
                for a, b, d in C[j]:
                    key = (a, b, k)
                    lhs[key] = add(lhs.get(key, zero), mul(c, d))
                for a, b, d in C[k]:
                    key = (j, a, b)
                    rhs[key] = add(rhs.get(key, zero), mul(c, d))
            lhs = {key: c for key, c in lhs.items() if c != zero}
            rhs = {key: c for key, c in rhs.items() if c != zero}
            if lhs != rhs:
                return VerificationReport(False, "coassociativity", (i,))
        # counit laws
        for i in range(m):
            left = [zero] * m
            right = [zero] * m
            for j, k, c in C[i]:
                left[k] = add(left[k], mul(c, self.counit[j]))
                right[j] = add(right[j], mul(c, self.counit[k]))
            if left != basis[i] or right != basis[i]:
                return VerificationReport(False, "counit", (i,))
        # bialgebra: Delta and counit are algebra maps
        unit_sq = {}
        for j, a in unit:
            for k, b in unit:
                ab = mul(a, b)
                if ab != zero:
                    unit_sq[(j, k)] = ab
        if delta(unit) != unit_sq:
            return VerificationReport(False, "bialgebra-unit", ())
        if self.counit_of(self.unit) != R.one:
            return VerificationReport(False, "counit-unit", ())
        # Delta(e_i) Delta(e_j) = sum C^i_ab C^j_cd e_a e_c (x) e_b e_d, in two
        # stages that meet on (c, b):  P_i[(c, b)] = sum_a C^i_ab e_a e_c  and
        # Q_j[(c, b)] = sum_d C^j_cd e_b e_d.  Each stage is O(m^5) on a dense
        # basis and pairing them O(m^6), where expanding the product is O(m^8).
        # Q reads e_d e_b for e_b e_d: mult is commutative by now.
        partners = [[(c, v) for c, v in enumerate(row) if v] for row in M]

        def stage(i, left):
            out: dict = {}
            for a, b, coeff in C[i]:
                for c, prod in partners[a if left else b]:
                    acc = out.setdefault((c, b) if left else (a, c), {})
                    for x, d in prod:
                        acc[x] = add(acc.get(x, zero), mul(coeff, d))
            return {key: [(x, v) for x, v in acc.items() if v != zero]
                    for key, acc in out.items()}

        Q = [stage(j, False) for j in range(m)]
        for i in range(m):
            P = stage(i, True)
            for j in range(m):
                rhs = {}
                for key, xs in P.items():
                    for y, q in Q[j].get(key, ()):
                        for x, p in xs:
                            rhs[(x, y)] = add(rhs.get((x, y), zero), mul(p, q))
                rhs = {key: c for key, c in rhs.items() if c != zero}
                if delta(M[i][j]) != rhs:
                    return VerificationReport(False, "bialgebra-mult", (i, j))
                eps_prod = self.counit_of(self.mult[i][j])
                if eps_prod != mul(self.counit[i], self.counit[j]):
                    return VerificationReport(False, "counit-mult", (i, j))
        # antipode: m(S (x) id)Delta = unit . counit = m(id (x) S)Delta
        for i in range(m):
            left = combine((a, k, mul(c, s)) for j, k, c in C[i] for a, s in S[j])
            right = combine((j, b, mul(c, s)) for j, k, c in C[i] for b, s in S[k])
            target = vec_scale(R, self.counit[i], self.unit)
            if left != target:
                return VerificationReport(False, "antipode-left", (i,))
            if right != target:
                return VerificationReport(False, "antipode-right", (i,))
        return VerificationReport(True)

    # -- functoriality -----------------------------------------------------
    def base_change(self, hom: RingHom | Ring) -> "GroupScheme":
        if isinstance(hom, Ring):
            found = find_hom(self.ring, hom)
            if found is None:
                raise RingError(
                    f"no supported homomorphism {self.ring.name()} -> {hom.name()}"
                )
            hom = found
        if hom.source != self.ring:
            raise RingError("base change homomorphism has the wrong source")
        f = hom.fn
        m = self.rank
        return GroupScheme(
            hom.target,
            m,
            [[[f(c) for c in v] for v in row] for row in self.mult],
            [f(c) for c in self.unit],
            [[[f(c) for c in r] for r in mat] for mat in self.comult],
            [f(c) for c in self.counit],
            [[f(c) for c in v] for v in self.antipode],
            name=self.name,
        )

    def to_dict(self) -> dict:
        R = self.ring
        d = {
            "base": R.name(),
            "rank": self.rank,
            "mult": [[[R.show(c) for c in v] for v in row] for row in self.mult],
            "unit": [R.show(c) for c in self.unit],
            "comult": [[[R.show(c) for c in r] for r in mat] for mat in self.comult],
            "counit": [R.show(c) for c in self.counit],
            "antipode": [[R.show(c) for c in v] for v in self.antipode],
        }
        if self.name:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GroupScheme":
        R = parse_ring(d["base"])
        p = R.parse
        return cls(
            R,
            d["rank"],
            [[[p(c) for c in v] for v in row] for row in d["mult"]],
            [p(c) for c in d["unit"]],
            [[[p(c) for c in r] for r in mat] for mat in d["comult"]],
            [p(c) for c in d["counit"]],
            [[p(c) for c in v] for v in d["antipode"]],
            name=d.get("name"),
        )

    def __repr__(self):
        tag = self.name or "group scheme"
        return f"<{tag} of order {self.rank} over {self.ring.name()}>"


def order(G: GroupScheme) -> int:
    return G.rank


def verify_hopf(G: GroupScheme) -> VerificationReport:
    return G.verify()


def cartier_dual(G: GroupScheme) -> GroupScheme:
    """Dual module with mult and comult swapped (commutative G only)."""
    if not G.is_commutative():
        raise HopfError("Cartier duality needs a commutative group scheme")
    m = G.rank
    mult = [[[G.comult[k][i][j] for k in range(m)] for j in range(m)]
            for i in range(m)]
    comult = [[[G.mult[j][k][i] for k in range(m)] for j in range(m)]
              for i in range(m)]
    antipode = [[G.antipode[j][i] for j in range(m)] for i in range(m)]
    name = f"dual({G.name})" if G.name else None
    return GroupScheme(G.ring, m, mult, list(G.counit), comult, list(G.unit),
                       antipode, name=name)


class GroupSchemeHom:
    """Homomorphism source -> target, stored contravariantly: alg[j] is the
    image in Hopf(source) of the j-th basis vector of Hopf(target)."""

    def __init__(self, source: GroupScheme, target: GroupScheme, alg):
        if source.ring != target.ring:
            raise HopfError("homomorphisms need a common base ring")
        if len(alg) != target.rank or any(len(v) != source.rank for v in alg):
            raise HopfError("algebra map has wrong dimensions")
        self.source = source
        self.target = target
        self.alg = [list(v) for v in alg]

    def apply_alg(self, v):
        """Pull back a Hopf(target) element along the homomorphism."""
        R = self.source.ring
        out = [R.zero] * self.source.rank
        for j, c in enumerate(v):
            if c != R.zero:
                out = vec_add(R, out, vec_scale(R, c, self.alg[j]))
        return out

    def is_valid(self) -> VerificationReport:
        R = self.source.ring
        S, T = self.source, self.target
        if self.apply_alg(T.unit) != S.unit:
            return VerificationReport(False, "hom-unit", ())
        for i in range(T.rank):
            if S.counit_of(self.alg[i]) != T.counit[i]:
                return VerificationReport(False, "hom-counit", (i,))
            lhs = S.comult_vec(self.alg[i])
            rhs: dict = {}
            for j, k, c in T.comult_sparse(i):
                for a, x in enumerate(self.alg[j]):
                    if x == R.zero:
                        continue
                    cx = R.mul(c, x)
                    for b, y in enumerate(self.alg[k]):
                        if y != R.zero:
                            key = (a, b)
                            rhs[key] = R.add(rhs.get(key, R.zero), R.mul(cx, y))
            rhs = {key: c for key, c in rhs.items() if c != R.zero}
            if lhs != rhs:
                return VerificationReport(False, "hom-comult", (i,))
            for j in range(T.rank):
                if self.apply_alg(T.mult[i][j]) != S.mul_vec(self.alg[i], self.alg[j]):
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
        R = self.source.ring
        return all(
            self.alg[j] == vec_scale(R, self.target.counit[j], self.source.unit)
            for j in range(self.target.rank)
        )

    def is_module_iso(self) -> bool:
        return linalg.mat_inverse(self.source.ring, transpose(self.alg)) is not None


def identity_endo(G: GroupScheme) -> GroupSchemeHom:
    return GroupSchemeHom(G, G, linalg.identity_matrix(G.ring, G.rank))


def trivial_endo(G: GroupScheme) -> GroupSchemeHom:
    R = G.ring
    return GroupSchemeHom(
        G, G, [vec_scale(R, G.counit[j], G.unit) for j in range(G.rank)]
    )


def convolution(G: GroupScheme, f_alg, g_alg):
    """Convolution of two linear endomaps of Hopf(G), given as alg matrices."""
    R = G.ring
    out = []
    for i in range(G.rank):
        acc = [R.zero] * G.rank
        for j, k, c in G.comult_sparse(i):
            acc = vec_add(R, acc, vec_scale(R, c, G.mul_vec(f_alg[j], g_alg[k])))
        out.append(acc)
    return out


def convolution_power(G: GroupScheme, n: int) -> GroupSchemeHom:
    """The endomorphism [n] of a commutative group scheme."""
    if not G.is_commutative():
        raise HopfError("[n] needs a commutative group scheme")
    return GroupSchemeHom(G, G, power_map_alg(G, n))


def power_map_alg(G: GroupScheme, n: int):
    """Pullback of the n-th power map of the scheme (any G; a group
    homomorphism only when G is commutative)."""
    ident = linalg.identity_matrix(G.ring, G.rank)
    if n == 0:
        return trivial_endo(G).alg
    if n < 0:
        pos = power_map_alg(G, -n)
        # compose with the antipode: a -> [(-1)]^* [n]^* a
        anti = GroupSchemeHom(G, G, [list(v) for v in G.antipode])
        return [anti.apply_alg(v) for v in pos]
    out = ident
    for _ in range(n - 1):
        out = convolution(G, out, ident)
    return out


# ----------------------------------------------------------------------
# Points functor


class PointGroup:
    """All R'-points of G with the convolution group structure."""

    def __init__(self, ring: Ring, elements, table, identity_index: int):
        self.ring = ring
        self.elements = elements            # list of tuples, canonically sorted
        self.table = table                  # table[i][j] = index of product
        self.identity_index = identity_index

    @property
    def order(self):
        return len(self.elements)

    def index(self, point) -> int:
        return self.elements.index(tuple(point))

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == self.identity_index:
                return j
        raise HopfError("point has no inverse")  # pragma: no cover

    def element_order(self, i: int) -> int:
        n = 1
        j = i
        while j != self.identity_index:
            j = self.table[j][i]
            n += 1
        return n

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(n) for j in range(i + 1, n))

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
    """Assemble the group structure on a closed set of points of GR."""
    R = GR.ring
    pts = sorted({tuple(v) for v in vecs}, key=lambda t: tuple(R.sort_key(x) for x in t))
    index = {p: i for i, p in enumerate(pts)}
    table = []
    for u in pts:
        row = []
        for v in pts:
            w = tuple(
                sum_convolve(GR, u, v)
            )
            if w not in index:
                raise HopfError("point set is not closed under the group law")
            row.append(index[w])
        table.append(row)
    ident = tuple(GR.counit)
    return PointGroup(R, pts, table, index[ident])


def sum_convolve(GR: GroupScheme, u, v):
    """Product of two points: (u * v)(e_i) = sum Delta(e_i) u_j v_k."""
    R = GR.ring
    out = []
    for i in range(GR.rank):
        acc = R.zero
        for j, k, c in GR.comult_sparse(i):
            acc = R.add(acc, R.mul(c, R.mul(u[j], v[k])))
        out.append(acc)
    return out


def point_is_hom(GR: GroupScheme, v) -> bool:
    R = GR.ring
    if R.dot(GR.unit, v) != R.one:
        return False
    m = GR.rank
    for i in range(m):
        for j in range(i, m):
            if R.mul(v[i], v[j]) != R.dot(GR.mult[i][j], v):
                return False
    return True


def _root_finder(R: Ring):
    if R.is_finite and R.is_field:
        def roots(coeffs):
            out = []
            for lam in R.elements():
                acc = R.zero
                power = R.one
                for c in coeffs:
                    if c != R.zero:
                        acc = R.add(acc, R.mul(c, power))
                    power = R.mul(power, lam)
                if acc == R.zero:
                    out.append(lam)
            return out
        return roots
    if R is QQ or R == QQ:
        def roots(coeffs):
            # rational root theorem on the integer rescaling
            from math import lcm
            den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
            ints = [int(c * den) for c in coeffs]
            while ints and ints[-1] == 0:
                ints.pop()
            if not ints:
                return []
            out = set()
            lead, const = ints[-1], ints[0]
            if const == 0:
                out.add(Fraction(0))
                while ints and ints[0] == 0:
                    ints = ints[1:]
                if not ints:
                    return sorted(out, key=R.sort_key)
                const = ints[0]
            def divisors(n):
                n = abs(n)
                return [d for d in range(1, n + 1) if n % d == 0]
            for p in divisors(const):
                for q in divisors(lead):
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        acc = Fraction(0)
                        for c in reversed(coeffs):
                            acc = acc * cand + c
                        if acc == 0:
                            out.add(cand)
            return sorted(out, key=R.sort_key)
        return roots
    raise RingError(f"no root finder over {R.name()}")


def _minpoly_of_vector(GR: GroupScheme, e, c_vec):
    """Monic minimal polynomial of multiplication by c_vec on the unital
    factor with unit e (powers e, c, c^2, ... until linear dependence)."""
    R = GR.ring
    powers = [e]
    while True:
        coeffs = member_with_coeffs(R, powers, GR.mul_vec(powers[-1], c_vec))
        if coeffs is not None:
            # x^n = sum coeffs_i x^i  ->  minpoly = x^n - sum coeffs_i x^i
            return [R.neg(x) for x in coeffs] + [R.one]
        powers.append(GR.mul_vec(powers[-1], c_vec))


def characters(GR: GroupScheme):
    """All algebra homomorphisms Hopf(GR) -> base field, as value vectors.

    Pure linear algebra: the algebra is split along generalized eigenspaces
    of multiplication operators; eigenvalues are found by exact root
    scanning (all field elements over finite fields, rational root theorem
    over Q)."""
    R = GR.ring
    if not R.is_field:
        raise HopfError("characters need a field")
    m = GR.rank
    roots_of = _root_finder(R)
    results = []
    # stack entries: (factor basis rows, factor unit, next ambient index, chi)
    ident = linalg.identity_matrix(R, m)
    stack = [(ident, list(GR.unit), 0, [None] * m)]
    while stack:
        basis, e, idx, chi = stack.pop()
        if idx == m:
            if all(x is not None for x in chi) and point_is_hom(GR, chi):
                results.append(tuple(chi))
            continue
        c = GR.mul_vec(e, GR.basis_vector(idx))
        scal = member_with_coeffs(R, [e], c)
        if scal is not None:
            chi2 = list(chi)
            chi2[idx] = scal[0]
            stack.append((basis, e, idx + 1, chi2))
            continue
        minpoly = _minpoly_of_vector(GR, e, c)
        for lam in roots_of(minpoly):
            # generalized eigenspace of mult-by-c inside the factor:
            # iterate (L_c - lam) dim-many times
            rows = basis
            for _ in range(len(basis)):
                rows = [
                    vec_sub(R, GR.mul_vec(b, c), vec_scale(R, lam, b)) for b in rows
                ]
            # kernel of (L_c - lam)^dim restricted to the factor:
            # x = sum t_i basis_i with sum t_i rows_i = 0
            coeff_kernel = linalg.row_kernel(R, rows)
            if not coeff_kernel:
                continue
            sub_basis = [
                [R.dot(t, col) for col in zip(*basis)] for t in coeff_kernel
            ]
            sub_basis = linalg.canonical_span(R, sub_basis)
            # unit of the subfactor: solve e = f + g with f in sub, g in image
            image_rows = linalg.canonical_span(R, rows)
            f = _split_unit(R, sub_basis, image_rows, e)
            if f is None:
                continue
            chi2 = list(chi)
            chi2[idx] = lam
            stack.append((sub_basis, f, idx + 1, chi2))
    return sorted(set(results), key=lambda t: tuple(R.sort_key(x) for x in t))


def _split_unit(R, sub_rows, comp_rows, e):
    """Write e = f + g with f in span(sub_rows), g in span(comp_rows);
    return f."""
    stacked = list(sub_rows) + list(comp_rows)
    coeffs = member_with_coeffs(R, stacked, e)
    if coeffs is None:
        return None
    f = [R.zero] * len(e)
    for t, row in zip(coeffs[: len(sub_rows)], sub_rows):
        f = vec_add(R, f, vec_scale(R, t, row))
    return f


def trace_form(G: GroupScheme):
    """Gram matrix (Tr(e_i e_j)) of the trace form of the Hopf algebra."""
    R = G.ring
    m = G.rank
    tr = [sum_ring(R, (G.mult[k][i][i] for i in range(m))) for k in range(m)]
    return [[R.dot(G.mult[i][j], tr) for j in range(m)] for i in range(m)]


def trace_discriminant(G: GroupScheme):
    """Determinant of the trace form of the Hopf algebra."""
    return linalg.det(G.ring, trace_form(G))


def sum_ring(R, it):
    acc = R.zero
    for x in it:
        acc = R.add(acc, x)
    return acc


def points(G: GroupScheme, Rp: Ring, bound: int = 10000) -> PointGroup:
    """The group G(R') of R'-points.

    R' must be finite, or Q for etale G (root finding stays in Q)."""
    hom = find_hom(G.ring, Rp)
    if hom is None:
        raise RingError(f"no base map {G.ring.name()} -> {Rp.name()}")
    GR = G.base_change(hom)
    vecs = _point_vectors(GR, bound)
    return point_group_from_set(GR, vecs)


def _point_vectors(GR: GroupScheme, bound: int):
    R = GR.ring
    if R.is_field and (R.is_finite or R == QQ):
        if R == QQ:
            if GR.rank > bound:
                raise HopfError("order exceeds the Q-points bound")
            if not R.is_unit(trace_discriminant(GR)):
                raise HopfError("Q-points are supported for etale schemes only")
        return characters(GR)
    if isinstance(R, DualNumbers):
        return _dual_points(GR)
    if isinstance(R, IntegersMod):
        return _zmod_points(GR, bound)
    raise RingError(f"points enumeration unsupported over {R.name()}")


def _dual_points(GR: GroupScheme):
    """Points over Dual(k): characters plus compatible eps-derivations."""
    R: DualNumbers = GR.ring
    k = R.base
    m = GR.rank
    fiber = GR.base_change(RingHom(R, k, lambda a: a[0], "eps -> 0"))
    out = []
    for chi in characters(fiber):
        # phi(e_i) = chi_i + eps d_i; multiplicativity gives a linear system
        rows = []
        rhs = []
        for i in range(m):
            for j in range(i, m):
                row = [k.zero] * m
                row[j] = k.add(row[j], chi[i])
                row[i] = k.add(row[i], chi[j])
                val = k.zero
                for t in range(m):
                    c0, c1 = GR.mult[i][j][t]
                    row[t] = k.sub(row[t], c0)
                    val = k.add(val, k.mul(c1, chi[t]))
                rows.append(row)
                rhs.append(k.neg(val))
        row = [GR.unit[t][0] for t in range(m)]
        rows.append(row)
        rhs.append(k.neg(sum_ring(k, (k.mul(GR.unit[t][1], chi[t]) for t in range(m)))))
        part = solve(k, rows, rhs)
        if part is None:
            continue
        kern = mat_kernel(k, rows)
        for d in _affine_space(k, part, kern):
            out.append(tuple((chi[t], d[t]) for t in range(m)))
    return out


def _affine_space(k, particular, kernel_rows):
    if not kernel_rows:
        yield particular
        return
    if not k.is_finite:
        raise HopfError("infinite solution space over an infinite field")
    els = list(k.elements())
    for combo in itertools.product(els, repeat=len(kernel_rows)):
        v = list(particular)
        for c, row in zip(combo, kernel_rows):
            v = vec_add(k, v, vec_scale(k, c, row))
        yield v


def _zmod_points(GR: GroupScheme, bound: int):
    R: IntegersMod = GR.ring
    n = R.n
    primes = prime_factors(n)
    if len(primes) > 1:
        # CRT: solve over each primary component and recombine
        comps = []
        mods = []
        for p in primes:
            pe = p
            while n % (pe * p) == 0:
                pe *= p
            Rp = IntegersMod(pe) if pe > p else PrimeField(p)
            Gp = GR.base_change(Rp)
            comps.append([tuple(int(x) % pe for x in v) for v in _point_vectors(Gp, bound)])
            mods.append(pe)
        out = []
        for combo in itertools.product(*comps):
            vec = []
            for idx in range(GR.rank):
                x = 0
                for val, pe in zip(combo, mods):
                    rest = n // pe
                    x += val[idx] * rest * pow(rest, -1, pe)
                vec.append(x % n)
            out.append(tuple(vec))
        return out
    p = primes[0]
    m = GR.rank
    kp = PrimeField(p)
    base = [list(int(c) for c in chi)
            for chi in characters(GR.base_change(kp))]
    mod = p
    while mod < n:
        mod *= p
        nxt = []
        for phi in base:
            # phi + p^(j) d must be a hom mod p^(j+1); linear in d over GF(p)
            rows = []
            rhs = []
            step = mod // p
            for i in range(m):
                for j in range(i, m):
                    defect = (
                        phi[i] * phi[j]
                        - sum(int(GR.mult[i][j][t]) * phi[t] for t in range(m))
                    ) % mod
                    assert defect % step == 0
                    row = [kp.zero] * m
                    row[j] = kp.add(row[j], phi[i] % p)
                    row[i] = kp.add(row[i], phi[j] % p)
                    for t in range(m):
                        row[t] = kp.sub(row[t], int(GR.mult[i][j][t]) % p)
                    rows.append(row)
                    rhs.append((-(defect // step)) % p)
            defect = (sum(int(GR.unit[t]) * phi[t] for t in range(m)) - 1) % mod
            assert defect % step == 0
            rows.append([int(GR.unit[t]) % p for t in range(m)])
            rhs.append((-(defect // step)) % p)
            part = solve(kp, rows, rhs)
            if part is None:
                continue
            kern = mat_kernel(kp, rows)
            for d in _affine_space(kp, part, kern):
                nxt.append([(phi[t] + step * int(d[t])) % mod for t in range(m)])
        base = nxt
    return [tuple(v) for v in base]


def hom_on_points(f: GroupSchemeHom, P_source: PointGroup, P_target: PointGroup,
                  hom: RingHom):
    """Index map P_source -> P_target induced by f over the points' ring."""
    Rp = P_source.ring
    mapped_alg = [[hom(c) for c in v] for v in f.alg]
    out = []
    for pt in P_source.elements:
        img = tuple(Rp.dot(mapped_alg[j], pt) for j in range(f.target.rank))
        out.append(P_target.index(img))
    return out
