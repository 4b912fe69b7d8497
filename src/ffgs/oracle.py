"""Brute-force cross-checks for the structural machinery.

Everything here is deliberately naive: points are found by exhausting
assignments on a small generating set of the Hopf algebra, groups are
identified from their multiplication tables, subgroups are enumerated
by closing generator sets. The rest of the package is validated against
these results; nothing here reuses the eigenspace-based character code,
the contracted group table of `hopf.points` or the algebra operations
of `GroupScheme`: the oracle reads the stored tables, unit included, into
a dense copy of its own."""

from __future__ import annotations

import itertools

from .linalg import add_scaled, member_with_coeffs
from .hopf import GroupScheme, HopfError, PointGroup, dense, nonzeros
from .rings import Ring, RingError, find_hom, prime_factors


class BudgetExceeded(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Exhaustive points enumeration


def _dense(GR: GroupScheme):
    """(unit, basis, mult, comult) as vectors: the unit, basis[i] the
    vector e_i, mult[i][j] the vector e_i e_j and comult[i][j][k] the
    coefficient of e_j (x) e_k in Delta(e_i), filled in from the stored
    tables."""
    R, m = GR.ring, GR.rank
    M, C, _ = GR.sparse
    unit = [R.zero] * m
    for x, c in GR.unit:
        unit[x] = c
    basis = [[R.one if j == i else R.zero for j in range(m)] for i in range(m)]
    mult = [[[R.zero] * m for _ in range(m)] for _ in range(m)]
    comult = [[[R.zero] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for x, c in M[i][j]:
                mult[i][j][x] = c
        for j, k, c in C[i]:
            comult[i][j][k] = c
    return unit, basis, mult, comult


def _mul(GR: GroupScheme, mult, v, w):
    """v * w, summed over whole rows of the dense mult tensor."""
    R = GR.ring
    return add_scaled(R, [R.zero] * GR.rank,
                      ((R.mul(a, b), mult[i][j]) for i, a in enumerate(v)
                       for j, b in enumerate(w) if R.nonzero(a) and R.nonzero(b)))


def _coeffs(R: Ring, vecs, v):
    """`member_with_coeffs` on the vectors' rows: x as a list, or None."""
    x = member_with_coeffs(R, [nonzeros(R, w) for w in vecs], nonzeros(R, v))
    return None if x is None else dense(R, len(vecs), x)


def _generating_monomials(GR: GroupScheme, unit, basis, mult):
    """A generating set of basis indices plus the monomial closure.

    Returns (gens, monomials, recipes) where monomials[t] is a vector,
    recipes[t] is None for the unit or (parent_index, gen_position) so a
    multiplicative map's value on monomials[t] is value(parent) * x_gen."""
    R = GR.ring
    m = GR.rank
    gens: list[int] = []
    monoms = [unit]
    recipes: list = [None]

    def closure():
        changed = True
        while changed:
            changed = False
            for t in range(len(monoms)):
                for pos, g in enumerate(gens):
                    w = _mul(GR, mult, monoms[t], basis[g])
                    if _coeffs(R, monoms, w) is None:
                        monoms.append(w)
                        recipes.append((t, pos))
                        changed = True

    for i in range(m):
        if all(
            _coeffs(R, monoms, e) is not None for e in basis
        ):
            break
        if _coeffs(R, monoms, basis[i]) is None:
            gens.append(i)
            closure()
    return gens, monoms, recipes


def enumerate_points(G: GroupScheme, Rp: Ring, budget: int = 500000):
    """All R'-points of G by exhaustive search over generator images."""
    hom = find_hom(G.ring, Rp)
    if hom is None:
        raise RingError(f"no base map {G.ring.name()} -> {Rp.name()}")
    GR = G.base_change(hom)
    R = GR.ring
    if not R.is_finite:
        raise RingError("exhaustive enumeration needs a finite ring")
    m = GR.rank
    unit, basis, mult, comult = _dense(GR)
    gens, monoms, recipes = _generating_monomials(GR, unit, basis, mult)
    exprs = [_coeffs(R, monoms, e) for e in basis]
    assert all(e is not None for e in exprs)
    els = list(R.elements())
    # necessary condition on a homomorphic image of generator e_g: it
    # satisfies the same monic power relation e_g^d = sum c_i e_g^i
    candidate_lists = []
    for g in gens:
        powers = [unit]
        rel = None
        while rel is None:
            nxt = _mul(GR, mult, powers[-1], basis[g])
            rel = _coeffs(R, powers, nxt)
            powers.append(nxt)
        cands = []
        for x in els:
            xp = [R.one]
            for _ in range(len(rel)):
                xp.append(R.mul(xp[-1], x))
            lhs = xp[len(rel)]
            rhs = R.zero
            for c, xi in zip(rel, xp):
                rhs = R.add(rhs, R.mul(c, xi))
            if lhs == rhs:
                cands.append(x)
        candidate_lists.append(cands)
    total = 1
    for cands in candidate_lists:
        total *= len(cands)
    if total * m > budget:
        raise BudgetExceeded(
            f"{total} assignments on {len(gens)} generators over {R.name()}"
        )
    found = []
    for assignment in itertools.product(*candidate_lists):
        vals = [R.one]
        for recipe in recipes[1:]:
            parent, pos = recipe
            vals.append(R.mul(vals[parent], assignment[pos]))
        phi = [R.dot(exprs[j], vals) for j in range(m)]
        # phi is a point when it is an algebra map: unital and multiplicative
        if R.dot(unit, phi) == R.one and all(
                R.mul(phi[i], phi[j]) == R.dot(mult[i][j], phi)
                for i in range(m) for j in range(i, m)):
            found.append(tuple(phi))
    return _point_group(GR, comult, found)


def _point_group(GR: GroupScheme, comult, found) -> PointGroup:
    """The group on a closed point set, each product read off the dense
    comult: (u * v)(e_i) = sum c_ijk u_j v_k = u . (C_i v)."""
    R = GR.ring
    pts = sorted(set(found), key=lambda t: tuple(R.sort_key(x) for x in t))
    P = PointGroup(R, pts, [], None)  # its table and identity are filled below
    for u in pts:
        row = []
        for v in pts:
            w = [R.dot(u, [R.dot(cs, v) for cs in mat]) for mat in comult]
            try:
                row.append(P.index(w))
            except ValueError:
                raise HopfError("point set is not closed under the group law") from None
        P.table.append(row)
    P.identity_index = P.index(GR.counit)
    return P


# ----------------------------------------------------------------------
# Abstract finite groups from multiplication tables


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    def idx(a, b):
        return a * n2 + b
    return [
        [idx(t1[a1][b1], t2[a2][b2])
         for (b1, b2) in itertools.product(range(n1), range(n2))]
        for (a1, a2) in itertools.product(range(n1), range(n2))
    ]


def s3_table():
    """Symmetric group on 3 letters, elements as permutation tuples."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms]
        for p in perms
    ]


class AbstractGroup:
    def __init__(self, table, identity=None):
        self.table = table
        self.order = len(table)
        if identity is None:
            identity = next(
                e for e in range(self.order)
                if all(table[e][x] == x and table[x][e] == x
                       for x in range(self.order))
            )
        self.identity = identity

    @classmethod
    def from_points(cls, P: PointGroup) -> "AbstractGroup":
        return cls(P.table, P.identity_index)

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return next(b for b in range(self.order) if self.table[a][b] == self.identity)

    def element_order(self, a):
        n, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def element_orders(self):
        return sorted(self.element_order(a) for a in range(self.order))

    def exponent(self):
        from math import lcm
        return lcm(*self.element_orders())

    def is_abelian(self):
        n = self.order
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(n) for b in range(a + 1, n))

    def _cyclic_factors(self):
        """Invariant-style cyclic decomposition of an abelian group."""
        assert self.is_abelian()
        if self.order == 1:
            return []
        a = max(range(self.order), key=self.element_order)
        d = self.element_order(a)
        if d == self.order:
            return [d]
        sub = self._closure([a])  # quotient by <a>
        cosets = []
        seen = set()
        rep_of = {}
        for g in range(self.order):
            if g in seen:
                continue
            coset = frozenset(self.table[g][s] for s in sub)
            for h in coset:
                rep_of[h] = len(cosets)
            cosets.append(coset)
            seen |= coset
        qtable = [
            [rep_of[self.table[next(iter(c1))][next(iter(c2))]] for c2 in cosets]
            for c1 in cosets
        ]
        return [d] + AbstractGroup(qtable)._cyclic_factors()

    def identify(self) -> str:
        n = self.order
        if n == 1:
            return "C1"
        if self.is_abelian():
            return " x ".join(f"C{d}" for d in self._cyclic_factors())
        orders = self.element_orders()
        if n == 6:
            return "S3"
        if n == 8:
            return "Q8" if orders.count(2) == 1 else "D4"
        half = n // 2
        if orders.count(2) >= half and any(self.element_order(a) == half
                                           for a in range(n)):
            return f"D{half}"
        return f"nonabelian({n}, exponent {self.exponent()})"

    def is_isomorphic_to(self, other: "AbstractGroup", budget: int = 500000) -> bool:
        if self.order != other.order:
            return False
        if self.element_orders() != other.element_orders():
            return False
        if self.is_abelian() != other.is_abelian():
            return False
        if self.is_abelian():
            return self._cyclic_factors() == other._cyclic_factors()
        # small nonabelian groups: backtracking on generator images
        gens = self._small_generators()
        targets = list(range(other.order))
        count = 0
        for images in itertools.product(targets, repeat=len(gens)):
            count += 1
            if count > budget:
                raise BudgetExceeded("isomorphism search budget")
            phi = self.extend(other, gens, images)
            if phi is not None and len(set(phi)) == self.order:
                return True
        return False

    def _small_generators(self):
        gens = []
        generated = {self.identity}
        for g in range(self.order):
            if g in generated:
                continue
            gens.append(g)
            generated = self._closure(gens)
            if len(generated) == self.order:
                break
        return gens

    def _closure(self, gens):
        out = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return out

    def extend(self, other: "AbstractGroup", gens, images):
        """[phi(x) for each x] for the homomorphism phi: self -> other with
        phi(gens[i]) = images[i], or None if there is none.  phi is spread
        along the Cayley graph of gens (phi(x g) = phi(x) phi(g)), so gens
        must generate self; then every product is checked."""
        phi = {self.identity: other.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y = self.table[x][g]
                fy = other.table[phi[x]][img]
                if y not in phi:
                    phi[y] = fy
                    frontier.append(y)
                elif phi[y] != fy:
                    return None
        n = range(self.order)
        if any(phi[self.table[a][b]] != other.table[phi[a]][phi[b]]
               for a in n for b in n):
            return None
        return [phi[x] for x in n]


# ----------------------------------------------------------------------
# Subgroup lattice


class SubgroupInfo:
    def __init__(self, elements, normal, order):
        self.elements = elements            # sorted tuple of indices
        self.normal = normal
        self.order = order

    def __repr__(self):
        tag = "normal" if self.normal else "subgroup"
        return f"<{tag} of order {self.order}>"


def subgroup_lattice(G: AbstractGroup, max_order: int = 64):
    """All subgroups, found by closing generator sets (order <= 64)."""
    if G.order > max_order:
        raise BudgetExceeded(f"group of order {G.order} exceeds lattice bound")
    found = {frozenset([G.identity])}
    frontier = [frozenset([G.identity])]
    while frontier:
        S = frontier.pop()
        for g in range(G.order):
            if g in S:
                continue
            T = frozenset(G._closure([*S, g]))
            if T not in found:
                found.add(T)
                frontier.append(T)
    infos = []
    for S in sorted(found, key=lambda s: (len(s), sorted(s))):
        normal = all(
            G.table[G.table[g][s]][G.inverse(g)] in S
            for g in range(G.order) for s in S
        )
        infos.append(SubgroupInfo(tuple(sorted(S)), normal, len(S)))
    # Sylow self-check: for each prime the count is 1 mod p and divides n
    for p in prime_factors(G.order):
        pe = 1
        while G.order % (pe * p) == 0:
            pe *= p
        count = sum(1 for s in infos if s.order == pe)
        assert count % p == 1 and G.order % count == 0, \
            f"Sylow count self-check failed at p={p}"
    return infos
