import copy
import functools
import itertools
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ffgs import cli, hopf, linalg
from ffgs.cli import build_builtin
from ffgs.constructions import (alpha, constant, constant_cyclic, direct_product,
                                inversion_action, mu, semidirect, tate_oort2)
from ffgs.hopf import (GroupScheme, GroupSchemeHom, HopfError, cartier_dual,
                       convolution, convolution_power, dense, nonzeros, points,
                       power_map_alg, trivial_endo)
from ffgs.oracle import AbstractGroup, BudgetExceeded, enumerate_points, s3_table
from ffgs.testrings import MAX_FIELD_SIZE, _small_fields, test_ring_family as ring_family
from ffgs.rings import (QQ, DualNumbers, IntegersMod, LocalizedIntegers, RationalField,
                        RingError, find_hom, identity_hom, parse_ring, prime_factors)
from test_linalg import (RINGS, coeffs, identity_matrix, kernel_rows, mat_inverse, rand_elt,
                         rand_matrix, span_rows, sparse_rows, transpose, vec_add, vec_scale,
                         vec_sub)

Q = parse_ring("Q")
F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")
Z4 = parse_ring("Z/4")
ZL2 = parse_ring("Zloc(2)")


# ----------------------------------------------------------------------
# Dense scans of the structure tensors, as GroupScheme made them before it
# kept one sparse view per scheme, on dense vectors, as elements were before
# they were kept sparse.  The references below read these and `dense_view`,
# never the methods built on GroupScheme.sparse, so a fault in the tables or
# in the element operations shows as a mismatch.


def dense_terms(G, i):
    """The nonzero (j, k, c) of Delta(e_i), scanned from the dense comult."""
    return [(j, k, c) for j, row in enumerate(dense_view(G).comult[i])
            for k, c in enumerate(row) if G.ring.nonzero(c)]


def dense_mul(G, v, w):
    """v * w, scanning every entry of mult[i][j] at nonzero v_i, w_j."""
    R = G.ring
    nonzero, add, mul = R.nonzero, R.add, R.mul
    M = dense_view(G).mult
    out = [R.zero] * G.rank
    ws = [(j, b) for j, b in enumerate(w) if nonzero(b)]
    for i, a in enumerate(v):
        if not nonzero(a):
            continue
        row = M[i]
        for j, b in ws:
            ab = mul(a, b)
            for k, c in enumerate(row[j]):
                if nonzero(c):
                    out[k] = add(out[k], mul(ab, c))
    return out


def dense_comult(G, v):
    """Delta(v) as {(j, k): coeff}, from dense_terms."""
    R = G.ring
    out: dict = {}
    for i, a in enumerate(v):
        if R.nonzero(a):
            for j, k, c in dense_terms(G, i):
                out[(j, k)] = R.add(out.get((j, k), R.zero), R.mul(a, c))
    return {key: c for key, c in out.items() if R.nonzero(c)}


def dense_antipode(G, v):
    """S(v) as the sum of v_i times the dense row antipode[i]."""
    R, S = G.ring, dense_view(G).antipode
    out = [R.zero] * G.rank
    for i, a in enumerate(v):
        if R.nonzero(a):
            out = vec_add(R, out, vec_scale(R, a, S[i]))
    return out


def test_verify_builtins():
    for G in [mu(Q, 6), mu(F5, 4), mu(Z4, 3), mu(ZL2, 2),
              constant_cyclic(Q, 6), constant(F7, s3_table()),
              alpha(parse_ring("GF(3)"), 3), tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one)]:
        rep = G.verify()
        assert rep.ok, (G.name, rep.axiom, rep.witness)


def test_verify_catches_corruption():
    t = dense_lists(mu(F5, 3))
    t["mult"][1][1] = list(t["unit"])
    rep = from_dense(F5, 3, *t.values()).verify()
    assert not rep.ok
    assert rep.witness is not None


def test_roundtrip_json():
    G = mu(ZL2, 4)
    d = G.to_dict()
    H = GroupScheme.from_dict(d)
    assert H.to_dict() == d
    assert H.verify().ok


def respelled_zeros(x, zero, rng):
    """The nested lists x with each entry zero replaced, with chance 1/2,
    by "-0", which every ring reads as zero too."""
    if isinstance(x, list):
        return [respelled_zeros(y, zero, rng) for y in x]
    return "-0" if x == zero and rng.random() < 0.5 else x


def test_from_dict_reads_back_what_to_dict_writes():
    """from_dict(G.to_dict()) keeps the tables, the unit, the counit and the
    name of each builtin over each ring of RINGS, in its natural basis and
    in a dense one after a change and a shuffle of the basis; so does the
    dict with some zeros spelled "-0", which from_dict parses where it
    skips the zero that to_dict writes.  That skip needs the written zero
    to read back as zero."""
    rng = random.Random(34)
    for R in RINGS:
        zero = R.show(R.zero)
        assert R.parse(zero) == R.zero and R.parse("-0") == R.zero, R.name()
        for G in builtins_over(R):
            for H in (G, permuted(G, rng)):
                d = H.to_dict()
                respelled = {key: respelled_zeros(x, zero, rng) for key, x in d.items()}
                assert respelled != d or H.rank == 1, (G.name, R.name())
                for K in map(GroupScheme.from_dict, (d, respelled)):
                    assert (K.ring, K.rank, K.name) == (H.ring, H.rank, H.name)
                    assert (K.sparse, K.unit, K.counit) == (H.sparse, H.unit, H.counit), \
                        (G.name, R.name())


def test_base_change():
    G = mu(parse_ring("Zloc(7)"), 3)
    Gp = G.base_change(F7)
    assert Gp.ring == F7
    assert Gp.verify().ok


def test_cartier_dual_involution():
    for G in [mu(Q, 4), mu(F5, 6), constant_cyclic(Z4, 3),
              alpha(parse_ring("GF(2)"), 2)]:
        D = cartier_dual(G)
        assert D.verify().ok
        DD = cartier_dual(D)
        assert_canonical_tables(D, G.name)
        assert dense_lists(DD) == dense_lists(G)


def test_dual_of_constant_is_mu():
    # dual(Z/n) = mu_n: same structure constants after the index swap
    G = constant_cyclic(F5, 4)
    D = cartier_dual(G)
    M = mu(F5, 4)
    assert dense_view(D).mult == dense_view(M).mult
    assert dense_view(D).comult == dense_view(M).comult


def test_dual_noncommutative_rejected():
    G = constant(F5, s3_table())
    with pytest.raises(HopfError):
        cartier_dual(G)


def test_convolution_identities():
    G = mu(F5, 6)
    for a in range(-4, 5):
        for b in range(-4, 5):
            fa = convolution_power(G, a)
            fb = convolution_power(G, b)
            assert convolution(G, fa.alg, fb.alg) == convolution_power(G, a + b).alg
            assert fa.then(fb).alg == convolution_power(G, a * b).alg


def test_convolution_unit_laws():
    G = constant_cyclic(Q, 5)
    e = trivial_endo(G)
    one = GroupSchemeHom(G, G, [nonzeros(Q, v) for v in identity_matrix(Q, G.rank)])
    assert convolution(G, one.alg, e.alg) == one.alg
    assert convolution_power(G, 1).alg == one.alg
    assert convolution_power(G, 0).alg == e.alg


def test_power_map_is_hom():
    G = mu(F7, 6)
    f = convolution_power(G, 5)
    assert f.is_valid().ok


def test_points_mu_over_finite_field():
    P = points(mu(F7, 3), F7)
    assert P.order == 3
    assert AbstractGroup.from_points(P).element_order(1) == 3
    P2 = points(mu(F5, 3), F5)
    assert P2.order == 1


def test_points_constant_group():
    P = points(constant(F5, s3_table()), F5)
    assert P.order == 6
    assert not AbstractGroup.from_points(P).is_abelian()


def test_points_over_q():
    P = points(constant_cyclic(Q, 6), Q)
    assert P.order == 6
    P2 = points(mu(Q, 5), Q)
    assert P2.order == 1
    P3 = points(mu(Q, 6), Q)
    assert P3.order == 2


def test_points_over_q_with_large_constants():
    # x^2 = a x has the roots 0 and a; the rational root theorem needs the
    # divisors of a = 2 * 10^12 = 2^13 5^12, which trial division up to a
    # cannot list
    a = Fraction(2 * 10 ** 12)
    G = tate_oort2(Q, a, Fraction(-2) / a)
    P = points(G, Q)
    assert P.elements == [(1, 0), (1, a)]
    assert P.table == [[0, 1], [1, 0]]


def test_points_over_zmod():
    # mu_2 over Z/8: square roots of 1 mod 8 form C2 x C2
    Z8 = parse_ring("Z/8")
    P = points(mu(Z8, 2), Z8)
    assert P.order == 4
    A = AbstractGroup.from_points(P)
    assert A.is_abelian()
    assert all(A.element_order(i) <= 2 for i in range(P.order))


def test_points_over_dual_numbers():
    D3 = parse_ring("Dual(GF(3))")
    # alpha_3 has no points over a field but epsilon-directions over duals
    P = points(alpha(parse_ring("GF(3)"), 3), D3)
    assert P.order == 3


def test_points_functorial_in_hom():
    G = mu(F5, 4)
    f = convolution_power(G, 2)
    P = points(G, F5)
    out = hopf.hom_on_points(f, P, P, identity_hom(F5))
    for i in range(P.order):
        assert out[i] == P.table[i][i]


def mat_mul(R, A, B):
    return [[R.dot(row, col) for col in zip(*B)] for row in A]


def rebased(G, Q):
    """G in the basis f_d with e_c = sum_d Q[c][d] f_d (Q invertible)."""
    R, m, D = G.ring, G.rank, dense_view(G)
    P = mat_inverse(R, Q)  # f_i = sum_a P[i][a] e_a

    def to_f(v):
        return mat_mul(R, [v], Q)[0]

    def comb(vecs, i):
        return [R.dot(P[i], col) for col in transpose(vecs)]

    comult = []
    for i in range(m):
        C = [comb([D.comult[a][j] for a in range(m)], i) for j in range(m)]
        comult.append(mat_mul(R, mat_mul(R, transpose(Q), C), Q))
    return from_dense(
        R, m,
        [[to_f(dense_mul(G, P[i], P[j])) for j in range(m)] for i in range(m)],
        to_f(D.unit),
        comult,
        [R.dot(P[i], G.counit) for i in range(m)],
        [to_f(comb(D.antipode, i)) for i in range(m)],
    )


def test_unit_with_zero_divisor_coordinates_verifies():
    # e_1 = 2 f_0 + f_1 and e_2 = f_0 + f_2 put the unit of const:Z6 at
    # (1, 3, 2, 1, 1, 1): the coordinates 3 and 2 multiply to 0 in Z/6
    Z6 = parse_ring("Z/6")
    Q = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    Q[0][1], Q[0][2] = 2, 1
    G = rebased(constant_cyclic(Z6, 6), Q)
    assert dense_view(G).unit == [1, 3, 2, 1, 1, 1]
    rep = G.verify()
    assert rep.ok, (rep.axiom, rep.witness)
    # a corrupted unit is still caught
    G.unit = nonzeros(Z6, [1, 3, 2, 1, 1, 2])
    assert not G.verify().ok


# ----------------------------------------------------------------------
# GroupScheme.verify against the tensor_mul version it replaced


def _reference_tensor_mul(G, x, y):
    """Product in A (x) A of two tensors given as {(j,k): coeff}."""
    R, M = G.ring, dense_view(G).mult
    out: dict = {}
    for (j1, k1), c1 in x.items():
        for (j2, k2), c2 in y.items():
            c = R.mul(c1, c2)
            left = M[j1][j2]
            right = M[k1][k2]
            for a, la in enumerate(left):
                if la == R.zero:
                    continue
                cla = R.mul(c, la)
                for b, rb in enumerate(right):
                    if rb != R.zero:
                        key = (a, b)
                        out[key] = R.add(out.get(key, R.zero), R.mul(cla, rb))
    return {key: c for key, c in out.items() if c != R.zero}


def _reference_verify(G):
    """GroupScheme.verify as it was before the sparse tables: products with
    basis vectors, a dense scan of Delta(e_i) per use, and Delta(e_i)
    Delta(e_j) by expanding the product term by term."""
    R = G.ring
    m = G.rank
    D = dense_view(G)
    e = identity_matrix(R, m)
    Report = hopf.VerificationReport
    for i in range(m):
        for j in range(i + 1, m):
            if D.mult[i][j] != D.mult[j][i]:
                return Report(False, "algebra-commutativity", (i, j))
    for i in range(m):
        if dense_mul(G, D.unit, e[i]) != e[i]:
            return Report(False, "algebra-unit", (i,))
    for i in range(m):
        for j in range(m):
            left = D.mult[i][j]
            for k in range(m):
                if dense_mul(G, left, e[k]) != dense_mul(G, e[i], D.mult[j][k]):
                    return Report(False, "associativity", (i, j, k))
    for i in range(m):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in dense_terms(G, i):
            for a, b, d in dense_terms(G, j):
                key = (a, b, k)
                lhs[key] = R.add(lhs.get(key, R.zero), R.mul(c, d))
            for a, b, d in dense_terms(G, k):
                key = (j, a, b)
                rhs[key] = R.add(rhs.get(key, R.zero), R.mul(c, d))
        lhs = {key: c for key, c in lhs.items() if c != R.zero}
        rhs = {key: c for key, c in rhs.items() if c != R.zero}
        if lhs != rhs:
            return Report(False, "coassociativity", (i,))
    for i in range(m):
        left = [R.zero] * m
        right = [R.zero] * m
        for j, k, c in dense_terms(G, i):
            left[k] = R.add(left[k], R.mul(c, G.counit[j]))
            right[j] = R.add(right[j], R.mul(c, G.counit[k]))
        if left != e[i] or right != e[i]:
            return Report(False, "counit", (i,))
    one_tensor = dense_comult(G, D.unit)
    unit_sq = {}
    for j, a in enumerate(D.unit):
        for k, b in enumerate(D.unit):
            ab = R.mul(a, b)
            if ab != R.zero:
                unit_sq[(j, k)] = ab
    if one_tensor != unit_sq:
        return Report(False, "bialgebra-unit", ())
    if R.dot(G.counit, D.unit) != R.one:
        return Report(False, "counit-unit", ())
    for i in range(m):
        di = dense_comult(G, e[i])
        for j in range(m):
            lhs = dense_comult(G, D.mult[i][j])
            rhs = _reference_tensor_mul(G, di, dense_comult(G, e[j]))
            if lhs != rhs:
                return Report(False, "bialgebra-mult", (i, j))
            if R.dot(G.counit, D.mult[i][j]) != R.mul(G.counit[i], G.counit[j]):
                return Report(False, "counit-mult", (i, j))
    for i in range(m):
        left = [R.zero] * m
        right = [R.zero] * m
        for j, k, c in dense_terms(G, i):
            left = vec_add(R, left, vec_scale(R, c, dense_mul(G, D.antipode[j], e[k])))
            right = vec_add(R, right, vec_scale(R, c, dense_mul(G, e[j], D.antipode[k])))
        target = vec_scale(R, G.counit[i], D.unit)
        if left != target:
            return Report(False, "antipode-left", (i,))
        if right != target:
            return Report(False, "antipode-right", (i,))
    return Report(True)


def outcome(rep):
    return rep.ok, rep.axiom, rep.witness


REFERENCE_BASES = ["GF(2)", "GF(3)", "GF(5)", "GF(2^2;x^2+x+1)", "GF(3^2;x^2+1)",
                   "Q", "Z/6", "Z/9", "Zloc(2)", "Zloc(3)", "Dual(GF(2))",
                   "Dual(GF(3))"]
REFERENCE_SPECS = ["mu:1", "mu:2", "mu:3", "mu:4", "const:Z3", "const:Z4",
                   "const:S3", "alpha:2", "alpha:3", "ot2:2,-1", "ot2:0,1",
                   "sdp:mu:3,Z2,inv"]
SLOTS = ("mult", "unit", "comult", "counit", "antipode")


_TABLES = weakref.WeakKeyDictionary()  # scheme -> its dense (mult, comult, antipode)


def dense_view(G):
    """G's dense lists by slot: mult[i][j] the vector e_i e_j,
    comult[i][j][k] the coefficient of e_j (x) e_k in Delta(e_i),
    antipode[i] the vector S(e_i), expanded from the tables once per
    scheme and kept, and the unit and counit vectors, read afresh."""
    R, m = G.ring, G.rank
    if G not in _TABLES:
        M, C, S = G.sparse
        _TABLES[G] = ([[dense(R, m, v) for v in row] for row in M],
                      [[dense(R, m, ((k, c) for j, k, c in terms if j == row))
                        for row in range(m)] for terms in C],
                      [dense(R, m, v) for v in S])
    mult, comult, antipode = _TABLES[G]
    return SimpleNamespace(mult=mult, unit=dense(R, m, G.unit), comult=comult,
                           counit=list(G.counit), antipode=antipode)


def from_dense(R, m, mult, unit, comult, counit, antipode, name=None):
    """The scheme of dense lists in `dense_view`'s form, given by slot in
    the order of SLOTS, with only their nonzeros kept."""
    tables = ([[nonzeros(R, v) for v in row] for row in mult],
              [[(j, k, c) for j, row in enumerate(mat) for k, c in nonzeros(R, row)]
               for mat in comult],
              [nonzeros(R, v) for v in antipode])
    return GroupScheme(R, m, tables, nonzeros(R, unit), counit, name)


def dense_lists(G):
    """Copies of G's dense lists by slot, in `from_dense`'s order: a
    corrupted scheme is built from edited copies."""
    view = dense_view(G)
    return {slot: copy.deepcopy(getattr(view, slot)) for slot in SLOTS}


def built(spec, R):
    """[spec over R], or [] where the builtin does not exist over R."""
    try:
        return [build_builtin(spec, R)]
    except HopfError:
        return []


def builtins_over(R):
    """The REFERENCE_SPECS that exist over R (alpha_p and ot2:0,1 need
    characteristic p and 2)."""
    return [G for spec in REFERENCE_SPECS for G in built(spec, R)]


def unitriangular(R, m, rng, eps=False):
    """An upper unitriangular matrix with entries in {-1, 0, 1, 2}; with
    eps over Dual(k), each entry above the diagonal gets an eps-part from
    the same set."""
    def entry():
        a = R.from_int(rng.choice((-1, 0, 1, 2)))
        if eps and isinstance(R, DualNumbers):
            a = R.add(a, (R.base.zero, R.base.from_int(rng.choice((-1, 0, 1, 2)))))
        return a

    return [[R.one if j == i else entry() if j > i else R.zero
             for j in range(m)] for i in range(m)]


def corrupted(G, slot, rng, mirror=False):
    """A copy of G with one entry of `slot` moved by a nonzero amount; with
    mirror, mult[j][i][k] follows mult[i][j][k] so mult stays commutative,
    and comult[i][k][j] follows comult[i][j][k] so a cocommutative Delta
    stays cocommutative."""
    t = dense_lists(G)
    R, m = G.ring, G.rank
    delta = R.from_int(rng.choice((1, -1, 2)))
    if delta == R.zero:
        delta = R.one
    i, j, k = (rng.randrange(m) for _ in range(3))
    if slot == "mult":
        t["mult"][i][j][k] = R.add(t["mult"][i][j][k], delta)
        if mirror:
            t["mult"][j][i][k] = t["mult"][i][j][k]
    elif slot == "unit":
        t["unit"][i] = R.add(t["unit"][i], delta)
    elif slot == "comult":
        t["comult"][i][j][k] = R.add(t["comult"][i][j][k], delta)
        if mirror:
            t["comult"][i][k][j] = t["comult"][i][j][k]
    elif slot == "counit":
        t["counit"][i] = R.add(t["counit"][i], delta)
    else:
        t["antipode"][i][j] = R.add(t["antipode"][i][j], delta)
    return from_dense(R, m, *t.values())


def mismatched_pairs(R):
    """Algebras paired with coalgebras they do not fit, for the failures
    single-entry corruptions of builtins do not reach.  The first pairs
    R[x]/(x^2) in the basis (x, 1) with both basis vectors group-like:
    Delta(x x) = Delta(x) Delta(x) = 0, but eps(x x) = 0 != 1 = eps(x)^2."""
    Z, O = R.zero, R.one
    counit_mult = from_dense(
        R, 2, [[[Z, Z], [O, Z]], [[O, Z], [Z, O]]], [Z, O],
        [[[O, Z], [Z, Z]], [[Z, Z], [Z, O]]], [O, O], [[Z, Z], [Z, Z]])
    return [counit_mult]


def in_bases(G, rng):
    """G in its natural basis and, after a unitriangular change of basis, in
    a dense one.  Rank 6 goes dense over finite bases only, since the
    reference needs seconds for it over Q and Zloc(p)."""
    out = [("natural", G)]
    if G.rank <= 4 or G.ring.is_finite:
        out.append(("dense", rebased(G, unitriangular(G.ring, G.rank, rng))))
    return out


def reference_corpus():
    """(label, scheme) over every base: each builtin in both bases, seeded
    corruptions of those, and the mismatched pairs.  The mirrored comult
    corruptions, which keep a cocommutative Delta so, draw from a second
    rng, so the rest of the corpus does not depend on them."""
    rng, mirrored = random.Random(20161), random.Random(20162)
    for name in REFERENCE_BASES:
        R = parse_ring(name)
        for G in builtins_over(R):
            for basis, H in in_bases(G, rng):
                label = f"{G.name} over {name}, {basis} basis"
                yield label, H
                for slot in SLOTS:
                    yield f"{label}, {slot} corrupted", corrupted(H, slot, rng)
                yield f"{label}, mult corrupted", corrupted(H, "mult", rng, True)
                yield (f"{label}, comult corrupted in mirror",
                       corrupted(H, "comult", mirrored, True))
        for H in mismatched_pairs(R):
            yield f"mismatched pair over {name}", H


def test_verify_matches_reference_on_every_base():
    """Among the cases are cocommutative Delta that are not coassociative,
    on which the coassociativity scan compares one side with its rotation."""
    reached, rotated = set(), 0
    for label, G in reference_corpus():
        got = outcome(G.verify())
        assert got == outcome(_reference_verify(G)), label
        reached.add(got[1])
        rotated += got[1] == "coassociativity" and G.is_commutative()
    assert rotated, "no cocommutative Delta failed coassociativity"
    # counit-unit is never the first failure: once the counit law holds and
    # Delta(1) = 1 (x) 1, (eps (x) id) Delta(1) = 1 gives eps(1) = 1
    assert reached == {None, "algebra-commutativity", "algebra-unit",
                       "associativity", "coassociativity", "counit",
                       "bialgebra-unit", "bialgebra-mult", "counit-mult",
                       "antipode-left", "antipode-right"}, reached


def test_verify_uses_a_quarter_of_the_reference_multiplications(monkeypatch):
    R = parse_ring("GF(5)")
    G = rebased(mu(R, 8), unitriangular(R, 8, random.Random(8)))
    counts = []
    for check in (_reference_verify, GroupScheme.verify):
        calls = [0]

        def counting(a, b, _mul=R.mul, calls=calls):
            calls[0] += 1
            return _mul(a, b)

        monkeypatch.setattr(R, "mul", counting)
        assert check(G).ok
        monkeypatch.undo()
        counts.append(calls[0])
    reference, staged = counts
    assert staged * 4 <= reference, counts


def test_antipode_law_makes_at_most_m4_products(monkeypatch):
    """The antipode law, the check verify makes after the bialgebra laws,
    contracts each row of Delta(e_i) by S before one product: on dense
    mu_10 over GF(11) that is at most m^4 = 10,000 ring products, where
    expanding c e_j S(e_k) term by term made 40,424."""
    R = parse_ring("GF(11)")
    G = rebased(mu(R, 10), unitriangular(R, 10, random.Random(10)))
    calls, after = [0], [False]
    real_mul, real_laws = R.mul, hopf._Laws.multiplicativity

    def counting(a, b):
        calls[0] += after[0]
        return real_mul(a, b)

    def multiplicativity(self, generators):
        report = real_laws(self, generators)
        after[0] = report is None
        return report

    monkeypatch.setattr(R, "mul", counting)
    monkeypatch.setattr(hopf._Laws, "multiplicativity", multiplicativity)
    assert G.verify().ok
    assert after[0] and 0 < calls[0] <= G.rank ** 4, calls


def test_multiplicativity_scan_reads_the_pairs_i_le_j():
    """mult is commutative by the time the bialgebra laws are read, so
    (i, j) fails them iff (j, i) does: on dense const:S3 over Q the basis
    scan reads e_i e_j for the pairs i <= j alone, in lexicographic order."""
    G = rebased(constant(Q, s3_table()), unitriangular(Q, 6, random.Random(6)))
    M, m = G.sparse.mult, G.rank
    pair = {id(M[i][j]): (i, j) for i in range(m) for j in range(m)}
    assert len(pair) == m * m
    laws, read = hopf._Laws(G), []
    real = laws.delta

    def delta(v):
        read.append(pair[id(v)])
        return real(v)

    laws.delta = delta
    assert laws.multiplicativity(laws.basis) is None
    assert read == [(i, j) for i in range(m) for j in range(i, m)], read


def reference_powers(G, s):
    """1, s, ..., s^(m-1) for a vector s, with s^k = s^(k-1) s rebuilt
    here with dense_mul."""
    powers = [dense_view(G).unit, s][:G.rank]
    while len(powers) < G.rank:
        powers.append(dense_mul(G, powers[-1], s))
    return powers


def generates_reference(G, s):
    """Do the reference powers of s have a canonical span of m rows with
    unit pivots, that is, are they a basis over the base?"""
    span = linalg.canonical_span(G.ring, sparse_rows(G.ring, reference_powers(G, s)))
    return len(span) == G.rank and span.nonunit is None


def assert_certified(G, label):
    """S is the basis or one s that generates_reference certifies."""
    m, S = G.rank, G.algebra_generators
    if S == [G.basis_vector(i) for i in range(m)]:
        return
    [s] = S
    assert generates_reference(G, dense(G.ring, m, s)), label


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_algebra_generators_are_certified(name):
    R = parse_ring(name)
    rng = random.Random(1961)
    for spec in REFERENCE_SPECS:
        for basis, H in (pair for G in built(spec, R) for pair in in_bases(G, rng)):
            label = f"{spec} over {name}, {basis} basis"
            assert_certified(H, label)
            if spec.startswith("mu:") and basis == "natural" and H.rank > 1:
                assert H.algebra_generators == [H.basis_vector(1)], label


def test_presentation_is_the_first_generating_basis_vector():
    """On every scheme of the reference corpus, in its natural and a
    unitriangular basis, corrupted or not: the presentation's index is the
    first basis vector other than 1 that generates_reference certifies, it
    is the generator of `algebra_generators`, and over a field the
    presentation keeps its reference powers and a minimal polynomial of
    degree m.  mu_3 over GF(7) in the basis 1, x + 4x^2, x^2 is presented
    by x^2, which takes the distinct values 1, 4, 2 at the points; const:Z6,
    const:S3 and sdp:mu:3,Z2,inv have no generating basis vector."""
    mu3 = rebased(mu(F7, 3), [[1, 0, 0], [0, 1, 3], [0, 0, 1]])
    for label, G in [("mu_3 over GF(7) by x^2", mu3), *reference_corpus()]:
        pres, basis = G.presentation, identity_matrix(G.ring, G.rank)
        want = next((i for i, s in enumerate(basis)
                     if s != dense_view(G).unit and generates_reference(G, s)), None)
        assert pres.index == want, label
        if want is None:
            assert pres == (None, None, None), label
            continue
        assert G.algebra_generators == [nonzeros(G.ring, basis[want])], label
        if G.ring.is_field:
            assert pres.powers == [nonzeros(G.ring, v)
                                   for v in reference_powers(G, basis[want])], label
            assert len(pres.minpoly) == G.rank + 1, label
        else:
            assert pres.minpoly is pres.powers is None, label
    assert mu3.presentation.index == 2
    for name in ("GF(5)", "GF(7)", "Q", "GF(2^2;x^2+x+1)"):
        R = parse_ring(name)
        for G in (constant_cyclic(R, 6), constant(R, s3_table()),
                  *built("sdp:mu:3,Z2,inv", R)):
            assert G.presentation.index is None, (name, G.name)


def test_top_rung_is_checked_on_the_basis():
    """No basis vector of const:Z30 over GF(31) generates A, and verify
    tries no other generator, so it checks the laws on the basis."""
    G = constant_cyclic(parse_ring("GF(31)"), 30)
    assert G.algebra_generators == [G.basis_vector(i) for i in range(G.rank)]
    assert G.verify().ok


def hand_built_failures():
    """(label, scheme) whose checks on one generator fail where the basis
    scan names an earlier failure: one on A, and one for each family that
    is checked on the generator of the dual algebra A^∨."""
    Z, O, N = F5.zero, F5.one, F5.neg(F5.one)
    # mu_4 over GF(5) with x^3 x^3 = 2 x^2: the basis scan first fails at
    # (x x^2) x^3 != x (x^2 x^3), the generator check at (x^2 x) x^3
    t = dense_lists(mu(F5, 4))
    t["mult"][3][3] = [Z, Z, F5.from_int(2), Z]
    yield "on A", from_dense(F5, 4, *t.values())
    # const:Z4 over GF(5) with 2 e_1 (x) e_1 for e_1 (x) e_1 in Delta(e_2),
    # which keeps Delta cocommutative and its m^2 terms
    t = dense_lists(constant_cyclic(F5, 4))
    t["comult"][2][1][1] = F5.from_int(2)
    yield "coassociativity on A^∨", from_dense(F5, 4, *t.values())
    # const:Z4's coalgebra on GF(5)[y, z, w]/(y, z, w)^2 in the basis
    # e_0 = 1 - y - z - w, e_1 = y, e_2 = z, e_3 = w, where no element
    # generates the algebra
    t = dense_lists(constant_cyclic(F5, 4))
    e = [[O if j == i else Z for j in range(4)] for i in range(4)]
    t["mult"] = [[[O, N, N, N] if i == j == 0 else e[i + j] if i * j == 0 else [Z] * 4
                  for j in range(4)] for i in range(4)]
    t["unit"] = [O] * 4
    yield "multiplicativity on A^∨", from_dense(F5, 4, *t.values())
    # the mismatched square in a dense basis whose A^∨ is presented by a
    # basis vector
    yield "counit on A^∨", rebased(mismatched_square(), unitriangular(F5, 4, random.Random(6)))


def mismatched_square():
    """GF(5)[x]/(x^2) in the basis (1, x) with both basis vectors
    group-like (the mismatched pair), squared: Delta^∨ is multiplicative,
    but eps(x x) = 0 != 1 = eps(x)^2."""
    Z, O = F5.zero, F5.one
    pair = from_dense(F5, 2, [[[O, Z], [Z, O]], [[Z, O], [Z, Z]]], [O, Z],
                      [[[O, Z], [Z, Z]], [[Z, Z], [Z, O]]], [O, O], [[Z, Z], [Z, Z]])
    return direct_product(pair, pair)


def test_counit_mult_reads_live_pairs_and_nonzero_products():
    """The mismatched square in two bases f_i = sum_a P[i][a] e_a of
    1, y, x, xy where verify checks multiplicativity on A^∨, so counit-mult
    first on the pairs e_a e_b != 0 or eps(e_a) eps(e_b) != 0.  In the
    first, f_1 f_3 = 0 but eps(f_1) eps(f_3) != 0; in the second, eps(f_1)
    = 0 but eps(f_1 f_1) != 0.  Either pair, if skipped, leaves Delta^∨
    multiplicative and the failure unseen until the antipode."""
    for rows, witness in [([[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 1, 1], [0, 0, 0, 1]], (1, 3)),
                          ([[1, 0, 0, 0], [1, 0, 3, 1], [2, 4, 3, 0], [4, 0, 1, 0]], (1, 1))]:
        P = [[F5.from_int(c) for c in row] for row in rows]
        G = rebased(mismatched_square(), mat_inverse(F5, P))
        assert G.presentation.index is None and hopf._dual_laws(G)[0] is not None, rows
        want = (False, "counit-mult", witness)
        assert outcome(G.verify()) == outcome(_reference_verify(G)) == want, rows


def record_dual_laws(monkeypatch):
    """A list that gets, for each call of hopf._dual_laws, whether verify
    checks on A^∨."""
    duals = []
    real = hopf._dual_laws

    def recording(G):
        out = real(G)
        duals.append(out[0] is not None)
        return out

    monkeypatch.setattr(hopf, "_dual_laws", recording)
    return duals


def test_failed_generator_checks_rescan_the_basis(monkeypatch):
    """Where a check on one generator of A or of A^∨ fails, verify runs it
    again on the basis, so the witness is the reference's first failure."""
    made = []

    class Counting(hopf.VerificationReport):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self.axiom, self.witness))

    monkeypatch.setattr(hopf, "VerificationReport", Counting)
    duals = record_dual_laws(monkeypatch)
    family = {"associativity": 0, "bialgebra-mult": 1, "counit-mult": 1,
              "coassociativity": 2}
    rescanned, on_dual = {}, set()
    for label, G in [*reference_corpus(), *hand_built_failures()]:
        made.clear()
        duals.clear()
        got = outcome(G.verify())
        if len(made) > 1:
            generator, basis = made
            assert family[generator[0]] == family[basis[0]], label
            assert got == (False, *basis) == outcome(_reference_verify(G)), label
            rescanned[label] = generator, basis
            # multiplicativity is checked on A^∨ only where A has no generator
            one_generator = G.algebra_generators != [G.basis_vector(i) for i in range(G.rank)]
            if duals == [True] and (family[basis[0]] == 2 or not one_generator):
                on_dual.add(family[basis[0]])
    assert rescanned["on A"] == (("associativity", (2, 0, 3)),
                                 ("associativity", (1, 2, 3)))
    assert rescanned["coassociativity on A^∨"][1] == ("coassociativity", (0,))
    assert rescanned["multiplicativity on A^∨"] == (("bialgebra-mult", (0, 1)),
                                                    ("bialgebra-mult", (0, 0)))
    assert rescanned["counit on A^∨"] == (("counit-mult", (0, 0)),) * 2
    assert {family[generator[0]] for generator, _ in rescanned.values()} == {0, 1, 2}
    assert on_dual == {1, 2}


def test_verify_builds_no_dual_for_mu_or_s3(monkeypatch):
    """mu_n in its natural basis reads W = 2m <= m^3 terms for
    coassociativity, Delta of const:S3 is not cocommutative, and mu_8 over
    GF(5) in a dense basis has a generator and more than m^2 terms in
    Delta, so verify builds no A^∨ for them."""
    built_for = []
    real = hopf._transposed
    monkeypatch.setattr(hopf, "_transposed",
                        lambda G, name=None: built_for.append(G) or real(G, name))
    rng = random.Random(1971)
    for name in REFERENCE_BASES:
        R = parse_ring(name)
        schemes = [mu(R, n) for n in (2, 3, 4, 6, 15)]
        schemes += [H for G in built("const:S3", R) for _, H in in_bases(G, rng)]
        for G in schemes:
            assert G.verify().ok, (G.name, name)
    dense = rebased(mu(F5, 8), unitriangular(F5, 8, random.Random(8)))
    assert dense.verify().ok and len(dense.algebra_generators) == 1
    assert sum(map(len, dense.sparse.comult)) > 64
    assert built_for == []
    G = constant_cyclic(F5, 4)
    assert G.verify().ok and built_for == [G]


def test_dual_path_matches_reference_on_constant_corruptions(monkeypatch):
    """Single-entry corruptions of comult and counit of const:Zn in the
    natural basis, where verify reads A^∨; a corruption at e_j (x) e_j
    keeps Delta cocommutative, so A^∨ is still built."""
    hyp, st, settings = hypothesis_or_skip()
    bases = [parse_ring(name) for name in
             ("GF(2)", "GF(3)", "GF(7)", "Z/6", "Z/8", "Zloc(2)", "Zloc(3)", "Q")]
    duals = record_dual_laws(monkeypatch)

    @settings
    @hyp.given(st.integers(3, 8), st.sampled_from(bases),
               st.sampled_from(["comult", "counit"]), st.data())
    def check(n, R, slot, data):
        t = dense_lists(constant_cyclic(R, n))
        index = st.integers(0, n - 1)
        i, j = data.draw(index), data.draw(index)
        delta = R.from_int(data.draw(st.sampled_from((1, -1, 2)))) or R.one
        if slot == "comult":
            k = data.draw(st.one_of(st.just(j), index))
            t["comult"][i][j][k] = R.add(t["comult"][i][j][k], delta)
        else:
            t["counit"][i] = R.add(t["counit"][i], delta)
        H = from_dense(R, n, *t.values())
        assert outcome(H.verify()) == outcome(_reference_verify(H)), (n, R.name(), slot)

    check()
    assert True in duals and False in duals


def test_verify_on_one_generator_uses_an_eighth_of_the_multiplications(monkeypatch):
    R = parse_ring("GF(31)")
    counts = []
    for on_basis in (True, False):
        G = mu(R, 30)
        if on_basis:
            G.algebra_generators = [G.basis_vector(i) for i in range(G.rank)]
        calls = [0]

        def counting(a, b, _mul=R.mul, calls=calls):
            calls[0] += 1
            return _mul(a, b)

        monkeypatch.setattr(R, "mul", counting)
        assert G.verify().ok
        monkeypatch.undo()
        counts.append(calls[0])
    basis, generator = counts
    assert generator * 8 <= basis, counts


def test_verify_of_constant_groups_halves_the_multiplications(monkeypatch):
    """const:Zn in its natural basis reads W = 2m^3 terms for
    coassociativity, which verify checks on A^∨ instead; over Zloc(2), where
    A has no generator, so is multiplicativity, and the generator search
    runs in the GF(2) fiber.  Checked on the basis with the search over R,
    verify made 12,691 and 92,927 ring products; now 3,495 (353 in GF(2))
    and 43,547."""
    prime_field = type(F5)
    for base, n, on_basis in (("Zloc(2)", 15, 12_691), ("GF(31)", 30, 92_927)):
        R = parse_ring(base)
        G = constant_cyclic(R, n)
        calls = [0]
        for cls in {type(R), prime_field}:
            def counting(ring, a, b, _mul=cls.mul):
                calls[0] += 1
                return _mul(ring, a, b)

            monkeypatch.setattr(cls, "mul", counting)
        assert G.verify().ok
        monkeypatch.undo()
        assert calls[0] * 2 <= on_basis, (base, calls[0])


def test_verify_reaches_mu_105():
    G = mu(parse_ring("GF(211)"), 105)
    assert G.verify().ok
    assert G.algebra_generators == [G.basis_vector(1)]


def test_pruned_scans_match_reference_at_every_entry():
    """const:Z6 over GF(7), const:S3 over Q and sdp:mu:3,Z2,inv over GF(5)
    have no generating basis vector, so verify checks associativity and
    counit-mult by the scans that read only nonzero products.  For each
    (i, j, k), entry k of e_i e_j (mirrored, so mult stays commutative)
    and, apart, of Delta(e_i) at e_j (x) e_k is moved by one, and verify
    agrees with the reference.  A unit sum e_a survives a third change,
    e_k added to e_i e_j and e_j e_i and taken from e_i e_i and e_j e_j,
    which reaches the associativity and multiplicativity scans."""
    schemes = [constant_cyclic(F7, 6), constant(parse_ring("Q"), s3_table()),
               build_builtin("sdp:mu:3,Z2,inv", F5)]
    reached = set()
    for G in schemes:
        R, m = G.ring, G.rank
        assert G.presentation.index is None, G.name
        for (i, j, k), change in itertools.product(itertools.product(range(m), repeat=3),
                                                   ("mult", "comult", "unit-keeping")):
            t = dense_lists(G)
            if change == "comult":
                edits = [(t["comult"][i][j], 1)]
            elif change == "mult":
                t["mult"][j][i] = t["mult"][i][j]
                edits = [(t["mult"][i][j], 1)]
            else:
                M = t["mult"]
                edits = [(M[i][j], 1), (M[j][i], 1), (M[i][i], -1), (M[j][j], -1)]
            for row, sign in edits:
                row[k] = R.add(row[k], R.from_int(sign))
            H = from_dense(R, m, *t.values())
            got = outcome(H.verify())
            assert got == outcome(_reference_verify(H)), (G.name, R.name(), change, (i, j, k))
            reached.add(got[1])
    assert {"associativity", "coassociativity", "bialgebra-mult"} <= reached, reached


def test_basis_scan_reads_about_m_squared_triples():
    """On const:Z30 over GF(31), which verify checks on the basis, the
    associativity scan reads the rows s_j e_k at most 3 m^2 times: almost
    every product of two basis idempotents is 0.  A scan of every (i, j, k)
    reads them 2 m^3 times."""
    G = constant_cyclic(parse_ring("GF(31)"), 30)
    laws = hopf._Laws(G)
    reads = [0]

    class Rows(list):
        def __getitem__(self, k):
            reads[0] += 1
            return list.__getitem__(self, k)

    assert laws.associativity([(Rows(rows), terms, eps)
                               for rows, terms, eps in laws.basis]) is None
    assert 0 < reads[0] <= 3 * G.rank ** 2, reads


def test_light_test_on_the_dual_drops_its_unit(monkeypatch):
    """On const:Z30 over GF(31), coassociativity is Light's test on A^∨,
    presented by s*, where eps e_k = e_k for every k: eps is the unit of
    A^∨ and is not tried.  A^∨ is commutative, so (i, 0, k) fails iff
    (k, 0, i) does, and the test reads the m(m + 1)/2 triples (i, 0, k) of
    s* with k >= i, two rows each, and one row more per i."""
    G = constant_cyclic(parse_ring("GF(31)"), 30)
    m, calls = G.rank, []
    real = hopf._Laws.associativity

    class Rows(list):
        def __getitem__(self, k):
            calls[-1][2] += 1
            return list.__getitem__(self, k)

    def counting(self, generators, axiom="associativity"):
        calls.append([axiom, len(generators), 0])
        return real(self, [(Rows(rows), terms, eps) for rows, terms, eps in generators], axiom)

    monkeypatch.setattr(hopf._Laws, "associativity", counting)
    assert G.verify().ok
    assert calls[1:] == [["coassociativity", 1, m * (m + 1) + m]], calls


# ----------------------------------------------------------------------
# property-based: hypothesis draws the builtin, base, basis and corruption


def hypothesis_or_skip():
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies, hyp.settings(max_examples=40, deadline=None,
                                             derandomize=True, database=None)


def builtin_strategy(st):
    """(scheme, rng): a builtin over a reference base, in a random basis."""
    schemes = [G for name in REFERENCE_BASES for G in builtins_over(parse_ring(name))]

    @st.composite
    def draw(draw):
        G = draw(st.sampled_from(schemes))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        _, H = draw(st.sampled_from(in_bases(G, rng)))
        return H, rng

    return draw()


def test_verify_passes_after_base_change():
    hyp, st, settings = hypothesis_or_skip()
    rings = [parse_ring(name) for name in REFERENCE_BASES]
    changes = [(R, T) for R in rings for T in rings if find_hom(R, T)]
    schemes = {R.name(): builtins_over(R) for R in rings}

    @settings
    @hyp.given(st.sampled_from(changes), st.data(), st.integers(0, 2 ** 32))
    def check(change, data, seed):
        R, T = change
        G = data.draw(st.sampled_from(schemes[R.name()])).base_change(T)
        _, H = data.draw(st.sampled_from(in_bases(G, random.Random(seed))))
        rep = H.verify()
        assert rep.ok, (G.name, R.name(), T.name(), rep)

    check()


def test_changed_counit_or_antipode_fails_verify():
    # a bialgebra has one counit and at most one antipode
    hyp, st, settings = hypothesis_or_skip()

    @settings
    @hyp.given(builtin_strategy(st), st.sampled_from(["counit", "antipode"]))
    def check(scheme, slot):
        G, rng = scheme
        assert not corrupted(G, slot, rng).verify().ok

    check()


def test_verify_agrees_with_reference_on_random_corruptions():
    hyp, st, settings = hypothesis_or_skip()

    @settings
    @hyp.given(builtin_strategy(st), st.sampled_from(SLOTS), st.booleans())
    def check(scheme, slot, mirror):
        G, rng = scheme
        H = corrupted(G, slot, rng, mirror)
        assert outcome(H.verify()) == outcome(_reference_verify(H))

    check()


# ----------------------------------------------------------------------
# points against the table and eigenspace code it replaced


def _reference_point_group_from_set(GR, vecs):
    """point_group_from_set as it was: every product sums Delta(e_i) u_j v_k
    over the whole of dense_terms(GR, i), for every i."""
    R = GR.ring
    pts = sorted({tuple(v) for v in vecs}, key=lambda t: tuple(R.sort_key(x) for x in t))
    index = {p: i for i, p in enumerate(pts)}
    table = []
    for u in pts:
        row = []
        for v in pts:
            w = []
            for i in range(GR.rank):
                acc = R.zero
                for j, k, c in dense_terms(GR, i):
                    acc = R.add(acc, R.mul(c, R.mul(u[j], v[k])))
                w.append(acc)
            if tuple(w) not in index:
                raise HopfError("point set is not closed under the group law")
            row.append(index[tuple(w)])
        table.append(row)
    return hopf.PointGroup(R, pts, table, index[tuple(GR.counit)])


def _reference_minpoly_of_vector(GR, e, c_vec):
    """_minpoly_of_vector as it was: every Krylov step solves for the new
    power against all earlier ones in a fresh elimination."""
    R = GR.ring
    powers = [e]
    while True:
        nxt = dense_mul(GR, powers[-1], c_vec)
        x = coeffs(R, powers, nxt)
        if x is not None:
            return [R.neg(a) for a in x] + [R.one], powers
        powers.append(nxt)


def _reference_identity_idempotent(G):
    """identity_idempotent as it was: a minimal polynomial at every step,
    also where e_idx acts on e by a scalar."""
    R, m = G.ring, G.rank
    e = dense_view(G).unit
    for idx, x in enumerate(identity_matrix(R, m)):
        c = dense_mul(G, e, x)
        minpoly, powers = _reference_minpoly_of_vector(G, e, c)
        e = dense(R, m, hopf._eigen_idempotent(G, minpoly, [nonzeros(R, v) for v in powers],
                                                G.counit[idx]))
    return e


def _reference_split_unit(R, sub_rows, comp_rows, e):
    """Write e = f + g with f in span(sub_rows), g in span(comp_rows);
    return f."""
    stacked = list(sub_rows) + list(comp_rows)
    x = coeffs(R, stacked, e)
    if x is None:
        return None
    f = [R.zero] * len(e)
    for t, row in zip(x[: len(sub_rows)], sub_rows):
        f = vec_add(R, f, vec_scale(R, t, row))
    return f


def reference_is_hom(G, chi):
    """Is chi an algebra map?  chi(1) = 1 and chi(e_i e_j) = chi_i chi_j
    for every i <= j, with e_i e_j made by dense_mul: the all-pairs check,
    which reads neither hom_pairs nor point_is_hom."""
    R, m = G.ring, G.rank
    E = identity_matrix(R, m)
    return R.dot(dense_view(G).unit, chi) == R.one and all(
        R.dot(dense_mul(G, E[i], E[j]), chi) == R.mul(chi[i], chi[j])
        for i in range(m) for j in range(i, m))


def _reference_characters(GR):
    """characters as it was: (L_c - lam) is applied dim(factor) times."""
    R = GR.ring
    if not R.is_field:
        raise HopfError("characters need a field")
    m = GR.rank
    results = []
    E = identity_matrix(R, m)
    stack = [(E, dense_view(GR).unit, 0, [None] * m)]
    while stack:
        basis, e, idx, chi = stack.pop()
        if idx == m:
            if all(x is not None for x in chi) and reference_is_hom(GR, chi):
                results.append(tuple(chi))
            continue
        c = dense_mul(GR, e, E[idx])
        scal = coeffs(R, [e], c)
        if scal is not None:
            chi2 = list(chi)
            chi2[idx] = scal[0]
            stack.append((basis, e, idx + 1, chi2))
            continue
        for lam in R.roots(_reference_minpoly_of_vector(GR, e, c)[0]):
            rows = basis
            for _ in range(len(basis)):
                rows = [vec_sub(R, dense_mul(GR, b, c), vec_scale(R, lam, b))
                        for b in rows]
            coeff_kernel = kernel_rows(R, rows)
            if not coeff_kernel:
                continue
            sub_basis = span_rows(R, [
                [R.dot(t, col) for col in zip(*basis)] for t in coeff_kernel])
            image_rows = span_rows(R, rows)
            f = _reference_split_unit(R, sub_basis, image_rows, e)
            if f is None:
                continue
            chi2 = list(chi)
            chi2[idx] = lam
            stack.append((sub_basis, f, idx + 1, chi2))
    return sorted(set(results), key=lambda t: tuple(R.sort_key(x) for x in t))


def test_lift_idempotent_removes_a_deep_nilpotent():
    # mu_10 over GF(5) is k[x]/((x-1)^5 (x+1)^5).  n = e0 (x - 1) has
    # n^4 != 0, so one Newton step, which leaves -3n^2 - 2n^3, is not enough
    G = mu(F5, 10)
    e0 = hopf.identity_idempotent(G)
    assert G.mul_vec(e0, e0) == e0 != G.unit
    n = G.mul_vec(e0, nonzeros(F5, vec_sub(F5, identity_matrix(F5, 10)[1], dense_view(G).unit)))
    assert hopf.lift_idempotent(G, nonzeros(F5, vec_add(F5, dense(F5, 10, e0),
                                                        dense(F5, 10, n)))) == e0


def test_characters_read_values_off_one_dimensional_factors(monkeypatch):
    # mu_3 over GF(7) in the basis 1, f, g of the idempotents that take the
    # values 1, 1, 0 and 0, 1, 0 at the points 1, 2, 4, which no basis vector
    # generates (x = 4 + 4f + g, x^2 = 2 + 6f + 3g).  The presentation's
    # search stops at f^2 = f and g^2 = g, with no minimal polynomial; f is
    # idempotent, so the walk splits off the line 1 - f of the point 4 and
    # the plane f of 1 and 2 with no minimal polynomial either.  On the line
    # g (1 - f) = 0 (1 - f), a ratio; on the plane g f = g, idempotent again.
    # In the basis 1, 2f, 3g no basis vector is idempotent: the walk reads
    # the minimal polynomial of 2f on 1 that the presentation's search made
    # and kept, and makes that of 3g on the plane 4 (2f)
    G = rebased(mu(F7, 3), [[1, 0, 0], [4, 4, 1], [2, 6, 3]])
    scaled = rebased(G, [[1, 0, 0], [0, 4, 0], [0, 0, 5]])
    calls, ratios = [], []
    real, real_scalar = hopf._minpoly_of_vector, hopf._scalar_on
    monkeypatch.setattr(hopf, "_minpoly_of_vector",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(hopf, "_scalar_on",
                        lambda *args: ratios.append(real_scalar(*args)) or ratios[-1])
    assert hopf.characters(G) == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert G.presentation.index is None
    assert len(calls) == 0 and 0 in ratios
    assert hopf.characters(fresh(G)) == _reference_characters(G)
    assert scaled.presentation.index is None
    calls.clear()
    assert hopf.characters(scaled) == [(1, 0, 0), (1, 2, 0), (1, 2, 3)]
    assert [(e, c) for _, e, c in calls] == [([(1, 4)], [(2, 1)])]
    assert hopf.characters(fresh(scaled)) == _reference_characters(scaled)


def _mu_characters(R, n):
    """The characters of mu_n over a prime field or Q, x -> zeta for each
    zeta with zeta^n = 1, read at x^0, ..., x^(n-1)."""
    els = R.elements() if R.is_finite else [R.one, R.neg(R.one)]
    roots = [z for z in els if R.pow(z, n) == R.one]
    return sorted(tuple(R.pow(z, i) for i in range(n)) for z in roots)


def _mu_identity_idempotent(R, n):
    """e0 of mu_n over a prime field or Q: with n = p^a n' and p the
    characteristic (a = 0 over Q), y = x^(p^a) has y - 1 = (x - 1)^(p^a),
    so (1/n') sum_j y^j is 1 on the local factor at x = 1 and, as
    (y - 1) sum_j y^j = x^n - 1, zero on the others."""
    p, q = R.char(), 1
    while p and n % (q * p) == 0:
        q *= p
    e0 = [R.zero] * n
    for j in range(n // q):
        e0[j * q] = R.inv(R.from_int(n // q))
    return e0


def test_mu_n_reads_characters_and_e0_off_its_presentation(monkeypatch):
    """mu_n is k[x]/(x^n - 1) in its natural basis, so x generates it: one
    minimal polynomial and no walk give the characters and e0, which equal
    the closed forms for every n <= 105 over GF(2), GF(3) and GF(7), and
    over Q for the square-free n <= 30 and the orders 42, 70 and 105; and
    the all-pairs check and the walk references on the smaller n."""
    minpolys, walks = [], []
    real_minpoly, real_walk = hopf._minpoly_of_vector, hopf._splittings
    monkeypatch.setattr(hopf, "_minpoly_of_vector",
                        lambda *args: minpolys.append(1) or real_minpoly(*args))
    monkeypatch.setattr(hopf, "_splittings",
                        lambda *args: walks.append(1) or real_walk(*args))
    for name in ("GF(2)", "GF(3)", "GF(7)", "Q"):
        R = parse_ring(name)
        for n in range(2, 106):
            if not R.is_finite and (n > 30 and n not in (42, 70, 105) or
                                    any(n % (p * p) == 0 for p in prime_factors(n))):
                continue
            G = mu(R, n)
            minpolys.clear()
            chars, e0 = hopf.characters(G), hopf.identity_idempotent(G)
            assert (len(minpolys), walks) == (1, []), (name, n)
            assert G.presentation.index == 1
            assert chars == _mu_characters(R, n), (name, n)
            if n <= 30:  # the all-pairs reference takes n^3 / 2 steps a character
                assert all(reference_is_hom(G, chi) for chi in chars), (name, n)
            assert e0 == nonzeros(R, _mu_identity_idempotent(R, n)), (name, n)
            if n <= 12 or n in (15, 21, 30) and R.is_finite:
                assert chars == _reference_characters(G), (name, n)
                assert e0 == nonzeros(R, _reference_identity_idempotent(G)), (name, n)


def test_presented_characters_and_e0_match_the_walk_on_the_corpus():
    """On every field base of the reference corpus, each scheme that
    verifies gives the walk references' characters and e0, through its
    presentation where one basis vector generates and through the walk
    elsewhere; each character is an algebra map.  (The corrupted schemes
    that fail verify have no eigen-decomposition to agree on: there even
    the walk and its references part.)"""
    paths = set()
    for label, G in reference_corpus():
        if not G.ring.is_field or not G.verify().ok:
            continue
        H = fresh(G)
        chars = hopf.characters(H)
        assert chars == _reference_characters(G), label
        assert all(reference_is_hom(H, chi) for chi in chars), label
        assert hopf.identity_idempotent(H) == \
            nonzeros(G.ring, _reference_identity_idempotent(G)), label
        paths.add(H.presentation.index is not None)
    assert paths == {True, False}


def test_presented_characters_match_the_walk_in_random_bases():
    """mu_n or Z/n over a finite field, in a seeded unitriangular basis:
    characters and e0 equal the walk references, whichever path the
    presentation picks."""
    hyp, st, settings = hypothesis_or_skip()
    fields = [parse_ring(name) for name in ("GF(2)", "GF(3)", "GF(5)", "GF(7)",
                                            "GF(2^2;x^2+x+1)", "GF(3^2;x^2+1)")]
    paths = set()

    @settings
    @hyp.given(st.sampled_from([mu, constant_cyclic]), st.integers(1, 7),
               st.sampled_from(fields), st.integers(0, 2 ** 32))
    def check(build, n, R, seed):
        G = rebased(build(R, n), unitriangular(R, n, random.Random(seed)))
        assert hopf.characters(G) == _reference_characters(G)
        assert hopf.identity_idempotent(G) == nonzeros(R, _reference_identity_idempotent(G))
        paths.add(G.presentation.index is not None)

    check()
    assert paths == {True, False}


def permuted(G, rng):
    """G after a seeded unitriangular change of basis and a shuffle of the
    new basis vectors, so the unit and a generating basis vector, if any,
    can land at any index."""
    R, m = G.ring, G.rank
    sigma = list(range(m))
    rng.shuffle(sigma)
    shuffle = [[R.one if d == sigma[c] else R.zero for d in range(m)] for c in range(m)]
    return rebased(G, mat_mul(R, unitriangular(R, m, rng), shuffle))


def test_hom_pairs_decide_characters_as_all_pairs_do(monkeypatch):
    """On the builtins over each field of RINGS, in the natural basis and
    in a unitriangular, permuted one, point_is_hom, which reads only the
    hom_pairs, agrees with the all-pairs reference on every character and
    on each character with one coordinate moved.  For a candidate v it
    reads the m pairs (i, s) where the presentation has an index s, else
    the pairs i <= j inside supp v and the pairs whose product e_i e_j
    meets supp v (read off the dense tables here): at most |supp v| m
    plus the pairs into supp v."""
    hyp, st, settings = hypothesis_or_skip()
    schemes = [G for R in RINGS if R.is_field for G in builtins_over(R)]
    indices = set()
    read = []
    real = GroupScheme.hom_pairs
    monkeypatch.setattr(GroupScheme, "hom_pairs",
                        lambda self, support, fiber=None, tangent=False: read.append(
                            (self, list(support), tangent,
                             out := real(self, support, fiber, tangent))) or out)

    @settings
    @hyp.given(st.sampled_from(schemes), st.booleans(), st.integers(0, 2 ** 32))
    def check(G, natural, seed):
        H = G if natural else permuted(G, random.Random(seed))
        R, m, s = H.ring, H.rank, H.presentation.index
        E = identity_matrix(R, m)
        into = [set() for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                for x, c in enumerate(dense_mul(H, E[i], E[j])):
                    if R.nonzero(c):
                        into[x].add((i, j))
        indices.add(s)
        read.clear()
        candidates = [list(chi) for chi in hopf.characters(H)]
        for chi in candidates:
            assert reference_is_hom(H, chi)
            for x in range(m):
                moved = list(chi)
                moved[x] = R.add(moved[x], R.one)
                assert hopf.point_is_hom(H, moved) == reference_is_hom(H, moved), (chi, x)
        assert read
        for scheme, support, tangent, pairs in read:
            assert scheme is H and not tangent
            if s is not None:
                assert pairs == [(i, s) for i in range(m)]
                continue
            reach = set().union(*(into[x] for x in support))
            assert len(pairs) <= m * len(support) + len(reach), (support, pairs)
            assert pairs == sorted(reach.union(
                itertools.combinations_with_replacement(support, 2))), support

    check()
    assert None in indices and len(indices - {None}) >= 2, indices


def test_point_is_hom_agrees_with_all_pairs_on_random_vectors():
    """On the builtins with no generating basis vector in a permuted basis,
    over fields, Dual(k) and Z/p^e, point_is_hom, which reads the pairs
    that reach supp v, equals the all-pairs reference on drawn vectors: a
    point or a random vector, with up to three coordinates redrawn, and
    then, if drawn so, set at one unit coordinate of 1 to make v(1) = 1,
    so that the pairs decide."""
    hyp, st, settings = hypothesis_or_skip()
    rng = random.Random(20391)
    schemes = []
    for name in ("GF(2)", "GF(3)", "GF(2^2;x^2+x+1)", "Dual(GF(2))", "Dual(GF(3))",
                 "Z/4", "Z/8", "Z/9"):
        R = parse_ring(name)
        for G in builtins_over(R):
            H = permuted(G, rng)
            if H.presentation.index is None:
                schemes.append((H, list(R.elements()), points(H, R).elements))
    assert len(schemes) >= 20, len(schemes)
    outcomes = set()

    @hyp.settings(settings, max_examples=300)
    @hyp.given(st.sampled_from(schemes), st.data())
    def check(case, data):
        H, elements, pts = case
        R, m, unit = H.ring, H.rank, dense_view(H).unit
        element = st.sampled_from(elements)
        v = list(data.draw(st.one_of(st.sampled_from(pts),
                                     st.lists(element, min_size=m, max_size=m))))
        for x, c in data.draw(st.lists(st.tuples(st.integers(0, m - 1), element), max_size=3)):
            v[x] = c
        if data.draw(st.booleans()):
            x = next(x for x, u in enumerate(unit) if R.is_unit(u))
            rest = R.sub(R.one, R.dot(unit, v[:x] + [R.zero] + v[x + 1:]))
            v[x] = R.mul(rest, R.inv(unit[x]))
            assert R.dot(unit, v) == R.one
        expected = reference_is_hom(H, v)
        assert hopf.point_is_hom(H, v) == expected, (H.ring.name(), v)
        outcomes.add((expected, R.dot(unit, v) == R.one))

    check()
    assert outcomes == {(True, True), (False, True), (False, False)}, outcomes


FIELD_BASES = ["GF(2)", "GF(3)", "GF(5)", "GF(2^2;x^2+x+1)", "GF(2^3;x^3+x^2+1)",
               "GF(3^2;x^2+1)", "Q"]


def test_minpoly_and_identity_idempotent_match_reference(monkeypatch):
    """On every field base of the corpora, each POINT_SPECS builtin in its
    natural basis and two seeded unitriangular ones: the minimal polynomial
    and powers of each e_i on the unit and on e0, and e0 itself."""
    calls = []
    real = linalg.echelon
    monkeypatch.setattr(linalg, "echelon",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    rng = random.Random(20169)
    checked = 0
    for name in FIELD_BASES:
        R = parse_ring(name)
        for spec in POINT_SPECS:
            for G in built(spec, R):
                for H in (G, rebased(G, unitriangular(R, G.rank, rng)),
                          rebased(G, unitriangular(R, G.rank, rng))):
                    e0 = _reference_identity_idempotent(H)
                    cases = [(e, dense_mul(H, e, x)) for e in (dense_view(H).unit, e0)
                             for x in identity_matrix(R, H.rank)]
                    expected = [(minpoly, [nonzeros(R, v) for v in powers]) for minpoly, powers
                                in (_reference_minpoly_of_vector(H, e, c) for e, c in cases)]
                    cases = [(nonzeros(R, e), nonzeros(R, c)) for e, c in cases]
                    calls.clear()
                    assert hopf.identity_idempotent(H) == nonzeros(R, e0), (spec, name)
                    assert [hopf._minpoly_of_vector(H, e, c)
                            for e, c in cases] == expected, (spec, name)
                    # each power is one reduction against the rows so far
                    assert not calls, (spec, name)
                    checked += 1
    assert checked >= 200, checked


def _reference_identity_core(G):
    """GroupScheme.identity_core as it was: e0 over a field, and over
    Dual(k) the fiber's e0 put in along k -> k[eps] and lifted.  Over
    Z/p^e it is the stabilized power of the augmentation ideal J, reached
    by squaring: J meets the local factor at the identity in a nilpotent
    ideal and holds the other factors."""
    R, unit, basis = G.ring, dense_view(G).unit, identity_matrix(G.ring, G.rank)
    if isinstance(R, IntegersMod) and len(prime_factors(R.n)) == 1 and not R.is_field:
        J = span_rows(R, [vec_sub(R, basis[i], vec_scale(R, c, unit))
                          for i, c in enumerate(G.counit)])
        while True:
            square = span_rows(R, [dense_mul(G, v, w) for v in J for w in J])
            if square == J:
                return linalg.canonical_span(R, sparse_rows(R, J))
            J = square
    if R.is_field:
        e0 = _reference_identity_idempotent(G)
    elif isinstance(R, DualNumbers):
        fiber = G.base_change(R.base)
        e0 = dense(R, G.rank, hopf.lift_idempotent(G, nonzeros(R, [
            (a, R.base.zero) for a in _reference_identity_idempotent(fiber)])))
    else:
        raise HopfError("identity component needs a field or Artin local base, "
                        f"not {R.name()}")
    u = vec_sub(R, unit, e0)
    return linalg.canonical_span(R, sparse_rows(R, [dense_mul(G, u, x) for x in basis]))


def test_identity_core_matches_reference():
    """Over fields (Z/p too), dual numbers and Z/p^e the identity core
    equals the reference's, also in a seeded basis with eps-parts, where
    the fiber's e0 needs the Newton steps; over Zloc(2) and Z/6, which
    are not Artin local, both raise the same text."""
    rng = random.Random(20173)
    raised = set()
    for name in ["GF(2)", "GF(3)", "GF(5)", "GF(2^2;x^2+x+1)", "Z/3", "Z/5",
                 "Dual(GF(2))", "Dual(GF(3))", "Dual(GF(2^2;x^2+x+1))",
                 "Dual(Q)", "Dual(Z/3)", "Z/4", "Z/8", "Z/9", "Z/27", "Zloc(2)",
                 "Z/6"]:
        R = parse_ring(name)
        for G in [H for B in builtins_over(R)
                  for H in (B, rebased(B, unitriangular(R, B.rank, rng, eps=True)))]:
            try:
                want = _reference_identity_core(G)
            except HopfError as exc:
                want = str(exc)
                raised.add(name)
            try:
                got = G.identity_core
            except HopfError as exc:
                got = str(exc)
            assert got == want, (name, G.name)
    assert raised == {"Zloc(2)", "Z/6"}


def _reference_ring_family(base):
    """test_ring_family as it was: the quotients and dual numbers are
    chosen by the class of the base."""
    if isinstance(base, RationalField):
        return [QQ]
    fam = [k for k in _small_fields() if find_hom(base, k) is not None]
    if isinstance(base, IntegersMod):
        for p in prime_factors(base.n):
            d = p * p
            while base.n % d == 0 and d <= MAX_FIELD_SIZE:
                fam.append(IntegersMod(d))
                d *= p
        if base.n not in [r.size() for r in fam] and base.n <= MAX_FIELD_SIZE:
            if not base.is_field:
                fam.append(IntegersMod(base.n))
    if isinstance(base, LocalizedIntegers):
        d = base.p * base.p
        while d <= MAX_FIELD_SIZE:
            fam.append(IntegersMod(d))
            d *= base.p
    residue_fields = [r for r in fam if r.is_field and r.size() ** 2 <= MAX_FIELD_SIZE]
    for k in residue_fields:
        fam.append(DualNumbers(k))
    if isinstance(base, DualNumbers):
        if base.is_finite and base.size() <= MAX_FIELD_SIZE:
            fam.append(base)
    fam = [r for r in fam if find_hom(base, r) is not None]
    seen = []
    for r in sorted(fam, key=lambda r: (r.size(), r.name())):
        if r not in seen:
            seen.append(r)
    return seen


FAMILY_BASES = ["GF(7)", "Zloc(5)", "Z/3", "Z/4", "Z/35", "Dual(GF(5))", "Dual(Q)",
                "Dual(Z/3)", "Z/12", "Z/16", "Z/30", "Dual(GF(2^2;x^2+x+1))"]


def test_ring_family_matches_reference():
    for name in REFERENCE_BASES + FAMILY_BASES:
        R = parse_ring(name)
        assert ring_family(R) == _reference_ring_family(R), name


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_is_module_iso_matches_the_inverse(R):
    rng = random.Random(41)
    G = mu(R, 3)
    mats = []
    for _ in range(6):
        M = rand_matrix(R, rng, 3, 3)
        U = unitriangular(R, 3, rng)
        # a unitriangular factor keeps M invertible or singular as it was
        mats += [M, U, mat_mul(R, U, M),
                 M[:2] + [vec_add(R, M[0], M[1])]]  # singular
    kinds = set()
    for M in mats:
        invertible = mat_inverse(R, transpose(M)) is not None
        assert GroupSchemeHom(G, G, [nonzeros(R, v) for v in M]).is_module_iso() == \
            invertible, M
        kinds.add(invertible)
    assert kinds == {True, False}


def test_point_group_without_the_counit_is_a_hopf_error():
    with pytest.raises(HopfError, match="identity"):
        hopf.point_group_from_set(mu(F5, 3), [])


def test_point_index_reads_the_kept_map_and_refuses_other_points():
    """PointGroup.index finds each point, given as a tuple or a list, by
    the map kept with the group, on the library's groups and the
    oracle's, and raises ValueError for a point outside the group."""
    G = mu(F5, 4)
    for P in (points(G, F5), enumerate_points(G, F5)):
        assert [P.index(list(p)) for p in P.elements] == list(range(P.order))
        P.elements = None  # an index that scanned the list would fail now
        assert P.index(tuple(G.counit)) == P.identity_index
        with pytest.raises(ValueError):
            P.index([F5.zero] * G.rank)


def point_outcome(G, T):
    """(elements, table, identity) of points(G, T), or the error it raises."""
    try:
        P = points(G, T)
    except (HopfError, RingError) as exc:
        return type(exc).__name__, str(exc)
    return P.elements, P.table, P.identity_index


def fresh(G):
    """A copy of G that keeps nothing made from G: no base change, no
    characters."""
    return GroupScheme(G.ring, G.rank, G.sparse, G.unit, G.counit, G.name)


def reference_point_outcome(G, T, monkeypatch):
    # on a fresh copy, as G keeps its base changes and their characters
    with monkeypatch.context() as patched:
        patched.setattr(hopf, "characters", _reference_characters)
        patched.setattr(hopf, "point_group_from_set",
                        _reference_point_group_from_set)
        return point_outcome(fresh(G), T)


# Z/8 and Z/27 take two lift steps, and Z/12 has a Z/4 part in its CRT
POINT_RINGS = ["GF(2)", "GF(3)", "GF(5)", "GF(2^2;x^2+x+1)", "GF(2^3;x^3+x^2+1)",
               "GF(3^2;x^2+1)", "Q", "Dual(GF(2))", "Dual(GF(3))", "Z/4", "Z/9",
               "Z/6", "Z/8", "Z/27", "Z/12"]
POINT_SPECS = ["mu:1", "mu:2", "mu:3", "mu:4", "mu:5", "mu:6", "mu:7",
               "const:Z3", "const:Z4", "const:S3", "alpha:2", "alpha:3",
               "ot2:2,-1", "ot2:0,1", "sdp:mu:3,Z2,inv"]

PRIME_SUBFIELD = {"GF(2^2;x^2+x+1)": ["GF(2)"], "GF(2^3;x^3+x^2+1)": ["GF(2)"],
                  "GF(3^2;x^2+1)": ["GF(3)"], "Dual(GF(2))": ["GF(2)"],
                  "Dual(GF(3))": ["GF(3)"]}


def point_corpus():
    """(label, scheme, point ring): every POINT_SPECS builtin over each point
    ring and, for the extensions and dual numbers, over GF(p), in both bases.
    alpha_p and mu_p in characteristic p, and the Dual fibers, have
    generalized eigenspaces that (L_c - lam) needs more than one step for."""
    rng = random.Random(20162)
    for name in POINT_RINGS:
        T = parse_ring(name)
        for S in [T] + [parse_ring(s) for s in PRIME_SUBFIELD.get(name, ())]:
            for spec in POINT_SPECS:
                for G in built(spec, S):
                    dense = rebased(G, unitriangular(S, G.rank, rng))
                    for basis, H in (("natural", G), ("dense", dense)):
                        yield f"{spec} over {S.name()} at {name}, {basis} basis", H, T


def test_points_match_reference_on_every_ring(monkeypatch):
    for label, G, T in point_corpus():
        assert point_outcome(G, T) == reference_point_outcome(G, T, monkeypatch), label


def test_point_table_uses_a_tenth_of_the_reference_multiplications(monkeypatch):
    # the 15 points of const:Z15 are the indicator vectors of the group
    # elements: the reference sums all 15 terms of Delta(e_i) for each i and
    # pair, 101,250 products.  The table is filled from generators, each
    # contracted once and multiplied by every point: one generator of Z15
    # makes 30 products, and the two of mu:15 (whose points have 15
    # nonzeros) make 480
    R = parse_ring("GF(2^4;x^4+x+1)")
    for G, reference_count, bound in ((constant_cyclic(R, 15), 101250, 30),
                                      (mu(R, 15), 6750, 480)):
        vecs = hopf.characters(G)
        counts, tables = [], []
        for build in (_reference_point_group_from_set, hopf.point_group_from_set):
            calls = [0]

            def counting(a, b, _mul=R.mul, calls=calls):
                calls[0] += 1
                return _mul(a, b)

            monkeypatch.setattr(R, "mul", counting)
            P = build(G, vecs)
            monkeypatch.undo()
            counts.append(calls[0])
            tables.append((P.elements, P.table, P.identity_index))
        reference, generated = counts
        assert tables[0] == tables[1], G.name
        assert reference == reference_count, (G.name, counts)
        assert generated <= bound and generated * 10 <= reference, (G.name, counts)


def test_point_set_that_is_not_closed_is_a_hopf_error():
    """mu_3 over GF(7) with the counit and one primitive cube root of
    unity, but not its square: the generator's products leave the set."""
    G = mu(F7, 3)
    vecs = hopf.characters(G)
    assert len(vecs) == 3
    ident = tuple(G.counit)
    root = next(v for v in vecs if v != ident)
    with pytest.raises(HopfError, match="not closed under the group law"):
        hopf.point_group_from_set(G, [ident, root])
    assert hopf.point_group_from_set(G, vecs).order == 3


def test_points_match_oracle():
    hyp, st, settings = hypothesis_or_skip()
    rings = [parse_ring(name) for name in POINT_RINGS if name != "Q"]
    pairs = [(R, T) for R in rings for T in rings if find_hom(R, T)]
    schemes = {R.name(): [G for spec in POINT_SPECS
                          for G in built(spec, R)] for R in rings}

    @settings
    @hyp.given(st.sampled_from(pairs), st.data(), st.integers(0, 2 ** 32))
    def check(pair, data, seed):
        R, T = pair
        G = data.draw(st.sampled_from(schemes[R.name()]))
        H = rebased(G, unitriangular(R, G.rank, random.Random(seed), eps=True))
        try:
            expected = enumerate_points(H, T, budget=20000)
        except BudgetExceeded:
            return
        P = points(H, T)
        assert (P.elements, P.table, P.identity_index) == (
            expected.elements, expected.table, expected.identity_index)

    check()


def test_points_over_local_bases_match_oracle():
    """Schemes over Zloc(2) and Zloc(3) to every ring of their test-ring
    families: GF(p^k), Z/p^e with up to four lift steps, and Dual(GF(q))."""
    checked = 0
    for base in ("Zloc(2)", "Zloc(3)"):
        R = parse_ring(base)
        for spec in POINT_SPECS:
            for G in built(spec, R):
                for T in ring_family(R):
                    try:
                        expected = enumerate_points(G, T, budget=20000)
                    except BudgetExceeded:
                        continue
                    P = points(G, T)
                    assert (P.elements, P.table, P.identity_index) == (
                        expected.elements, expected.table,
                        expected.identity_index), (spec, base, T.name())
                    checked += 1
    assert checked >= 150, checked


def test_rings_over_one_residue_field_share_its_characters(monkeypatch):
    """GF(p), Dual(GF(p)), Z/p^2 and Z/p^3 read the characters of one kept
    fiber G over GF(p); base changes are kept per ring, and G over its own
    ring is G."""
    calls = []
    real = hopf.characters
    monkeypatch.setattr(hopf, "characters", lambda G: calls.append(G) or real(G))
    for base, p in (("Zloc(2)", 2), ("Zloc(3)", 3)):
        R = parse_ring(base)
        for G in (mu(R, 6), constant(R, s3_table())):
            calls.clear()
            for T in ("GF(%d)" % p, "Dual(GF(%d))" % p, "Z/%d" % p ** 2, "Z/%d" % p ** 3):
                points(G, parse_ring(T))
            assert calls == [G.base_change(parse_ring(f"GF({p})"))], (G.name, base)
            for T in ring_family(R):
                assert G.base_change(T) is G.base_change(T), T.name()
            assert G.base_change(R) is G
    G = mu(parse_ring("Z/12"), 6)
    calls.clear()
    points(G, G.ring)
    points(G, parse_ring("Z/4"))
    points(G, parse_ring("GF(3)"))
    assert sorted(H.ring.name() for H in calls) == ["GF(2)", "GF(3)"]


def carried_cases():
    """(label, scheme, rings, fields): points over each ring, in order,
    against the oracle, with `characters` run on the fibers over fields
    alone.  The constant groups have all their characters over the
    residue field, so its extensions carry them up.  mu_7 has 1 of its 7
    over GF(2), so GF(8) walks its own.  const:Z6 over GF(4), in a basis
    with entries outside GF(2), is carried to GF(16) along the map its
    base change takes, also from Dual(GF(4)) through its fiber over
    GF(4).  ot2(-2,1) x Z/3 over Zloc(2), with 3 of its 6 characters over
    GF(2), has e_3^2 = -2 e_3, zero over GF(2) but not over Z/8, which has
    12 points."""
    F2, F4 = parse_ring("GF(2)"), parse_ring("GF(2^2;x^2+x+1)")
    F8, F16 = parse_ring("GF(2^3;x^3+x^2+1)"), parse_ring("GF(2^4;x^4+x^3+1)")
    ZL3 = parse_ring("Zloc(3)")
    for G in (constant_cyclic(F2, 6), constant(F2, s3_table())):
        yield f"{G.name} over GF(2)", G, ring_family(F2), [F2]
    for G in (constant_cyclic(ZL3, 6), constant(ZL3, s3_table())):
        yield f"{G.name} over Zloc(3)", G, ring_family(ZL3), [parse_ring("GF(3)")]
    yield "mu_7 over GF(2)", mu(F2, 7), [F2, F8], [F2, F8]
    rng, x = random.Random(4), F4.parse("x")
    Q = unitriangular(F4, 6, rng)
    Q[0][5], Q[2][3] = x, F4.add(x, F4.one)
    G = rebased(constant_cyclic(F4, 6), Q)
    yield "const:Z6 rebased over GF(4)", G, [F4, F16, DualNumbers(F4)], [F4]
    D = G.base_change(DualNumbers(F4))
    yield "const:Z6 rebased over Dual(GF(4))", D, [F4, D.ring, F16], [F4]
    ot2 = direct_product(tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one), constant_cyclic(ZL2, 3))
    yield ("ot2(-2,1) x Z/3 over Zloc(2)", ot2, ring_family(ZL2),
           [T for T in ring_family(ZL2) if T.is_field])


def test_carried_characters_give_the_oracle_points(monkeypatch):
    walked = []
    real = hopf.characters
    monkeypatch.setattr(hopf, "characters", lambda G: walked.append(G.ring) or real(G))
    orders = {}
    for label, G, rings, fields in carried_cases():
        walked.clear()
        for T in rings:
            P = points(G, T)
            expected = enumerate_points(G, T, budget=50000)
            assert (P.elements, P.table, P.identity_index) == (
                expected.elements, expected.table, expected.identity_index), (label, T.name())
            orders[label, T.name()] = P.order
        assert walked == fields, (label, walked)
    assert orders["mu_7 over GF(2)", "GF(2^3;x^3+x^2+1)"] == 7
    assert orders["const:Z6 rebased over Dual(GF(4))", "GF(2^4;x^4+x^3+1)"] == 6
    assert orders["ot2(-2,1) x Z/3 over Zloc(2)", "Z/8"] == 12


def test_dual_points_with_eps_parts_match_oracle():
    """Over Dual(k) in a basis with eps-parts, the structure constants
    have eps-parts, so lifting a character along eps needs the sign of the
    eps-part of its defect; in characteristic 2 a wrong sign goes unseen."""
    checked = 0
    rng = random.Random(12)
    for name in ("Dual(GF(2))", "Dual(GF(3))", "Dual(GF(5))"):
        R = parse_ring(name)
        for spec in POINT_SPECS:
            for G in built(spec, R):
                H = rebased(G, unitriangular(R, G.rank, rng, eps=True))
                try:
                    expected = enumerate_points(H, R, budget=20000)
                except BudgetExceeded:
                    continue
                P = points(H, R)
                assert (P.elements, P.table, P.identity_index) == (
                    expected.elements, expected.table, expected.identity_index), (spec, name)
                checked += 1
    assert checked >= 15, checked



# ----------------------------------------------------------------------
# square-and-multiply powers against the linear loops they replaced


def _reference_power_vec(G, v, n):
    out = dense_view(G).unit
    for _ in range(n):
        out = dense_mul(G, out, v)
    return out


def _reference_power_map_alg(G, n):
    """n - 1 convolutions with the identity, summed from the dense scans,
    as dense rows."""
    R = G.ring
    if n == 0:
        return [vec_scale(R, c, dense_view(G).unit) for c in G.counit]
    if n < 0:
        return [dense_antipode(G, v) for v in _reference_power_map_alg(G, -n)]
    ident = identity_matrix(R, G.rank)
    out = ident
    for _ in range(n - 1):
        prev, out = out, []
        for i in range(G.rank):
            acc = [R.zero] * G.rank
            for j, k, c in dense_terms(G, i):
                acc = vec_add(R, acc, vec_scale(R, c, dense_mul(G, prev[j], ident[k])))
            out.append(acc)
    return out


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_powers_match_the_linear_loops(R):
    rng = random.Random(31)
    # mu_4 in a dense basis, and S3, whose algebra is commutative but
    # whose convolution is not
    for G in (rebased(mu(R, 4), unitriangular(R, 4, rng)), constant(R, s3_table())):
        v = [rand_elt(R, rng) for _ in range(G.rank)]
        for n in (0, 1, 2, 3, 5, 15, -2):
            assert power_map_alg(G, n) == \
                [nonzeros(R, row) for row in _reference_power_map_alg(G, n)], n
            if n >= 0:
                assert G.power_vec(nonzeros(R, v), n) == \
                    nonzeros(R, _reference_power_vec(G, v, n)), n
            else:
                with pytest.raises(HopfError):
                    G.power_vec(nonzeros(R, v), n)


def test_power_map_makes_few_products_per_convolution_term(monkeypatch):
    """A convolution m o (f (x) g) o Delta reads the nonzeros of f, g and
    Delta, so on the sparse power maps of mu_105 and Z/30 it makes a few
    ring products per term of Delta, where a dense sum of each product
    makes m of them."""
    for G, n in ((mu(Q, 105), 7), (constant_cyclic(parse_ring("GF(31)"), 30), 5)):
        R, real_conv = G.ring, hopf.convolution
        products, convolutions = [], []
        monkeypatch.setattr(R, "mul", lambda a, b, mul=R.mul: products.append(1) or mul(a, b))
        monkeypatch.setattr(hopf, "convolution",
                            lambda *args: convolutions.append(1) or real_conv(*args))
        power_map_alg(G, n)
        monkeypatch.undo()
        terms = sum(map(len, G.sparse.comult))
        assert convolutions and len(products) <= 4 * len(convolutions) * terms, \
            (G.name, len(products), len(convolutions), terms)


def test_cartier_dual_of_the_dual_is_the_scheme():
    hyp, st, settings = hypothesis_or_skip()
    schemes = [G for name in REFERENCE_BASES for G in builtins_over(parse_ring(name))
               if G.is_commutative()]

    @settings
    @hyp.given(st.sampled_from(schemes), st.integers(0, 2 ** 32))
    def check(G, seed):
        H = rebased(G, unitriangular(G.ring, G.rank, random.Random(seed)))
        assert dense_lists(cartier_dual(cartier_dual(H))) == dense_lists(H)

    check()


# ----------------------------------------------------------------------
# the stored tables against the dense scans they replaced


VIEW_SPECS = ["mu:1", "mu:3", "mu:4", "const:Z3", "const:S3", "alpha:2",
              "alpha:3", "alpha:5", "ot2:2,-1", "ot2:0,1", "sdp:mu:3,Z2,inv"]


def view_cases(R, rng):
    """Each VIEW_SPECS builtin over R in its natural basis and in two seeded
    unitriangular ones, the second with eps-parts over Dual(k)."""
    for spec in VIEW_SPECS:
        for G in built(spec, R):
            yield spec, G
            yield spec, rebased(G, unitriangular(R, G.rank, rng))
            yield spec, rebased(G, unitriangular(R, G.rank, rng, eps=True))


def assert_canonical_tables(G, label):
    """G's tables and unit hold no zero (over Dual(k) the zero (0, 0) is
    truthy, so truth would keep it) and list each row in increasing index
    order: they are what the constructor makes of the dense lists derived
    from them."""
    nonzero = G.ring.nonzero

    def entries(v):
        return [(x, c) for x, c in enumerate(v) if nonzero(c)]

    m, D = G.rank, dense_view(G)
    assert G.sparse.mult == [[entries(v) for v in row] for row in D.mult], label
    assert G.sparse.comult == [dense_terms(G, i) for i in range(m)], label
    assert G.sparse.antipode == [entries(v) for v in D.antipode], label
    assert G.unit == entries(D.unit), label


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_sparse_view_matches_the_dense_tensors(R):
    """The builtins, built straight into tables, and the rebased schemes,
    converted from dense lists, keep canonical tables.  On the nonzeros of
    each vector, mul_vec, antipode_vec and power_vec(v, 3) give the
    nonzeros of what the dense scans gave (power_vec those of repeated
    dense_mul), in strictly increasing index order and without zeros, and
    comult_vec gives the nonzero (j, k, c) in strictly increasing (j, k)."""
    rng = random.Random(20170)
    checked = 0

    def assert_element(got, want, label):
        assert all(a[0] < b[0] for a, b in zip(got, got[1:])), label
        assert all(R.nonzero(c) for _, c in got), label
        assert got == nonzeros(R, want), label

    for spec, G in view_cases(R, rng):
        m = G.rank
        assert_canonical_tables(G, spec)
        vecs = identity_matrix(R, m) + [dense_view(G).unit, [R.zero] * m]
        vecs += [[rand_elt(R, rng) for _ in range(m)] for _ in range(3)]
        vecs += [[rand_elt(R, rng) if rng.random() < 0.3 else R.zero
                  for _ in range(m)] for _ in range(3)]
        for v in vecs:
            x = nonzeros(R, v)
            delta = G.comult_vec(x)
            want = sorted((j, k, c) for (j, k), c in dense_comult(G, v).items())
            assert delta == want, (spec, v)
            assert all(a[:2] < b[:2] for a, b in zip(delta, delta[1:])), (spec, v)
            assert all(R.nonzero(c) for _, _, c in delta), (spec, v)
            assert_element(G.antipode_vec(x), dense_antipode(G, v), (spec, v))
            assert_element(G.power_vec(x, 3), _reference_power_vec(G, v, 3), (spec, v))
            for w in vecs:
                assert_element(G.mul_vec(x, nonzeros(R, w)), dense_mul(G, v, w), (spec, v, w))
        checked += 1
    assert checked >= 15, checked


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_products_keep_canonical_tables(R):
    """Direct and semidirect products of schemes in unitriangular bases,
    where an index of Delta(e_i) meets several partners, build canonical
    tables."""
    rng = random.Random(20174)
    table = [[0, 1], [1, 0]]
    checked = 0
    for spec in ("mu:3", "const:Z3", "ot2:2,-1"):
        for G in built(spec, R):
            Q = rebased(G, unitriangular(R, G.rank, rng))
            H = rebased(tate_oort2(R, R.from_int(2), R.from_int(-1)),
                        unitriangular(R, 2, rng))
            assert_canonical_tables(direct_product(Q, H), spec)
            assert_canonical_tables(semidirect(Q, table, inversion_action(Q, table)), spec)
            checked += 1
    assert checked == 3, checked


# every ring of RINGS and the rings it maps to, among them the maps that
# send nonzero structure constants to zero: Zloc(p) -> GF(p), Dual(k) -> k
# and Z/p^e -> GF(p)
BASE_CHANGE_TARGETS = [*RINGS, *map(parse_ring, ["GF(2)", "GF(3)", "Z/4", "GF(5^2;x^2+2)"])]


def nnz(G):
    M, C, S = G.sparse
    return sum(len(v) for row in M for v in row) + sum(map(len, C)) + sum(map(len, S))


@pytest.mark.parametrize("R", RINGS, ids=lambda R: R.name())
def test_base_change_keeps_no_zero_and_maps_every_entry(R):
    """The base change maps the nonzeros only and drops those sent to zero;
    its dense lists are the entrywise image of the parent's."""
    rng = random.Random(20173)
    checked = dropped = 0
    for spec, G in view_cases(R, rng):
        for T in BASE_CHANGE_TARGETS:
            hom = find_hom(R, T)
            if hom is None:
                continue
            H = G.base_change(hom)
            label = (spec, T.name())
            assert H.ring == T and H.rank == G.rank and H.name == G.name, label
            assert_canonical_tables(H, label)
            f, D, DH = hom.fn, dense_view(G), dense_view(H)
            assert DH.mult == [[[f(c) for c in v] for v in row] for row in D.mult], label
            assert DH.comult == [[[f(c) for c in r] for r in mat] for mat in D.comult], label
            assert DH.antipode == [[f(c) for c in v] for v in D.antipode], label
            assert (DH.unit, DH.counit) == ([f(c) for c in D.unit],
                                            [f(c) for c in D.counit]), label
            dropped += nnz(G) - nnz(H)
            checked += 1
    assert checked >= 21, checked
    if R.name() in ("Zloc(2)", "Z/8", "Z/12", "Z/30", "Dual(GF(3))"):
        assert dropped > 0, "no map sent a nonzero entry to zero"


def test_tangent_rows_are_built_once_per_character(monkeypatch):
    """Over Z/p^e the lift takes e - 1 steps; each character's tangent rows
    are built once for all of them, and the points still match the
    oracle.  A split fiber (all `rank` characters) builds rows only for the
    characters whose lift k -> Z/p^e is not a point: none for const:Z3 over
    Z/4 in its natural basis, the root 2 of mu_2 over Z/9."""
    built_for = []
    real = hopf._tangent_rows
    monkeypatch.setattr(hopf, "_tangent_rows",
                        lambda k, fiber, chi: built_for.append(chi) or real(k, fiber, chi))
    rng = random.Random(20171)
    checked, kinds = 0, set()
    for name in ("Z/4", "Z/8", "Z/9", "Z/27"):
        T = parse_ring(name)
        k, lift, _ = T.residue_lifting()
        for spec in ("mu:2", "mu:3", "mu:4", "const:Z3", "ot2:2,-1"):
            for G in built(spec, T):
                for H in (G, rebased(G, unitriangular(T, G.rank, rng))):
                    try:
                        expected = enumerate_points(H, T, budget=20000)
                    except BudgetExceeded:
                        continue
                    built_for.clear()
                    P = points(H, T)
                    assert (P.elements, P.table, P.identity_index) == (
                        expected.elements, expected.table,
                        expected.identity_index), (spec, name)
                    assert len(built_for) == len(set(built_for)), (spec, name)
                    checked += 1
                    chars = H.base_change(k).field_characters
                    if len(chars) < H.rank:
                        assert built_for, (spec, name)
                        kinds.add("non-split")
                        continue
                    newton = [chi for chi in chars
                              if not reference_is_hom(H, [lift(c) for c in chi])]
                    assert built_for == newton, (spec, name)
                    kinds.add((spec, name, H is G, len(newton)))
    assert checked >= 20, checked
    assert {"non-split", ("const:Z3", "Z/4", True, 0), ("mu:2", "Z/9", True, 1)} <= kinds


LOCAL_RINGS = ["Dual(GF(2))", "Dual(GF(3))", "Dual(GF(2^2;x^2+x+1))", "Dual(GF(5))",
               "Z/4", "Z/8", "Z/9", "Z/25", "Z/27"]


def test_points_over_local_rings_match_the_oracle(monkeypatch):
    """Every builtin of REFERENCE_SPECS and POINT_SPECS over each ring of
    LOCAL_RINGS, in its natural basis and in a unitriangular one: points
    equals oracle.enumerate_points.  On a split fiber a character whose
    lift k -> R is a point keeps it with no tangent rows, and the others
    take the steps: 2 of mu_2 over Z/9 and Z/25, and 2 and 3 of mu_4 over
    Z/25."""
    built_for = []
    real = hopf._tangent_rows
    monkeypatch.setattr(hopf, "_tangent_rows",
                        lambda k, fiber, chi: built_for.append(chi) or real(k, fiber, chi))
    rng = random.Random(20393)
    checked, steps, held = 0, set(), set()
    for name in LOCAL_RINGS:
        T = parse_ring(name)
        k, lift, _ = T.residue_lifting()
        for spec in sorted(set(REFERENCE_SPECS + POINT_SPECS)):
            for G in built(spec, T):
                for H in (G, rebased(G, unitriangular(T, G.rank, rng, eps=True))):
                    expected = enumerate_points(H, T, budget=20000)
                    built_for.clear()
                    P = points(H, T)
                    assert (P.elements, P.table, P.identity_index) == (
                        expected.elements, expected.table,
                        expected.identity_index), (spec, name)
                    checked += 1
                    chars = H.base_change(k).field_characters
                    if len(chars) == H.rank:
                        lifts = [[lift(c) for c in chi] for chi in chars]
                        assert built_for == [chi for chi, phi in zip(chars, lifts)
                                             if phi not in map(list, P.elements)], (spec, name)
                        (steps if built_for else held).add((spec, name, H is G))
    assert checked >= 200, checked
    assert {("mu:2", "Z/9", True), ("mu:2", "Z/25", True), ("mu:4", "Z/25", True)} <= steps
    assert {("const:Z3", "Z/4", True), ("const:S3", "Dual(GF(5))", True)} <= held


def test_lifts_of_rank_6_and_up_match_the_oracle(monkeypatch):
    """Points of rank 6 to 15 schemes over Dual(GF(3)), Dual(GF(5)), Z/9,
    Z/25 and Z/27 equal the oracle's.  Among them mu:6 in the basis 1, x^2,
    x^3, x, x^4, x^5, whose first generating basis vector is e_3, and
    constant groups, which have no generating basis vector over GF(3) or
    GF(5).  Each tangent row ends before column m + 1 where the fiber has a
    presentation, and before m(m + 1)/2 + 1 where it has none; the rows
    are read on the fibers that do not split, as the split ones, the
    constant groups among them, need none in their natural basis."""
    widths = []
    real = hopf._tangent_rows

    def recorded(k, fiber, chi):
        rows = real(k, fiber, chi)
        widths.append((fiber.presentation.index, fiber.rank,
                       max((row[-1][0] for row in rows if row), default=-1)))
        return rows

    monkeypatch.setattr(hopf, "_tangent_rows", recorded)
    cases = []
    for name in ("Dual(GF(3))", "Dual(GF(5))", "Z/9", "Z/25", "Z/27"):
        T = parse_ring(name)
        G = mu(T, 6)
        shuffle = [[T.one if d == c else T.zero for d in range(6)] for c in (0, 3, 1, 2, 4, 5)]
        cases += [(G, T), (rebased(G, shuffle), T)]
        cases += [(H, T) for spec in ("mu:10", "mu:15", "const:Z6", "const:S3",
                                      "sdp:mu:3,Z2,inv") for H in built(spec, T)]
    indices = set()
    for H, T in cases:
        widths.clear()
        expected = enumerate_points(H, T, budget=20000)
        P = points(H, T)
        assert (P.elements, P.table, P.identity_index) == (
            expected.elements, expected.table, expected.identity_index), (H.name, T.name())
        fiber = H.base_change(T.residue_lifting()[0])
        if len(fiber.field_characters) == H.rank:
            continue
        assert widths, (H.name, T.name())
        for s, m, last in widths:
            assert last < (m + 1 if s is not None else m * (m + 1) // 2 + 1), (H.name, s)
            indices.add(s)
    assert {None, 1, 3} <= indices, indices


def test_rings_over_one_fiber_share_its_tangent_rows(monkeypatch, capsys):
    """theorem mu:15 over Zloc(3) lifts the points of three schemes (G, a
    kernel and a quotient, one character each over GF(3)) to Dual(GF(3)),
    Z/9 and Z/27: the tangent rows are kept on each fiber, so they are built
    3 times, once per (fiber, character), not once per ring."""
    built_for = []
    real = hopf._tangent_rows
    monkeypatch.setattr(hopf, "_tangent_rows",
                        lambda k, fiber, chi: built_for.append((id(fiber), chi))
                        or real(k, fiber, chi))
    assert cli.main(["theorem", "--builtin", "mu:15", "--base", "Zloc(3)"]) == 0
    assert len(built_for) == len(set(built_for)) == 3, built_for


def _reference_points(G, Rp, bound=10000):
    """points as it was made at every rank: the base change, the lifted
    characters of each local part, and the table from generators."""
    GR = G.base_change(Rp)
    parts = [(hopf._lifted_points(G, S, bound), embed) for S, embed in Rp.local_parts()]
    if functools.reduce(lambda size, part: size * len(part[0]), parts, 1) > bound:
        raise HopfError(f"more than {bound} points (the points bound)")
    if len(parts) == 1:
        return hopf.point_group_from_set(GR, parts[0][0])
    embedded = [[[embed(x) for x in v] for v in vecs] for vecs, embed in parts]
    return hopf.point_group_from_set(GR, [[functools.reduce(Rp.add, xs) for xs in zip(*combo)]
                                          for combo in itertools.product(*embedded)])


def bounded_outcome(points_of, G, T, bound):
    """(elements, table, identity) of points_of(G, T, bound), or the error."""
    try:
        P = points_of(G, T, bound)
    except (HopfError, RingError) as exc:
        return type(exc).__name__, str(exc)
    return P.elements, P.table, P.identity_index


# rings with no base map from some bases, and Zloc(p), whose points are
# unsupported, besides those of POINT_RINGS
RANK_ONE_RINGS = POINT_RINGS + ["GF(7)", "Z/25", "Z/35", "Dual(GF(5))", "Zloc(2)", "Zloc(3)"]


def rank_one_schemes(R, rng):
    """mu_1, the constant group of order 1, and the subgroup scheme of
    ker(counit) of builtins in a unitriangular basis, whose counit value
    need not be 1, where that ideal has unit pivots."""
    from ffgs.constructions import trivial_subgroup
    out = [mu(R, 1), constant_cyclic(R, 1)]
    for G in builtins_over(R)[1:6]:
        H = trivial_subgroup(rebased(G, unitriangular(R, G.rank, rng)))
        if H.ideal.nonunit is None:
            out.append(H.scheme())
    return out


def test_rank_one_points_are_the_counit(monkeypatch):
    """The points of a rank-1 scheme are its one point, the counit along
    the base map, made with no base change and no characters.  Over each
    base of REFERENCE_BASES and each ring of RANK_ONE_RINGS, under the
    bounds 0, 1 and the default, they equal those of the path they
    replace, run on a fresh copy: the same errors with the same messages,
    "more than 0 points (the points bound)" among them.  Over a finite ring
    they equal oracle.enumerate_points."""
    rng = random.Random(20411)
    changes = []
    real = GroupScheme.base_change
    monkeypatch.setattr(GroupScheme, "base_change",
                        lambda G, hom: changes.append(hom) or real(G, hom))
    monkeypatch.setattr(hopf, "characters", lambda GR: changes.append(GR))
    seen = set()
    for name in REFERENCE_BASES:
        R = parse_ring(name)
        for G in rank_one_schemes(R, rng):
            assert G.rank == 1
            for T in map(parse_ring, RANK_ONE_RINGS):
                for bound in (0, 1, 10000):
                    changes.clear()
                    got = bounded_outcome(points, G, T, bound)
                    assert not changes, (G.name, name, T.name())
                    with monkeypatch.context() as patched:
                        patched.setattr(GroupScheme, "base_change", real)
                        patched.setattr(hopf, "characters", _reference_characters)
                        want = bounded_outcome(_reference_points, fresh(G), T, bound)
                    assert got == want, (G.name, name, T.name(), bound)
                    seen.add(got[0] if isinstance(got[0], str) else "points")
                    if bound and T.is_finite and got[0] != "RingError":
                        expected = enumerate_points(G, T)
                        assert got == (expected.elements, expected.table,
                                       expected.identity_index), (G.name, name, T.name())
    assert seen == {"points", "RingError", "HopfError"}, seen


def test_points_are_kept_per_ring_and_bound():
    """points is made once per (ring, bound) and kept on the scheme; a
    bound it exceeds raises on every call."""
    G = constant_cyclic(F5, 6)
    P = points(G, F5)
    assert points(G, F5) is P and points(G, F5, 6) is not P
    assert points(G, F5, 6).elements == P.elements
    for _ in range(2):
        with pytest.raises(HopfError, match="more than 5 points"):
            points(G, F5, 5)


TEST_FIELDS = [k.name() for k in _small_fields()] + ["Q"]


def test_scalar_steps_on_lines_read_the_table(monkeypatch):
    """On a factor e = a e_g the walk of `_splittings` reads the scalar of
    e_idx off the row M[g][idx] (`_scalar_on_line`), with no product and
    no ratio.  The characters equal `_reference_characters` on every
    builtin over every test field, in its natural and a unitriangular
    basis; the constant groups in their natural basis split into lines,
    and no ratio is taken on a line."""
    lookups, ratios = [], []
    real_line, real_ratio = hopf._scalar_on_line, hopf._scalar_on
    monkeypatch.setattr(hopf, "_scalar_on_line",
                        lambda R, M, e, idx: lookups.append(e) or real_line(R, M, e, idx))
    monkeypatch.setattr(hopf, "_scalar_on",
                        lambda R, e, c: ratios.append(e) or real_ratio(R, e, c))
    rng = random.Random(20412)
    split = 0
    for name in TEST_FIELDS:
        R = parse_ring(name)
        for G in builtins_over(R):
            for basis, H in (("natural", G), ("unitriangular",
                                              rebased(G, unitriangular(R, G.rank, rng)))):
                lookups.clear()
                ratios.clear()
                assert hopf.characters(fresh(H)) == _reference_characters(H), \
                    (G.name, name, basis)
                assert all(len(e) > 1 for e in ratios), (G.name, name, basis)
                if basis == "natural" and G.name.startswith("constant") \
                        and len(hopf.characters(fresh(H))) == G.rank:
                    assert lookups, (G.name, name)
                    split += 1
    assert split >= len(TEST_FIELDS), split


def test_verify_reads_one_index_of_nonzero_products():
    """`_partners`, kept on the scheme, lists for each a the k with e_a e_k
    != 0, as the dense tables do, and `_live_pairs` is read off it.  The
    law checks of `verify` read that index of A and of A^∨ (`_Laws`), and
    a verify leaves it kept: on the reference corpus, corruptions
    included."""
    for label, G in reference_corpus():
        R, m, D = G.ring, G.rank, dense_view(G)
        live = [[k for k in range(m) if any(map(R.nonzero, D.mult[a][k]))] for a in range(m)]
        assert G._partners == live, label
        assert G._live_pairs == [(a, k) for a in range(m) for k in live[a] if k >= a], label
        assert hopf._Laws(G)._partners is G._partners, label
        dual = hopf._transposed(G)
        assert hopf._Laws(dual)._partners is dual._partners, label
        kept = G._partners
        G.verify()
        assert G._partners is kept, label
