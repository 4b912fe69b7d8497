import random

import pytest

from ffgs import hopf
from ffgs.cli import build_builtin
from ffgs.linalg import mat_inverse, mat_mul, transpose, vec_add, vec_scale
from ffgs.constructions import alpha, constant, constant_cyclic, mu, tate_oort2
from ffgs.hopf import (GroupScheme, HopfError, cartier_dual, convolution,
                       convolution_power, identity_endo, points, trivial_endo,
                       verify_hopf)
from ffgs.oracle import s3_table
from ffgs.rings import find_hom, identity_hom, parse_ring

Q = parse_ring("Q")
F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")
Z4 = parse_ring("Z/4")
ZL2 = parse_ring("Zloc(2)")


def test_verify_builtins():
    for G in [mu(Q, 6), mu(F5, 4), mu(Z4, 3), mu(ZL2, 2),
              constant_cyclic(Q, 6), constant(F7, s3_table()),
              alpha(parse_ring("GF(3)"), 3), tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one)]:
        rep = G.verify()
        assert rep.ok, (G.name, rep.axiom, rep.witness)


def test_verify_catches_corruption():
    G = mu(F5, 3)
    G.mult[1][1] = list(G.unit)
    rep = G.verify()
    assert not rep.ok
    assert rep.witness is not None


def test_roundtrip_json():
    G = mu(ZL2, 4)
    d = G.to_dict()
    H = GroupScheme.from_dict(d)
    assert H.to_dict() == d
    assert H.verify().ok


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
        assert DD.mult == G.mult
        assert DD.comult == G.comult
        assert DD.unit == G.unit
        assert DD.counit == G.counit
        assert DD.antipode == G.antipode


def test_dual_of_constant_is_mu():
    # dual(Z/n) = mu_n: same structure constants after the index swap
    G = constant_cyclic(F5, 4)
    D = cartier_dual(G)
    M = mu(F5, 4)
    assert D.mult == M.mult
    assert D.comult == M.comult


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
    one = identity_endo(G)
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
    assert P.element_order(P.elements.index(P.elements[1])) in (1, 3)
    P2 = points(mu(F5, 3), F5)
    assert P2.order == 1


def test_points_constant_group():
    P = points(constant(F5, s3_table()), F5)
    assert P.order == 6
    assert not P.is_abelian()


def test_points_over_q():
    P = points(constant_cyclic(Q, 6), Q)
    assert P.order == 6
    P2 = points(mu(Q, 5), Q)
    assert P2.order == 1
    P3 = points(mu(Q, 6), Q)
    assert P3.order == 2


def test_points_over_zmod():
    # mu_2 over Z/8: square roots of 1 mod 8 form C2 x C2
    Z8 = parse_ring("Z/8")
    P = points(mu(Z8, 2), Z8)
    assert P.order == 4
    assert P.is_abelian()
    assert all(P.element_order(i) <= 2 for i in range(P.order))


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


def test_verify_hopf_wrapper():
    assert verify_hopf(mu(Q, 2)).ok


def rebased(G, Q):
    """G in the basis f_d with e_c = sum_d Q[c][d] f_d (Q invertible)."""
    R, m = G.ring, G.rank
    P = mat_inverse(R, Q)  # f_i = sum_a P[i][a] e_a

    def to_f(v):
        return mat_mul(R, [v], Q)[0]

    def comb(vecs, i):
        return [R.dot(P[i], col) for col in transpose(vecs)]

    comult = []
    for i in range(m):
        C = [comb([G.comult[a][j] for a in range(m)], i) for j in range(m)]
        comult.append(mat_mul(R, mat_mul(R, transpose(Q), C), Q))
    return GroupScheme(
        R, m,
        [[to_f(G.mul_vec(P[i], P[j])) for j in range(m)] for i in range(m)],
        to_f(G.unit),
        comult,
        [R.dot(P[i], G.counit) for i in range(m)],
        [to_f(comb(G.antipode, i)) for i in range(m)],
    )


def test_unit_with_zero_divisor_coordinates_verifies():
    # e_1 = 2 f_0 + f_1 and e_2 = f_0 + f_2 put the unit of const:Z6 at
    # (1, 3, 2, 1, 1, 1): the coordinates 3 and 2 multiply to 0 in Z/6
    Z6 = parse_ring("Z/6")
    Q = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    Q[0][1], Q[0][2] = 2, 1
    G = rebased(constant_cyclic(Z6, 6), Q)
    assert G.unit == [1, 3, 2, 1, 1, 1]
    rep = G.verify()
    assert rep.ok, (rep.axiom, rep.witness)
    # a corrupted unit is still caught
    G.unit = [1, 3, 2, 1, 1, 2]
    assert not G.verify().ok


# ----------------------------------------------------------------------
# GroupScheme.verify against the tensor_mul version it replaced


def _reference_tensor_mul(G, x, y):
    """Product in A (x) A of two tensors given as {(j,k): coeff}."""
    R = G.ring
    out: dict = {}
    for (j1, k1), c1 in x.items():
        for (j2, k2), c2 in y.items():
            c = R.mul(c1, c2)
            left = G.mult[j1][j2]
            right = G.mult[k1][k2]
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
    """GroupScheme.verify as it was before the sparse tables: mul_vec with
    basis vectors, comult_sparse per use, and Delta(e_i) Delta(e_j) by
    expanding the product term by term."""
    R = G.ring
    m = G.rank
    e = G.basis_vector
    Report = hopf.VerificationReport
    for i in range(m):
        for j in range(i + 1, m):
            if G.mult[i][j] != G.mult[j][i]:
                return Report(False, "algebra-commutativity", (i, j))
    for i in range(m):
        if G.mul_vec(G.unit, e(i)) != e(i):
            return Report(False, "algebra-unit", (i,))
    for i in range(m):
        for j in range(m):
            left = G.mult[i][j]
            for k in range(m):
                if G.mul_vec(left, e(k)) != G.mul_vec(e(i), G.mult[j][k]):
                    return Report(False, "associativity", (i, j, k))
    for i in range(m):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in G.comult_sparse(i):
            for a, b, d in G.comult_sparse(j):
                key = (a, b, k)
                lhs[key] = R.add(lhs.get(key, R.zero), R.mul(c, d))
            for a, b, d in G.comult_sparse(k):
                key = (j, a, b)
                rhs[key] = R.add(rhs.get(key, R.zero), R.mul(c, d))
        lhs = {key: c for key, c in lhs.items() if c != R.zero}
        rhs = {key: c for key, c in rhs.items() if c != R.zero}
        if lhs != rhs:
            return Report(False, "coassociativity", (i,))
    for i in range(m):
        left = [R.zero] * m
        right = [R.zero] * m
        for j, k, c in G.comult_sparse(i):
            left[k] = R.add(left[k], R.mul(c, G.counit[j]))
            right[j] = R.add(right[j], R.mul(c, G.counit[k]))
        if left != e(i) or right != e(i):
            return Report(False, "counit", (i,))
    one_tensor = G.comult_vec(G.unit)
    unit_sq = {}
    for j, a in enumerate(G.unit):
        for k, b in enumerate(G.unit):
            ab = R.mul(a, b)
            if ab != R.zero:
                unit_sq[(j, k)] = ab
    if one_tensor != unit_sq:
        return Report(False, "bialgebra-unit", ())
    if G.counit_of(G.unit) != R.one:
        return Report(False, "counit-unit", ())
    for i in range(m):
        di = G.comult_vec(e(i))
        for j in range(m):
            lhs = G.comult_vec(G.mult[i][j])
            rhs = _reference_tensor_mul(G, di, G.comult_vec(e(j)))
            if lhs != rhs:
                return Report(False, "bialgebra-mult", (i, j))
            if G.counit_of(G.mult[i][j]) != R.mul(G.counit[i], G.counit[j]):
                return Report(False, "counit-mult", (i, j))
    for i in range(m):
        left = [R.zero] * m
        right = [R.zero] * m
        for j, k, c in G.comult_sparse(i):
            left = vec_add(R, left, vec_scale(R, c, G.mul_vec(G.antipode[j], e(k))))
            right = vec_add(R, right, vec_scale(R, c, G.mul_vec(e(j), G.antipode[k])))
        target = vec_scale(R, G.counit[i], G.unit)
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


def builtins_over(R):
    """The REFERENCE_SPECS that exist over R (alpha_p and ot2:0,1 need
    characteristic p and 2)."""
    out = []
    for spec in REFERENCE_SPECS:
        try:
            out.append(build_builtin(spec, R))
        except HopfError:
            continue
    return out


def unitriangular(R, m, rng):
    return [[R.one if j == i else R.from_int(rng.choice((-1, 0, 1, 2)))
             if j > i else R.zero for j in range(m)] for i in range(m)]


def corrupted(G, slot, rng, mirror=False):
    """A copy of G with one entry of `slot` moved by a nonzero amount; with
    mirror, mult[j][i][k] follows mult[i][j][k] so mult stays commutative."""
    H = GroupScheme.from_dict(G.to_dict())
    R, m = H.ring, H.rank
    delta = R.from_int(rng.choice((1, -1, 2)))
    if delta == R.zero:
        delta = R.one
    i, j, k = (rng.randrange(m) for _ in range(3))
    if slot == "mult":
        H.mult[i][j][k] = R.add(H.mult[i][j][k], delta)
        if mirror:
            H.mult[j][i][k] = H.mult[i][j][k]
    elif slot == "unit":
        H.unit[i] = R.add(H.unit[i], delta)
    elif slot == "comult":
        H.comult[i][j][k] = R.add(H.comult[i][j][k], delta)
    elif slot == "counit":
        H.counit[i] = R.add(H.counit[i], delta)
    else:
        H.antipode[i][j] = R.add(H.antipode[i][j], delta)
    return H


def mismatched_pairs(R):
    """Algebras paired with coalgebras they do not fit, for the failures
    single-entry corruptions of builtins do not reach.  The first pairs
    R[x]/(x^2) in the basis (x, 1) with both basis vectors group-like:
    Delta(x x) = Delta(x) Delta(x) = 0, but eps(x x) = 0 != 1 = eps(x)^2."""
    Z, O = R.zero, R.one
    counit_mult = GroupScheme(
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
    corruptions of those, and the mismatched pairs."""
    rng = random.Random(20161)
    for name in REFERENCE_BASES:
        R = parse_ring(name)
        for G in builtins_over(R):
            for basis, H in in_bases(G, rng):
                label = f"{G.name} over {name}, {basis} basis"
                yield label, H
                for slot in SLOTS:
                    yield f"{label}, {slot} corrupted", corrupted(H, slot, rng)
                yield f"{label}, mult corrupted", corrupted(H, "mult", rng, True)
        for H in mismatched_pairs(R):
            yield f"mismatched pair over {name}", H


def test_verify_matches_reference_on_every_base():
    reached = set()
    for label, G in reference_corpus():
        got = outcome(G.verify())
        assert got == outcome(_reference_verify(G)), label
        reached.add(got[1])
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
