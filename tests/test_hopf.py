import pytest

from ffgs import hopf
from ffgs.linalg import mat_inverse, mat_mul, transpose
from ffgs.constructions import alpha, constant, constant_cyclic, mu, tate_oort2
from ffgs.hopf import (GroupScheme, HopfError, cartier_dual, convolution,
                       convolution_power, identity_endo, points, trivial_endo,
                       verify_hopf)
from ffgs.oracle import s3_table
from ffgs.rings import identity_hom, parse_ring

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
