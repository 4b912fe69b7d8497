import itertools
import random

import pytest

from ffgs.constructions import alpha, constant, constant_cyclic, mu, direct_product
from ffgs import hopf
from ffgs.hopf import GroupScheme, points
from ffgs.oracle import (AbstractGroup, BudgetExceeded, cyclic_table,
                         enumerate_points, product_table, s3_table,
                         subgroup_lattice)
from ffgs.rings import parse_ring
from ffgs.testrings import test_ring_family as ring_family
from test_hopf import rebased, unitriangular

F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")


def _group_from_table(table):
    class T:
        pass
    P = T()
    n = len(table)
    P.order = n
    P.table = table
    P.elements = list(range(n))
    return AbstractGroup(table)


def test_table_builders():
    t = cyclic_table(4)
    assert t[1][1] == 2 and t[3][1] == 0
    t2 = product_table(cyclic_table(2), cyclic_table(3))
    assert len(t2) == 6
    s3 = s3_table()
    assert len(s3) == 6
    assert any(s3[i][j] != s3[j][i] for i in range(6) for j in range(6))


def test_identify_small_groups():
    assert AbstractGroup(cyclic_table(4)).identify() == "C4"
    assert AbstractGroup(product_table(cyclic_table(2), cyclic_table(2))).identify() == "C2 x C2"
    assert AbstractGroup(s3_table()).identify() == "S3"
    assert AbstractGroup(cyclic_table(6)).identify() == "C6"
    c6 = AbstractGroup(product_table(cyclic_table(2), cyclic_table(3)))
    assert c6.is_isomorphic_to(AbstractGroup(cyclic_table(6)))
    assert not AbstractGroup(cyclic_table(4)).is_isomorphic_to(
        AbstractGroup(product_table(cyclic_table(2), cyclic_table(2))))


def q8_table():
    """The quaternion group: (s, u) is (-1)^s u, u one of 1, i, j, k."""
    units = {(1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
             (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
             (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}
    elems = list(itertools.product(range(2), range(4)))

    def mul(x, y):
        if x[1] == 0 or y[1] == 0:
            return (x[0] + y[0]) % 2, x[1] + y[1]
        s, u = units[x[1], y[1]]
        return (x[0] + y[0] + s) % 2, u
    return [[elems.index(mul(x, y)) for y in elems] for x in elems]


def c4_by_c4_table():
    """C4 x| C4, the second factor acting on the first by inversion."""
    elems = list(itertools.product(range(4), range(4)))
    return [[elems.index(((a + (-1) ** b * c) % 4, (b + d) % 4)) for c, d in elems]
            for a, b in elems]


def relabelled(table, pi):
    """The same group with each element a renamed pi[a]."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[pi[a]][pi[b]] = pi[c]
    return out


def test_extend_spreads_generator_images_or_refuses():
    C4, C2 = AbstractGroup(cyclic_table(4)), AbstractGroup(cyclic_table(2))
    assert C4.extend(C2, [1], [1]) == [0, 1, 0, 1]
    assert C4.extend(C4, [1], [3]) == [0, 3, 2, 1]
    assert AbstractGroup(cyclic_table(3)).extend(C2, [1], [1]) is None
    S3 = AbstractGroup(s3_table())
    gens = S3._small_generators()
    assert S3.extend(S3, gens, gens) == list(range(6))
    # S3 -> C2 is the sign: the transpositions go to 1, the 3-cycles to 0
    sign = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
            for p in sorted(itertools.permutations(range(3)))]
    assert S3.extend(C2, gens, [sign[g] for g in gens]) == sign
    assert S3.extend(C2, gens, [0] * len(gens)) == [0] * 6
    assert S3.extend(C2, gens, [sign[gens[0]], 1 - sign[gens[1]]]) is None


def test_nonabelian_isomorphism_search():
    """The generator search of is_isomorphic_to on non-abelian groups:
    C4 x| C4 and C2 x Q8 have the same order, element orders and
    non-commutativity, so only the search tells them apart."""
    rng = random.Random(29)
    c4c4 = AbstractGroup(c4_by_c4_table())
    c2q8 = AbstractGroup(product_table(cyclic_table(2), q8_table()))
    for table in (s3_table(), q8_table(), c4_by_c4_table()):
        G = AbstractGroup(table)
        assert not G.is_abelian()
        pi = rng.sample(range(G.order), G.order)
        assert G.is_isomorphic_to(AbstractGroup(relabelled(table, pi)))
    assert AbstractGroup(q8_table()).identify() == "Q8"
    assert c4c4.element_orders() == c2q8.element_orders()
    assert not c2q8.is_abelian()
    assert not c4c4.is_isomorphic_to(c2q8)
    assert not c2q8.is_isomorphic_to(c4c4)
    with pytest.raises(BudgetExceeded):
        AbstractGroup(s3_table()).is_isomorphic_to(
            AbstractGroup(relabelled(s3_table(), [1, 2, 0, 4, 5, 3])), budget=0)


def test_enumerate_matches_points_mu():
    for n in (2, 3, 4, 6):
        for Rp in (F5, F7, parse_ring("Z/9"), parse_ring("Dual(GF(3))")):
            G = mu(Rp, n)
            P = points(G, Rp)
            O = enumerate_points(G, Rp)
            assert P.elements == O.elements
            assert P.table == O.table


def test_enumerate_matches_points_alpha():
    F3 = parse_ring("GF(3)")
    for Rp in (F3, parse_ring("Dual(GF(3))")):
        G = alpha(F3, 3).base_change(Rp) if Rp != F3 else alpha(F3, 3)
        P = points(alpha(F3, 3), Rp)
        O = enumerate_points(alpha(F3, 3), Rp)
        assert P.elements == O.elements
        assert P.table == O.table


def test_enumerate_matches_points_constant():
    G = constant(F5, s3_table())
    P = points(G, F5)
    O = enumerate_points(G, F5)
    assert P.elements == O.elements
    assert P.table == O.table


def test_subgroup_lattice_s3():
    A = AbstractGroup(s3_table())
    subs = subgroup_lattice(A)
    orders = sorted(len(s.elements) for s in subs)
    assert orders == [1, 2, 2, 2, 3, 6]
    normal = [len(s.elements) for s in subs if s.normal]
    assert sorted(normal) == [1, 3, 6]


def test_subgroup_lattice_c6():
    A = AbstractGroup(cyclic_table(6))
    subs = subgroup_lattice(A)
    assert sorted(len(s.elements) for s in subs) == [1, 2, 3, 6]
    assert all(s.normal for s in subs)


def test_test_ring_family_deterministic():
    fam1 = [Rp.name() for Rp in ring_family(F5)]
    fam2 = [Rp.name() for Rp in ring_family(F5)]
    assert fam1 == fam2
    assert "GF(5)" in fam1
    assert all("GF" in n or "Dual" in n or "Z/" in n or n == "Q" for n in fam1)


def test_oracle_reads_only_the_dense_tensors(monkeypatch):
    """enumerate_points gives the same point groups when the GroupScheme
    operations on elements, basis_vector among them, refuse to run: the
    oracle reads the dense tensors, unit and basis it expands itself, and
    shares only the stored tables with the code it checks."""
    rng = random.Random(20172)
    F3, Z9, D3 = (parse_ring(s) for s in ("GF(3)", "Z/9", "Dual(GF(3))"))
    cases = [(mu(F5, 4), F5), (constant(F3, s3_table()), F3),
             (alpha(F3, 3), D3), (mu(Z9, 3), Z9),
             (rebased(mu(F5, 4), unitriangular(F5, 4, rng)), F5),
             (rebased(mu(D3, 3), unitriangular(D3, 3, rng, eps=True)), D3)]
    expected = []
    for G, T in cases:
        P = enumerate_points(G, T)
        expected.append((P.elements, P.table, P.identity_index))
    assert len({len(e[0]) for e in expected}) > 1

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran library code on the tensors")

    for name in ("basis_vector", "mul_vec", "combine", "comult_vec", "antipode_vec",
                 "power_vec", "counit_of"):
        monkeypatch.setattr(GroupScheme, name, refuse)
    monkeypatch.setattr(hopf, "point_is_hom", refuse)
    for (G, T), want in zip(cases, expected):
        P = enumerate_points(G, T)
        assert (P.elements, P.table, P.identity_index) == want, (G, T)
