import random

from ffgs.constructions import alpha, constant, constant_cyclic, mu, direct_product
from ffgs import hopf
from ffgs.hopf import GroupScheme, points
from ffgs.oracle import (AbstractGroup, cyclic_table, enumerate_points,
                         product_table, s3_table, subgroup_lattice)
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
    operations and the dense lists GroupScheme derives refuse to run: the
    oracle reads the dense tensors it expands itself, and shares only the
    stored tables with the code it checks."""
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

    for name in ("mul_vec", "comult_vec", "antipode_vec", "power_vec"):
        monkeypatch.setattr(GroupScheme, name, refuse)
    monkeypatch.setattr(GroupScheme, "_dense", property(refuse))
    monkeypatch.setattr(hopf, "point_is_hom", refuse)
    for (G, T), want in zip(cases, expected):
        P = enumerate_points(G, T)
        assert (P.elements, P.table, P.identity_index) == want, (G, T)
