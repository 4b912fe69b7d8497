import random
from math import gcd

import pytest

from ffgs.constructions import (ClosedSubgroup, alpha, constant,
                                constant_cyclic, direct_product,
                                extension_witness, find_isomorphism,
                                ideal_closure, inversion_action, kernel, mu,
                                semidirect, tate_oort2, trivial_subgroup)
from ffgs import hopf, structure
from ffgs.hopf import HopfError, convolution_power, hom_on_points, points
from ffgs.linalg import canonical_span, transpose, vec_add, vec_scale, vec_sub
from ffgs.oracle import (AbstractGroup, cyclic_table, product_table, s3_table,
                         subgroup_lattice)
from ffgs.rings import (PrimeField, RingError, RingHom, find_hom, is_prime,
                        parse_ring)
from ffgs.structure import (InternalInconsistencyError, SplitResult,
                            _section_search, _torsion_equalizer,
                            augmentation_core, classify_order_p,
                            common_refinement, connected_etale_sequence,
                            etale_unique_subgroup,
                            fiber_report, frobenius_verschiebung,
                            hochschild_split, identity_component,
                            infinitesimal_rank, is_etale, locus_report,
                            order_p_subgroup, p_primary_decompose,
                            separable_rank, splitting_points,
                            theorem_decompose)
from ffgs.testrings import test_ring_family as ring_family
from test_acceptance import theorem_corpus
from test_hopf import rebased, unitriangular
from test_linalg import solve

Q = parse_ring("Q")
F2 = parse_ring("GF(2)")
F3 = parse_ring("GF(3)")
F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")
ZL2 = parse_ring("Zloc(2)")


def s3_semidirect(R):
    Gmu = mu(R, 3)
    table = [[0, 1], [1, 0]]
    return semidirect(Gmu, table, inversion_action(Gmu, table))


def test_infinitesimal_and_separable_ranks():
    assert infinitesimal_rank(mu(F3, 3)) == 3
    assert infinitesimal_rank(mu(F5, 3)) == 1
    assert infinitesimal_rank(alpha(F2, 2)) == 2
    assert separable_rank(mu(F3, 3)) == 1
    assert separable_rank(mu(F5, 3)) == 3
    assert separable_rank(constant(F5, s3_table())) == 6


def test_is_etale():
    assert is_etale(mu(Q, 6))[0]
    assert is_etale(mu(F5, 6))[0]
    assert not is_etale(mu(F3, 6))[0]
    assert not is_etale(alpha(F3, 3))[0]


def test_identity_component():
    H = identity_component(mu(F3, 6))
    assert H.order == 3
    assert identity_component(constant(F5, s3_table())).order == 1
    assert identity_component(mu(F5, 6)).order == 1
    assert identity_component(mu(parse_ring("Dual(GF(3))"), 6)).order == 3
    assert identity_component(mu(parse_ring("Dual(GF(5))"), 10)).order == 5


def _reference_augmentation_core(G):
    """augmentation_core as it was: J^n until it stabilizes."""
    R = G.ring
    J = canonical_span(R, [
        vec_sub(R, G.basis_vector(i), vec_scale(R, G.counit[i], G.unit))
        for i in range(G.rank)
    ])
    cur = J
    while True:
        nxt = canonical_span(R, [G.mul_vec(v, w) for v in cur for w in J])
        if nxt == cur:
            return cur
        cur = nxt


def _reference_unit_of_ideal(G, rows):
    """The multiplicative unit of a unital ideal given by a module basis."""
    R = G.ring
    m = G.rank
    r = len(rows)
    # solve sum_i t_i (rows_i * rows_j) = rows_j for all j
    cols = []
    for i in range(r):
        col = []
        for j in range(r):
            col.extend(G.mul_vec(rows[i], rows[j]))
        cols.append(col)
    rhs = []
    for j in range(r):
        rhs.extend(rows[j])
    t = solve(R, transpose(cols), rhs)
    e = [R.zero] * m
    for c, v in zip(t, rows):
        e = vec_add(R, e, vec_scale(R, c, v))
    return e


def _reference_identity_component(G):
    """identity_component as it was: the closure of the J^n core, and over
    Dual(k) one Newton step from the unit of the fiber's core."""
    R = G.ring
    if R.is_field:
        core = _reference_augmentation_core(G)
        return ClosedSubgroup(G, ideal_closure(G, core), check=False)
    k = R.base
    fiber = G.base_change(RingHom(R, k, lambda a: a[0], "eps -> 0"))
    core = _reference_augmentation_core(fiber)
    if not core:
        return trivial_subgroup(G) if G.rank == 1 else \
            ClosedSubgroup(G, [], check=False)
    eB = _reference_unit_of_ideal(fiber, core)
    u0 = [(vec_sub(k, fiber.unit, eB)[i], k.zero) for i in range(G.rank)]
    u2 = G.mul_vec(u0, u0)
    u3 = G.mul_vec(u2, u0)
    u = vec_sub(R, vec_scale(R, R.from_int(3), u2),
                vec_scale(R, R.from_int(2), u3))
    gen = vec_sub(R, G.unit, u)
    return ClosedSubgroup(G, ideal_closure(G, [gen]), check=False)


IDENTITY_CASES = [("GF(2)", 6), ("GF(3)", 6), ("GF(3^2;x^2+1)", 6),
                  ("GF(5)", 10), ("Dual(GF(3))", 6), ("Dual(GF(5))", 10)]
IDENTITY_CASES += [(f"GF({p})", p) for p in (2, 3, 5)]


def identity_corpus():
    """mu_n, and alpha_p over GF(p), each in ten seeded dense bases.  In a
    dense basis g(c)/g(lam) can have a nilpotent part, which only the
    Newton steps remove."""
    rng = random.Random(20166)
    for name, n in IDENTITY_CASES:
        R = parse_ring(name)
        schemes = [mu(R, n)]
        if n == R.char():
            schemes.append(alpha(R, n))
        for G in schemes:
            for _ in range(10):
                yield f"{G.name} over {name}", rebased(G, unitriangular(R, n, rng))


def test_identity_component_matches_reference():
    for label, G in identity_corpus():
        H = identity_component(G)
        assert H.ideal == _reference_identity_component(G).ideal, label
        if G.ring.is_field:
            core = _reference_augmentation_core(G)
            assert augmentation_core(G) == core, label
            assert infinitesimal_rank(G) == G.rank - len(core), label


def test_fiber_report_mu2_zloc2():
    reps = fiber_report(mu(ZL2, 2))
    by_id = {r.point.id: r for r in reps}
    assert by_id["generic"].infinitesimal_rank == 1
    assert by_id["generic"].etale
    assert by_id["closed"].infinitesimal_rank == 2
    assert by_id["closed"].classification == "mu"


def test_fiber_report_alpha():
    reps = fiber_report(alpha(F3, 3))
    assert len(reps) == 1
    assert reps[0].infinitesimal_rank == 3
    assert reps[0].separable_rank == 1
    assert reps[0].classification == "alpha"


def test_fiber_report_zmod_base():
    G = constant_cyclic(parse_ring("Z/6"), 2)
    reps = fiber_report(G)
    assert sorted(r.infinitesimal_rank for r in reps) == [1, 1]


def test_classifier_matches_iso_search():
    cases = [
        (mu(F2, 2), "mu"), (mu(F3, 3), "mu"),
        (alpha(F2, 2), "alpha"), (alpha(F3, 3), "alpha"),
        (constant_cyclic(F3, 2), "etale"), (constant_cyclic(F2, 3), "etale"),
    ]
    for G, expect in cases:
        assert classify_order_p(G) == expect, G.name
        # cross-check by explicit isomorphism with the model of that type
        p = G.rank
        R = G.ring
        if expect == "mu":
            model = mu(R, p)
        elif expect == "alpha":
            model = alpha(R, p)
        else:
            model = constant_cyclic(R, p)
        assert find_isomorphism(G, model).status == "iso"


def test_verschiebung_times_frobenius():
    G = mu(F3, 3)
    F, V = frobenius_verschiebung(G)
    assert F.then(V).alg == convolution_power(G, 3).alg
    G = alpha(F2, 2)
    F, V = frobenius_verschiebung(G)
    assert F.then(V).alg == convolution_power(G, 2).alg


def test_order_p_subgroup_dispatch():
    # field, infinitesimal
    H = order_p_subgroup(mu(F3, 6), 3)
    assert H.order == 3
    # field, neither etale nor infinitesimal of rank p: x^2 = 1 is mu_2
    H = order_p_subgroup(mu(F3, 6), 2)
    assert H.order == 2
    # Q, etale
    H = order_p_subgroup(constant(Q, s3_table()), 3)
    assert H.order == 3
    # finite field, etale
    H = order_p_subgroup(constant(F5, s3_table()), 3)
    assert H.order == 3
    # local base
    H = order_p_subgroup(mu(ZL2, 6), 2)
    assert H.order == 2
    # Z/n base
    H = order_p_subgroup(mu(parse_ring("Z/25"), 6), 3)
    assert H.order == 3


def test_locus_report_mu2_zloc2():
    rep = locus_report(mu(ZL2, 2), 2)
    assert rep.s1 == ["generic"]
    assert sorted(rep.sp) == ["closed", "generic"]
    assert sorted(rep.vp) == ["closed", "generic"]
    assert rep.vp_is_whole()
    assert rep.subgroup is not None and rep.subgroup.order == 2


def test_locus_report_s3_f5():
    G = constant(F5, s3_table())
    rep2 = locus_report(G, 2)
    assert rep2.vp == []
    rep3 = locus_report(G, 3)
    assert rep3.vp_is_whole()
    assert rep3.subgroup.order == 3


def test_p_primary_decompose():
    for G in (mu(Q, 6), constant_cyclic(F5, 6), mu(parse_ring("GF(11)"), 6)):
        factors, iso = p_primary_decompose(G)
        assert [p for p, _ in factors] == [2, 3]
        assert [H.order for _, H in factors] == [2, 3]
        assert iso


def test_connected_etale_sequence():
    E = connected_etale_sequence(mu(F3, 6))
    assert E.kernel.order == 3
    assert E.quotient.rank == 2
    E = connected_etale_sequence(constant(F5, s3_table()))
    assert E.kernel.order == 1


def test_hochschild_split_s3_over_q():
    G = constant(Q, s3_table())
    H = order_p_subgroup(G, 3)
    E = extension_witness(G, H)
    for entry in E.ledger:
        assert entry["right_surjective"], entry
    res = hochschild_split(E)
    assert res.status == "found"
    assert len(res.section) == 2


def test_hochschild_split_noncoprime_rejected():
    from ffgs.hopf import HopfError
    G = mu(F5, 4)
    K = kernel(convolution_power(G, 2))
    E = extension_witness(G, K)
    with pytest.raises(HopfError):
        hochschild_split(E)


def test_common_refinement():
    G = constant_cyclic(F5, 6)
    E6 = extension_witness(G, kernel(convolution_power(G, 6)))
    E2 = extension_witness(G, kernel(convolution_power(G, 2)))
    E = common_refinement(E6, E2)
    assert E.kernel.order == 2
    same = common_refinement(E2, E2)
    assert same.kernel.ideal == E2.kernel.ideal


def test_theorem_decompose_mu6_zloc2():
    cert = theorem_decompose(mu(ZL2, 6))
    assert sorted(cert.i_values) == [1, 2]
    assert cert.witness.kernel.order == 2
    assert cert.witness.quotient.rank == 3
    assert [p for p, _ in cert.factors] == [2]
    assert cert.split.status == "found"
    d = cert.to_dict()
    assert d["schema"] == 1


def test_theorem_decompose_etale_is_trivial_kernel():
    cert = theorem_decompose(constant(Q, s3_table()))
    assert cert.i_values == [1]
    assert cert.witness.kernel.order == 1
    assert cert.witness.quotient.rank == 6


def test_theorem_rejects_non_squarefree():
    from ffgs.hopf import HopfError
    with pytest.raises(HopfError):
        theorem_decompose(mu(Q, 4))


# ----------------------------------------------------------------------
# the splitting search against the recomputation it replaced


def _reference_hochschild_split(E, budget=200000):
    """hochschild_split as it was: points and the index map over every test
    ring made again, under the section search budget."""
    nker = E.kernel.order
    nquo = E.quotient.rank
    flag, _ = is_etale(E.quotient)
    if not flag:
        raise HopfError("splitting needs an etale quotient")
    if gcd(nker, nquo) != 1:
        raise HopfError("splitting needs coprime kernel and quotient orders")
    if not E.ledger:
        raise HopfError("no test ring gave points within the budget")
    for entry in E.ledger:
        if not (entry["left_injective"] and entry["exact_middle"]
                and entry["right_surjective"]):
            raise InternalInconsistencyError(
                f"point sequence not exact over {entry['ring']}: {entry}"
            )
    G = E.total
    base = G.ring
    for T in ring_family(base):
        try:
            PG = points(G, T, bound=budget)
            PQ = points(E.quotient, T, bound=budget)
        except (HopfError, RingError):
            continue
        if PQ.order != nquo:
            continue
        hom = find_hom(base, T)
        out_map = hom_on_points(E.projection, PG, PQ, hom)
        if len(set(out_map)) != PQ.order:
            continue
        section = _section_search(AbstractGroup.from_points(PQ),
                                  AbstractGroup.from_points(PG),
                                  out_map, budget)[0]
        if section is not None:
            return SplitResult("found", T.name(), section)
        return SplitResult("not-found", T.name(),
                           detail="search exhausted without a section")
    return SplitResult("no-splitting-ring",
                       detail="no test ring gives the quotient full points")


def split_outcome(split, E):
    try:
        return split(E).to_dict()
    except HopfError as exc:
        return "HopfError", str(exc)


def test_hochschild_split_matches_reference():
    """On the theorem corpus and the order-3 kernels of S3, as the theorem
    and extension_witness leave them, and on a non-coprime extension."""
    witnesses = []
    for G in theorem_corpus():
        cert = theorem_decompose(G)
        assert cert.split.to_dict() == split_outcome(
            _reference_hochschild_split, cert.witness), G.name
        witnesses.append(cert.witness)
    for G in (constant(Q, s3_table()), s3_semidirect(F7), constant(F5, s3_table())):
        witnesses.append(extension_witness(G, order_p_subgroup(G, 3)))
    G4 = mu(F5, 4)
    witnesses.append(extension_witness(G4, kernel(convolution_power(G4, 2))))
    statuses = set()
    for E in witnesses:
        want = split_outcome(_reference_hochschild_split, E)
        assert split_outcome(hochschild_split, E) == want, E
        statuses.add(want[0] if isinstance(want, tuple) else want["status"])
    assert statuses == {"found", "HopfError"}


def test_split_reads_the_ledger_points(monkeypatch):
    G = constant(Q, s3_table())
    E = extension_witness(G, order_p_subgroup(G, 3))

    def no_points(*args, **kw):
        raise AssertionError("points made again")

    for module in (hopf, structure):
        monkeypatch.setattr(module, "points", no_points)
    assert hochschild_split(E).status == "found"


def test_theorem_makes_the_fiber_reports_once(monkeypatch):
    # mu_6 over Zloc(2) has one prime, 2, with a locus report: the
    # reports were made once for the ranks and once more for the locus
    calls = []
    real = structure.fiber_report
    monkeypatch.setattr(structure, "fiber_report",
                        lambda G: calls.append(G) or real(G))
    assert theorem_decompose(mu(ZL2, 6)).split.status == "found"
    assert len(calls) == 1



def discriminated_schemes(monkeypatch):
    """The schemes whose trace discriminant is computed from now on."""
    seen = []
    real = hopf.trace_discriminant

    def counting(G):
        seen.append(G)
        return real(G)

    monkeypatch.setattr(hopf, "trace_discriminant", counting)
    # structure once held its own binding of trace_discriminant
    monkeypatch.setattr(structure, "trace_discriminant", counting, raising=False)
    return seen


def test_each_quotient_discriminant_is_made_once(monkeypatch, capsys):
    """theorem, split and refine read the witness's quotient discriminant
    where they once recomputed it for the same quotient."""
    from ffgs.cli import main
    seen = discriminated_schemes(monkeypatch)
    cert = theorem_decompose(mu(ZL2, 6))
    assert cert.split.status == "found"
    assert sum(G is cert.witness.quotient for G in seen) == 1
    for argv in (["theorem", "--builtin", "mu:6", "--base", "Zloc(3)"],
                 ["split", "--builtin", "const:S3", "--base", "GF(5)", "--kernel", "3"],
                 ["connected-etale", "--builtin", "mu:6", "--base", "GF(2)"],
                 ["refine", "--builtin", "const:Z6", "--base", "GF(5)",
                  "--kernels", "6,2"]):
        seen.clear()
        assert main(argv) == 0, argv
        # quotients are named G/H; seen keeps them alive, so ids are unique
        quotients = [G for G in seen if G.name and G.name.endswith("/H")]
        assert quotients, argv
        assert len({id(G) for G in quotients}) == len(quotients), argv
        # nor is any other scheme, such as the Q fiber of mu_6 over Zloc(3),
        # which the reduction map once discriminated again
        assert len({id(G) for G in seen}) == len(seen), argv
        assert argv[0] != "theorem" or any(G.ring == Q for G in seen)
    capsys.readouterr()
    # the preconditions still hold: a quotient that is not etale is refused
    G = mu(F3, 3)
    E = extension_witness(G, trivial_subgroup(G))
    assert not is_etale(E.quotient)[0]
    with pytest.raises(HopfError, match="etale"):
        hochschild_split(E)
    with pytest.raises(HopfError, match="etale"):
        common_refinement(E, E)


def _reference_reduction_hom(G):
    """A good-reduction map Q -> GF(p) for an etale scheme over Q: the
    smallest prime dividing no denominator and not the discriminant."""
    flag, disc = is_etale(G)
    assert flag
    M, C, S = G.sparse
    entries = [c for row in M for v in row for _, c in v] + G.unit + G.counit
    entries += [c for terms in C for *_, c in terms] + [c for v in S for _, c in v]
    p = 2
    while True:
        if all(c.denominator % p for c in entries) and \
                disc.numerator % p and disc.denominator % p:
            k = PrimeField(p)
            fn = lambda fr, p=p: (fr.numerator * pow(fr.denominator, -1, p)) % p
            return RingHom(Q, k, fn, f"reduction mod {p}")
        p += 1
        while not is_prime(p):
            p += 1


def _reference_geometric_point_group(G):
    """G(sbar) for G etale over a finite field or Q, from the points over
    a splitting field (of a good reduction, over Q)."""
    if G.ring == Q:
        return _reference_geometric_point_group(
            G.base_change(_reference_reduction_hom(G)))
    P, _, _ = splitting_points(G)
    return AbstractGroup.from_points(P)


def _reference_order_p_elements(P, p):
    """The elements of prime order p of a finite group."""
    return [g for g in range(P.order) if P.element_order(g) == p]


def test_torsion_locus_matches_the_geometric_count():
    """Over an etale fiber, x^p = 1 has as many points as the geometric
    point group has elements g with g^p = 1, so the locus V_p (one
    order-p subgroup) agrees with the count in the point group over a
    splitting field, in the natural basis and a rebased one."""
    rng = random.Random(13)
    schemes = theorem_corpus() + [s3_semidirect(F7), s3_semidirect(ZL2)]
    schemes += [rebased(G, unitriangular(G.ring, G.rank, rng)) for G in schemes]
    outcomes = []
    for G in schemes:
        reports = fiber_report(G)
        for p in (2, 3, 5):
            vp = [r.point.id for r in reports if r.infinitesimal_rank == p]
            for r in reports:
                if r.infinitesimal_rank != 1:
                    continue
                assert r.etale
                order_p = _reference_order_p_elements(
                    _reference_geometric_point_group(r.fiber), p)
                assert _torsion_equalizer(r.fiber, p).order == 1 + len(order_p)
                outcomes.append(len(order_p) == p - 1)
                if outcomes[-1]:
                    vp.append(r.point.id)
            rep = locus_report(G, p)
            assert sorted(rep.vp) == sorted(vp), (G.name, p)
            assert (rep.subgroup is not None) == rep.vp_is_whole()
    assert len(outcomes) >= 40 and True in outcomes and False in outcomes


def test_order_p_subgroups_are_counted_like_the_lattice():
    """The subscheme x^p = 1 of a constant group over GF(2) has one point
    for the identity and p - 1 for each order-p subgroup of the oracle's
    lattice: cyclic tables, S3 and their products up to order 30, and the
    point groups of the theorem corpus and of S3 as a semidirect product
    over their finite test rings."""
    small = [cyclic_table(2), cyclic_table(3), cyclic_table(5), s3_table()]
    tables = [cyclic_table(n) for n in range(1, 31)]
    tables += [product_table(a, b) for a in small for b in small + tables[:10]]
    groups = [AbstractGroup(t) for t in tables if len(t) <= 30]
    for G in theorem_corpus() + [s3_semidirect(F7), s3_semidirect(ZL2)]:
        for T in ring_family(G.ring):
            if T.is_finite:
                groups.append(AbstractGroup.from_points(points(G, T)))
    checked = 0
    for A in groups:
        lattice = subgroup_lattice(A)
        for p in (2, 3, 5, 7, 11, 13):
            if A.order % p == 0:
                count = sum(1 for s in lattice if s.order == p)
                G = constant(F2, A.table)
                assert _torsion_equalizer(G, p).order == 1 + count * (p - 1)
                checked += 1
    assert len(groups) > 70 and checked > 100


def test_etale_unique_subgroup_needs_a_prime_order():
    for R in (F7, Q):
        G = constant_cyclic(R, 6)
        assert etale_unique_subgroup(G, 3)[0] == "ok"
        assert etale_unique_subgroup(G, 5) == ("absent", 0)
        for d in (1, 6):
            with pytest.raises(HopfError, match="prime"):
                etale_unique_subgroup(G, d)
        assert etale_unique_subgroup(constant(R, s3_table()), 2) == ("not unique", 3)
    for G in (mu(F3, 6), mu(ZL2, 2)):
        with pytest.raises(HopfError, match="etale scheme over a field"):
            etale_unique_subgroup(G, 2)

