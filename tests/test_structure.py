import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from ffgs.constructions import (ClosedSubgroup, alpha, constant,
                                constant_cyclic, direct_product,
                                extension_witness, find_isomorphism,
                                ideal_closure, inversion_action, kernel, mu,
                                semidirect, tate_oort2, trivial_subgroup)
from ffgs import constructions, hopf, structure
from ffgs.hopf import HopfError, convolution_power, dense, hom_on_points, nonzeros, points
from ffgs.linalg import canonical_span
from ffgs.oracle import (AbstractGroup, cyclic_table, product_table, s3_table,
                         subgroup_lattice)
from ffgs.rings import (QQ, DualNumbers, IntegersMod, PrimeField, RingError, RingHom,
                        find_hom, gf, is_prime, parse_ring)
from ffgs.structure import (InternalInconsistencyError, SplitResult,
                            _section_search, _torsion, _torsion_equalizer,
                            classify_order_p,
                            common_refinement, connected_etale_sequence,
                            etale_unique_subgroup,
                            fiber_report, frobenius,
                            hochschild_split, identity_component,
                            infinitesimal_rank, is_etale, locus_report,
                            order_p_subgroup, p_primary_decompose, p_twist,
                            separable_rank, splitting_points,
                            theorem_decompose, verschiebung)
from ffgs.testrings import test_ring_family as ring_family
from test_acceptance import theorem_corpus
from test_constructions import SHARED_BASES
from test_hopf import (_reference_points, built, builtins_over, dense_mul, dense_view,
                       fresh, in_bases, nnz, rebased, unitriangular)
from test_linalg import (dense_rows, identity_matrix, kernel_rows, solve, span_rows, sparse_rows,
                         transpose, vec_add, vec_scale, vec_sub)
from test_oracle import relabelled

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
    assert is_etale(mu(Q, 6))
    assert is_etale(mu(F5, 6))
    assert not is_etale(mu(F3, 6))
    assert not is_etale(alpha(F3, 3))


def test_identity_component():
    H = identity_component(mu(F3, 6))
    assert H.order == 3
    assert identity_component(constant(F5, s3_table())).order == 1
    assert identity_component(mu(F5, 6)).order == 1
    assert identity_component(mu(parse_ring("Dual(GF(3))"), 6)).order == 3
    assert identity_component(mu(parse_ring("Dual(GF(5))"), 10)).order == 5


def _reference_augmentation_core(G):
    """augmentation_core as it was: J^n until it stabilizes."""
    R, unit = G.ring, dense_view(G).unit
    J = span_rows(R, [vec_sub(R, e, vec_scale(R, c, unit))
                      for e, c in zip(identity_matrix(R, G.rank), G.counit)])
    cur = J
    while True:
        nxt = span_rows(R, [dense_mul(G, v, w) for v in cur for w in J])
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
            col.extend(dense_mul(G, rows[i], rows[j]))
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
        return ClosedSubgroup(G, ideal_closure(G, [nonzeros(R, v) for v in core]))
    k = R.base
    fiber = G.base_change(RingHom(R, k, lambda a: a[0], "eps -> 0"))
    core = _reference_augmentation_core(fiber)
    if not core:
        return trivial_subgroup(G) if G.rank == 1 else \
            ClosedSubgroup(G, [])
    eB = _reference_unit_of_ideal(fiber, core)
    u0 = [(a, k.zero) for a in vec_sub(k, dense_view(fiber).unit, eB)]
    u2 = dense_mul(G, u0, u0)
    u3 = dense_mul(G, u2, u0)
    u = vec_sub(R, vec_scale(R, R.from_int(3), u2),
                vec_scale(R, R.from_int(2), u3))
    gen = vec_sub(R, dense_view(G).unit, u)
    return ClosedSubgroup(G, ideal_closure(G, [nonzeros(R, gen)]))


IDENTITY_CASES = [("GF(2)", 6), ("GF(3)", 6), ("GF(3^2;x^2+1)", 6),
                  ("GF(5)", 10), ("Dual(GF(3))", 6), ("Dual(GF(5))", 10)]
IDENTITY_CASES += [(f"GF({p})", p) for p in (2, 3, 5)]
# etale, where the ranks are read off the trace discriminant
IDENTITY_CASES += [("GF(7)", 6), ("Q", 6)]


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


def _reference_separable_rank(G):
    """separable_rank as it was: the trace form's rank in characteristic
    0, else the stable rank of the iterated q-power map, etale or not."""
    k = G.ring
    if k.char() == 0:
        return len(span_rows(k, hopf.trace_form(G)))
    M = [dense(k, G.rank, G.power_vec(G.basis_vector(i), k.size())) for i in range(G.rank)]
    cur, rank = M, len(span_rows(k, M))
    while True:
        cur = [[k.dot(row, col) for col in zip(*M)] for row in cur]
        r = len(span_rows(k, cur))
        if r == rank:
            return rank
        rank = r


def test_identity_component_matches_reference():
    for label, G in identity_corpus():
        H = identity_component(G)
        assert H.ideal == _reference_identity_component(G).ideal, label
        if G.ring.is_field:
            core = _reference_augmentation_core(G)
            assert G.identity_core == sparse_rows(G.ring, core), label
            assert infinitesimal_rank(G) == G.rank - len(core), label
            assert separable_rank(G) == _reference_separable_rank(G), label


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
    F, V = frobenius(G), verschiebung(G)
    assert F.then(V).alg == convolution_power(G, 3).alg
    G = alpha(F2, 2)
    F, V = frobenius(G), verschiebung(G)
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


def _reference_saturation(R, rows_q, width):
    """Basis over Zloc(p) of span_Q(rows_q) intersected with Zloc^width,
    as order_p_subgroup made it before it read the kernel of pi_Q: a
    kernel over Z/p^e, p^e the largest p-power denominator of the
    canonical Q rows, lifted, and p^e times those rows."""
    rref = span_rows(QQ, rows_q)
    if not rref:
        return []
    e = max(R.valuation(Fraction(c.denominator)) for row in rref for c in row)
    if e == 0:
        return canonical_span(R, sparse_rows(R, [[Fraction(c) for c in row] for row in rref]))
    pe = R.p ** e
    Rmod = IntegersMod(pe)
    D = [[(c * pe).numerator * pow((c * pe).denominator, -1, pe) % pe
          for c in row] for row in rref]
    rows_out = []
    for t in kernel_rows(Rmod, D):
        v = [Fraction(0)] * width
        for c, row in zip(t, rref):
            v = [a + c * b for a, b in zip(v, row)]
        rows_out.append(v)
    rows_out += [[pe * c for c in row] for row in rref]
    return canonical_span(R, sparse_rows(R, rows_out))


@pytest.mark.parametrize("spec, base, p", [
    ("mu:6", "Zloc(2)", 2), ("mu:10", "Zloc(2)", 2), ("mu:15", "Zloc(3)", 3),
    ("sdp:mu:3,Z2,inv", "Zloc(3)", 3), ("mu:30", "Zloc(5)", 5)])
def test_order_p_subgroup_over_zloc_matches_saturation(spec, base, p):
    """Over Zloc(l) the order-p ideal is the kernel of pi_Q of x^p = 1 on
    the generic fiber; the saturation of that Q ideal is the reference."""
    [G] = built(spec, parse_ring(base))
    torsion = _torsion(G.base_change(QQ), p)
    want = _reference_saturation(G.ring, dense_rows(QQ, G.rank, torsion.ideal), G.rank)
    assert order_p_subgroup(G, p).ideal == want


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


def test_theorem_checks_p_on_g_prime_directly(monkeypatch):
    """G' of prime order p is checked by [p] = 0 on it alone: no kernel,
    image or primary decomposition runs on G'.  A G' that [p] does not
    kill is an internal inconsistency."""
    powers, on_gprime = [], []
    real_power = structure.convolution_power
    monkeypatch.setattr(structure, "convolution_power",
                        lambda H, n: powers.append((H.rank, n)) or real_power(H, n))
    for name, ambient in (("kernel", lambda f: f.source), ("image", lambda f: f.target),
                          ("p_primary_decompose", lambda H: H)):
        def counting(x, real=getattr(structure, name), name=name, ambient=ambient):
            on_gprime.append((name, ambient(x).rank))
            return real(x)
        monkeypatch.setattr(structure, name, counting)
    ZL3 = parse_ring("Zloc(3)")
    for G, p in ((mu(ZL2, 6), 2), (mu(ZL3, 15), 3), (mu(F2, 6), 2)):
        powers.clear()
        on_gprime.clear()
        assert [q for q, _ in theorem_decompose(G).factors] == [p], G.name
        assert powers == [(p, p)], G.name
        assert all(rank == G.rank for _, rank in on_gprime), (G.name, on_gprime)
    monkeypatch.setattr(structure, "convolution_power", lambda H, n: real_power(H, n + 1))
    with pytest.raises(InternalInconsistencyError, match=r"\[2\] is not zero on G'"):
        theorem_decompose(mu(ZL2, 6))


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


def _reference_section_search(Q, Gp, out_map, budget):
    """_section_search as it was: its own walk over the Cayley graph of Q,
    testing out_map[sigma(y)] = y on each edge it takes."""
    gens = Q._small_generators()
    preimages = [
        [g for g in range(Gp.order) if out_map[g] == q] for q in gens
    ]
    count = 0
    for images in itertools.product(*preimages):
        count += 1
        if count > budget:
            return None, False
        sigma = {Q.identity: Gp.identity}
        frontier = [Q.identity]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y = Q.table[x][g]
                fy = Gp.table[sigma[x]][img]
                if out_map[fy] != y:
                    ok = False
                    break
                if y in sigma:
                    if sigma[y] != fy:
                        ok = False
                        break
                else:
                    sigma[y] = fy
                    frontier.append(y)
        if not ok or len(sigma) != Q.order:
            continue
        if all(sigma[Q.table[a][b]] == Gp.table[sigma[a]][sigma[b]]
               for a in range(Q.order) for b in range(Q.order)):
            return [sigma[q] for q in range(Q.order)], True
    return None, True


def _reference_hochschild_split(E, budget=200000):
    """hochschild_split as it was: points and the index map over every test
    ring made again, under the section search budget."""
    nker = E.kernel.order
    nquo = E.quotient.rank
    if not E.quotient.ring.is_unit(hopf.trace_discriminant(E.quotient)):
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
        section = _reference_section_search(AbstractGroup.from_points(PQ),
                                            AbstractGroup.from_points(PG),
                                            out_map, budget)[0]
        if section is not None:
            return SplitResult("found", T.name(), section)
        return SplitResult("not-found", T.name(),
                           detail="search exhausted without a section")
    return SplitResult("no-splitting-ring",
                       detail="no test ring gives the quotient full points")


def test_section_search_matches_reference():
    """_section_search gives the old walk's (section, complete) under
    budgets 0, 1, 3 and the default, on every ledger ring where the
    quotient has all its points: for the theorem corpus and the order-3
    kernels of S3, on the ledger's own point groups, on G(T) relabelled,
    and with out_map shuffled (then mostly no homomorphism)."""
    rng = random.Random(29)
    witnesses = [theorem_decompose(G).witness for G in theorem_corpus()]
    witnesses += [extension_witness(G, order_p_subgroup(G, 3)) for G in
                  (constant(Q, s3_table()), s3_semidirect(F7), constant(F5, s3_table()))]
    outcomes = set()
    for E in witnesses:
        for T, PG, PQ, out_map in E.ledger_points:
            if PQ.order != E.quotient.rank:
                continue
            Qg, Gp = AbstractGroup.from_points(PQ), AbstractGroup.from_points(PG)
            pi = rng.sample(range(Gp.order), Gp.order)
            moved = [None] * Gp.order
            for g, q in enumerate(out_map):
                moved[pi[g]] = q
            shuffled = rng.sample(out_map, len(out_map))
            for G2, f in ((Gp, out_map), (AbstractGroup(relabelled(Gp.table, pi)), moved),
                          (Gp, shuffled)):
                for budget in (0, 1, 3, 200000):
                    want = _reference_section_search(Qg, G2, f, budget)
                    assert _section_search(Qg, G2, f, budget) == want, (T.name(), budget)
                    outcomes.add((want[0] is not None, want[1]))
    assert outcomes == {(True, True), (False, True), (False, False)}


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


def test_theorem_makes_each_torsion_subscheme_once(monkeypatch):
    """Over Zloc(l) order_p_subgroup saturates the x^p = 1 subgroup that
    the locus report made on the generic fiber, and over a field it takes
    the one made on G itself: one x^p = 1 per (fiber, p)."""
    calls = []
    real = structure._torsion_equalizer
    monkeypatch.setattr(structure, "_torsion_equalizer",
                        lambda G, p: calls.append((G.ring.name(), p)) or real(G, p))
    ZL3 = parse_ring("Zloc(3)")
    for G, p in ((mu(ZL2, 6), 2), (mu(ZL3, 15), 3), (s3_semidirect(ZL3), 3)):
        calls.clear()
        assert [q for q, _ in theorem_decompose(G).factors] == [p], G.name
        assert calls == [("Q", p)], G.name
    for G, p in ((mu(Q, 6), 3), (constant(F5, s3_table()), 3)):
        calls.clear()
        assert locus_report(G, p).subgroup.order == p, G.name
        assert calls == [(G.ring.name(), p)], G.name
    # over Dual(Q) the fiber is Q, but the subgroup must live in G itself
    G = mu(parse_ring("Dual(Q)"), 6)
    calls.clear()
    assert locus_report(G, 3).subgroup.ambient is G
    assert calls == [("Q", 3), ("Dual(Q)", 3)]


def test_theorem_decides_normality_once_per_subgroup(monkeypatch):
    # the order-p subgroup was checked in order_p_subgroup (and on its Q
    # base change over Zloc), in theorem_decompose and in extension_witness;
    # a cocommutative Delta decides it with no conjugation tensor
    conjugated = []
    real = constructions.conjugation_tensor
    monkeypatch.setattr(constructions, "conjugation_tensor",
                        lambda G, v: conjugated.append(G) or real(G, v))
    for G in (mu(ZL2, 6), s3_semidirect(parse_ring("Zloc(3)")), mu(F3, 6)):
        conjugated.clear()
        [(_, H)] = theorem_decompose(G).factors
        assert len(conjugated) == (0 if G.is_commutative() else len(H.ideal)), G.name
        assert all(A is G for A in conjugated), G.name


def test_theorem_makes_the_identity_core_once_per_scheme(monkeypatch):
    """Over a field the fiber is G itself, so infinitesimal_rank,
    identity_component and order_p_subgroup read one kept core; an etale
    scheme needs none, as its infinitesimal rank is 1."""
    calls = []
    real = hopf.identity_idempotent
    monkeypatch.setattr(hopf, "identity_idempotent",
                        lambda G: calls.append(G) or real(G))
    for G in (mu(F3, 6), mu(F2, 6), alpha(F3, 3), s3_semidirect(F3),
              constant(F5, s3_table()), mu(F7, 6)):
        calls.clear()
        theorem_decompose(G)
        assert all(A is G for A in calls), G.name
        assert len(calls) == (0 if is_etale(G) else 1), G.name



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
        assert len({id(G) for G in quotients}) == len(quotients), argv
        # nor is any other scheme discriminated twice
        assert len({id(G) for G in seen}) == len(seen), argv
        # only quotients are discriminated: theorem and refine print theirs
        # (refine's quotients of a constant group have no generating basis
        # vector, so their flags read the kept discriminant as well), and
        # split and connected-etale read the flag alone
        assert len(quotients) == len(seen), argv
        assert bool(seen) == (argv[0] in ("theorem", "refine")), argv
        # the Q fiber of mu_6 over Zloc(3) is etale in characteristic 0,
        # with no Gram matrix
        assert not any(G.ring == Q for G in seen), argv
    capsys.readouterr()
    # the preconditions still hold: a quotient that is not etale is refused
    G = mu(F3, 3)
    E = extension_witness(G, trivial_subgroup(G))
    assert not is_etale(E.quotient)
    with pytest.raises(HopfError, match="etale"):
        hochschild_split(E)
    with pytest.raises(HopfError, match="etale"):
        common_refinement(E, E)


def _reference_reduction_hom(G):
    """A good-reduction map Q -> GF(p) for an etale scheme over Q: the
    smallest prime dividing no denominator and not the discriminant."""
    disc = hopf.trace_discriminant(G)
    assert G.ring.is_unit(disc)
    M, C, S = G.sparse
    entries = [c for row in M for v in row for _, c in v] + [c for _, c in G.unit] + G.counit
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


def test_splitting_points_over_finite_fields():
    """The splitting field is found over GF(p), GF(p^k) and Z/p, which
    splitting_points reads as finite fields by their size."""
    for base, n, size in (("GF(7)", 3, 7), ("GF(2)", 3, 4),
                          ("GF(2^2;x^2+x+1)", 3, 4), ("GF(2^2;x^2+x+1)", 5, 16),
                          ("Z/3", 2, 3), ("Z/5", 3, 25)):
        G = mu(parse_ring(base), n)
        P, K, hom = splitting_points(G)
        assert (P.order, K.size(), hom.source, hom.target) == (n, size, G.ring, K), base
    with pytest.raises(HopfError, match="finite base field"):
        splitting_points(mu(parse_ring("Z/9"), 2))


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



def payload_outcome(run, G):
    """run(G).to_dict(), or the error it raises."""
    try:
        return run(G).to_dict()
    except (HopfError, RingError, InternalInconsistencyError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", SHARED_BASES)
def test_g_mod_1_payloads_match_a_run_with_nothing_shared(name, monkeypatch):
    """theorem and connected-etale on every builtin over the base, in its
    natural and a unitriangular basis, give the payloads, or the errors,
    of a run with nothing shared: G/1 made by the coinvariant elimination,
    with base changes, characters and points of its own, and the points
    of a rank-1 scheme by the general path (`_reference_points`).  Where
    G' is trivial, G/1 is G renamed."""
    R = parse_ring(name)
    rng = random.Random(f"nothing shared {name}")
    renamed = []
    real = hopf.GroupScheme.renamed
    monkeypatch.setattr(hopf.GroupScheme, "renamed",
                        lambda G, label: renamed.append(label) or real(G, label))
    trivial = 0
    for G in builtins_over(R):
        for basis, H in in_bases(G, rng):
            for run in (theorem_decompose, connected_etale_sequence):
                renamed.clear()
                got = payload_outcome(run, fresh(H))
                with monkeypatch.context() as patched:
                    patched.setattr(constructions, "_right_counit_law", lambda G, ident: False)
                    patched.setattr(hopf, "_points", _reference_points)
                    want = payload_outcome(run, fresh(H))
                assert got == want, (G.name, basis, run.__name__)
                if isinstance(got, dict):
                    kernel_order = (got.get("extension") or got)["kernel_order"]
                    assert bool(renamed) == (kernel_order == 1), (G.name, basis)
                    trivial += kernel_order == 1
    assert trivial, name


class _Frozen(list):
    """A list that refuses every change in place."""

    def _refuse(self, *args):
        raise AssertionError("a shared table row or kept point group was changed")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def _frozen(x):
    return _Frozen(map(_frozen, x)) if isinstance(x, list) else x


def test_no_caller_changes_a_shared_row_or_kept_points(monkeypatch):
    """G/1 shares G's table rows and its kept point groups, a base change
    shares G's rows or the image tables kept in G's store, and `points`
    hands the same PointGroup to every caller.  With G's tables and every
    image table frozen from the start, and every kept PointGroup frozen
    after a first run, theorem, connected-etale and the readers of points
    run again with the same payloads, and none of them changes a row."""
    imaged = []
    real = hopf.GroupScheme._mapped_tables

    def frozen_images(G, image):
        tables, unit = real(G, image)
        imaged.append(G)
        return tuple(map(_frozen, tables)), _frozen(unit)

    monkeypatch.setattr(hopf.GroupScheme, "_mapped_tables", frozen_images)
    shared = 0
    cases = [("const:Z6", "Q"), ("mu:15", "Zloc(7)"), ("const:S3", "GF(7)"),
             ("mu:6", "Z/25"), ("mu:10", "GF(11)"), ("const:Z10", "Dual(GF(3))"),
             ("ot2:2,-1", "Zloc(2)")]
    for spec, base in cases:
        R = parse_ring(base)
        [B] = built(spec, R)
        G = hopf.GroupScheme(R, B.rank, _frozen(list(B.sparse)), B.unit, B.counit, B.name)
        G.unit, G.counit = _Frozen(G.unit), _Frozen(G.counit)
        runs = [theorem_decompose]
        if R.is_field or R.is_finite:
            runs.append(connected_etale_sequence)
        first = [run(G).to_dict() for run in runs]
        assert first[0]["kernel_order"] == 1 or spec in ("mu:6", "ot2:2,-1"), spec
        shared += sum(H.sparse.mult is G.sparse.mult for H in G._base_changes.values())
        kept = list(G._point_groups.values())
        assert kept, spec
        for P in kept:
            P.elements, P.table = _Frozen(P.elements), _frozen(P.table)
        assert [run(G).to_dict() for run in runs] == first, spec
        for P in kept:
            AbstractGroup.from_points(P).identify()
            P.to_dict()
        for T in ring_family(R):
            if T.is_finite:
                P = points(G, T)
                assert points(G, T) is P
                AbstractGroup.from_points(P).identify()
    assert shared and imaged, (shared, imaged)


def _reference_base_change(G, hom):
    """G along hom entry by entry, as `GroupScheme.base_change` once made
    it: every nonzero entry mapped, and those sent to zero dropped."""
    f, nonzero = hom.fn, hom.target.nonzero
    M, C, S = G.sparse

    def image(entries):
        return [(x, d) for x, c in entries if nonzero(d := f(c))]

    tables = ([[image(v) for v in row] for row in M],
              [[(j, k, d) for j, k, c in terms if nonzero(d := f(c))] for terms in C],
              [image(v) for v in S])
    return hopf.GroupScheme(hom.target, G.rank, tables, image(G.unit),
                            [f(c) for c in G.counit], G.name)


def _typed(x):
    """x with the type of each entry: an int and the Fraction it equals,
    or (1,) and (Fraction(1),), differ here."""
    return [_typed(y) for y in x] if isinstance(x, (list, tuple)) else (type(x), x)


def _entries(G):
    return G.ring, G.rank, G.name, _typed([*G.sparse, G.unit, G.counit])


@pytest.mark.parametrize("name", SHARED_BASES)
def test_base_change_by_value_matches_the_entrywise_reference(name):
    """Every builtin over the base, in its natural and a unitriangular
    basis, and over Dual(k) one with eps-parts, base-changed to every test
    ring, to GF(4)-GF(32) where there is a map, and along the Frobenius
    twist, equals the entrywise reference in type as well as in value.
    Where the reference is the scheme itself the tables are G's own, and
    the test rings with equal images share one set; each base change keeps
    its own objects.  Off a field, coefficients sent to 0 are met (ot2
    over Zloc(2) -> GF(2), alpha_p and eps-parts over Dual(GF(p)) ->
    GF(p))."""
    R = parse_ring(name)
    rng = random.Random(f"base change {name}")
    targets = ring_family(R)
    targets += [T for T in (gf(2, k) for k in range(2, 6))
                if T not in targets and find_hom(R, T) is not None]
    dropped = own = shared = 0
    for G in builtins_over(R):
        schemes = [H for _, H in in_bases(G, rng)]
        if isinstance(R, DualNumbers):
            schemes.append(rebased(G, unitriangular(R, G.rank, rng, eps=True)))
        for H in schemes:
            tables = {}
            for T in targets:
                got = H.base_change(T)
                if T == R:
                    assert got is H
                    continue
                want = _reference_base_change(H, find_hom(R, T))
                assert _entries(got) == _entries(want), (G.name, T.name())
                assert got._kept is not H._kept
                if _typed(list(want.sparse)) == _typed(list(H.sparse)):
                    assert all(map(operator.is_, got.sparse, H.sparse)), (G.name, T.name())
                    own += 1
                dropped += nnz(want) < nnz(H)
                tables.setdefault(id(got.sparse.mult), []).append(T)
            shared += any(len(rings) > 1 for rings in tables.values())
            if R.char():
                p = R.char()
                twist = RingHom(R, R, lambda a, p=p: R.pow(a, p), f"x -> x^{p}")
                assert _entries(p_twist(H)) == _entries(_reference_base_change(H, twist))
    # rings with equal images, such as GF(4) to GF(32) over GF(2), or GF(p)
    # and Z/p^e over Zloc(p), share one set of tables
    assert shared or len([T for T in targets if T != R]) < 3, name
    # off a field: Zloc(p) -> Q and Z/n -> Z/d fix every entry of mu_n, and
    # entries divisible by p, or eps-parts, are sent to 0
    assert (own or isinstance(R, DualNumbers)) and dropped or R.is_field, name


def test_base_change_tells_an_int_from_the_fraction_it_equals():
    """Over Zloc(5) an entry may be the int 1 or Fraction(1), equal as
    values; each is its own coefficient, as a map may send them apart.  mu_6
    holding both, base-changed to Q, Dual(Q), GF(5), Z/25 and Dual(GF(5)),
    equals the entrywise reference in type as well as in value: GF(5) and
    Z/25 get ints, and Dual(Q) and Dual(GF(5)), whose images are equal as
    values, do not share tables."""
    R = parse_ring("Zloc(5)")
    B, count = mu(R, 6), itertools.count()

    def mixed(c):  # every other entry as a Fraction
        return Fraction(c) if next(count) % 2 else c

    M, C, S = B.sparse
    G = hopf.GroupScheme(R, 6, ([[[(x, mixed(c)) for x, c in v] for v in r] for r in M],
                                [[(j, k, mixed(c)) for j, k, c in t] for t in C],
                                [[(x, mixed(c)) for x, c in v] for v in S]),
                         B.unit, [mixed(c) for c in B.counit], B.name)
    assert {type(c) for c in G.counit} == {int, Fraction}
    for T in map(parse_ring, ("Q", "Dual(Q)", "GF(5)", "Z/25", "Dual(GF(5))")):
        want = _reference_base_change(G, find_hom(R, T))
        assert _entries(G.base_change(T)) == _entries(want), T.name()
    assert G.base_change(Q).sparse.mult is G.sparse.mult
    assert G.base_change(parse_ring("Dual(Q)")).sparse.mult is not \
        G.base_change(parse_ring("Dual(GF(5))")).sparse.mult


def test_etale_flag_reads_idempotents_and_kept_characters(monkeypatch):
    """No element of GF(5)^6 generates it, as it takes 6 values at the
    points, so const:Z6 and const:S3 over GF(5) have no presentation in
    any basis.  The flag reads an idempotent basis, the natural one or the
    partial sums e_0 + ... + e_a, without the trace discriminant.  In a
    unitriangular basis it reads the characters where they are kept, and
    never makes them: there the discriminant is made only without them."""
    real, discriminated = hopf.trace_discriminant, []
    monkeypatch.setattr(hopf, "trace_discriminant",
                        lambda G: discriminated.append(G) or real(G))
    sums = [[F5.one if d == c else F5.neg(F5.one) if d == c - 1 else F5.zero
             for d in range(6)] for c in range(6)]  # e_c = f_c - f_(c-1)
    for G in (constant_cyclic(F5, 6), constant(F5, s3_table())):
        dense_basis = unitriangular(F5, 6, random.Random(G.name))
        for H in (fresh(G), rebased(G, sums)):
            assert H.presentation.index is None and is_etale(H), H.name
            assert "field_characters" not in H._kept and not discriminated, H.name
        H, K = rebased(G, dense_basis), rebased(G, dense_basis)
        assert H.presentation.index is None
        assert len(K.field_characters) == 6
        assert is_etale(K) and not discriminated, G.name
        assert is_etale(H) and discriminated == [H], G.name
        assert "field_characters" not in H._kept
        discriminated.clear()


@pytest.mark.parametrize("name", SHARED_BASES)
def test_etale_flag_matches_the_discriminant(name, monkeypatch):
    """The kept flag, read by its rules, equals is_unit(trace_discriminant)
    on every builtin over the base and over each ring of its family, in
    its natural and a unitriangular basis.  Among them are fibers that are
    not etale (mu_p over GF(p), alpha_p, schemes over Dual(GF(p))), and
    schemes on which no basis vector generates, whose flag reads the
    discriminant (the Gram fallback); over Q none does."""
    R = parse_ring(name)
    rng = random.Random(f"etale {name}")
    discriminated = []
    real = hopf.trace_discriminant
    monkeypatch.setattr(hopf, "trace_discriminant",
                        lambda G: discriminated.append(G) or real(G))
    flags = set()
    for G in builtins_over(R):
        for basis, H in in_bases(G, rng):
            for T in ring_family(R):
                K = fresh(H).base_change(T)
                discriminated.clear()
                flag = is_etale(K)
                assert flag == T.is_unit(real(K)), (G.name, basis, T.name())
                flags.add((flag, bool(discriminated)))
    assert (True, False) in flags, flags
    assert (False, False) in flags or R.char() not in (2, 3), flags
    assert {(True, True), (False, True)} & flags or R == Q, flags
    assert not {(True, True), (False, True)} & flags or R != Q, flags
