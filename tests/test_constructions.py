import itertools
import operator
import random
from math import prod

import pytest

from ffgs.constructions import (ClosedSubgroup, IsoResult, alpha, constant,
                                constant_cyclic, conjugation_tensor,
                                direct_product, extension_witness,
                                find_isomorphism, ideal_closure, image,
                                intersect, inversion_action, is_normal,
                                kernel, mu, quotient, semidirect, tate_oort2,
                                trivial_subgroup, whole_subgroup)
from ffgs.hopf import (GroupScheme, GroupSchemeHom, HopfError,
                       VerificationReport, cartier_dual, convolution_power, dense,
                       map_tensor, nonzeros, points)
from ffgs import constructions, linalg
from ffgs.linalg import add_scaled, canonical_span, member, reduce_mod_span, row_kernel
from ffgs.oracle import AbstractGroup, s3_table
from ffgs.rings import RingError, parse_ring, prime_factors
from ffgs.structure import (_slot_product_map, internal_product, locus_report,
                            p_primary_decompose)
from ffgs.testrings import test_ring_family as ring_family
from test_hopf import (REFERENCE_BASES, assert_canonical_tables, builtins_over,
                       corrupted, dense_antipode, dense_comult, dense_lists, dense_mul,
                       dense_terms, dense_view, hypothesis_or_skip, in_bases)
from test_linalg import (RINGS, coeffs, dense_rows, identity_matrix, kernel_rows, mat_vec, span_rows,
                         sparse_rows, transpose, vec_add, vec_scale, vec_sub)

Q = parse_ring("Q")
F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")
ZL2 = parse_ring("Zloc(2)")


def hom(source, target, rows):
    """The homomorphism whose algebra map has the dense rows given."""
    return GroupSchemeHom(source, target, [nonzeros(source.ring, v) for v in rows])


def closure(G, rows):
    """ideal_closure of the elements with the dense rows given."""
    return ideal_closure(G, [nonzeros(G.ring, v) for v in rows])


def subgroup(G, rows):
    """The closed subgroup cut out by the span of the dense rows given."""
    return ClosedSubgroup(G, sparse_rows(G.ring, rows))


def ideal_rows(H):
    """The rows of H's ideal as dense lists."""
    return dense_rows(H.ambient.ring, H.ambient.rank, H.ideal)


def is_in(R, span, v):
    """member of the dense vector v in the span."""
    return member(R, span, nonzeros(R, v))


def test_tate_oort2_requires_ab_minus_two():
    with pytest.raises(HopfError):
        tate_oort2(ZL2, ZL2.one, ZL2.one)


def test_tate_oort2_mu2_and_z2():
    # ot2(-2, 1) is mu_2 via t -> 1 + x; ot2(1, -2) is the constant Z/2
    one, zero = ZL2.one, ZL2.zero
    G = tate_oort2(ZL2, ZL2.parse("-2"), one)
    f = hom(G, mu(ZL2, 2), [[one, zero], [one, one]])
    assert f.is_valid().ok
    assert f.is_module_iso()
    H = tate_oort2(ZL2, one, ZL2.parse("-2"))
    g = hom(H, constant_cyclic(ZL2, 2), [[one, ZL2.parse("-1")], [zero, one]])
    assert g.is_valid().ok
    assert g.is_module_iso()


def test_tate_oort2_unit_scaling():
    # x -> u x identifies ot2(a, b) with ot2(ua, b/u)
    a = ZL2.parse("-2/3")
    b = ZL2.parse("3")
    G = tate_oort2(ZL2, a, b)
    u = ZL2.parse("5")
    Gu = tate_oort2(ZL2, ZL2.mul(u, a), ZL2.mul(b, ZL2.inv(u)))
    # basis 1, x: the scaling map pulls back x_u to u x
    f = hom(G, Gu, [[ZL2.one, ZL2.zero], [ZL2.zero, u]])
    assert f.is_valid().ok
    assert f.is_module_iso()


def test_semidirect_points_are_s3():
    Gmu = mu(F7, 3)
    table = [[0, 1], [1, 0]]
    G = semidirect(Gmu, table, inversion_action(Gmu, table))
    assert G.verify().ok
    assert not G.is_commutative()
    P = points(G, F7)
    assert AbstractGroup.from_points(P).identify() == "S3"


def test_direct_product():
    G = direct_product(mu(F5, 2), constant_cyclic(F5, 3))
    assert G.verify().ok
    assert G.rank == 6
    P = points(G, F5)
    assert P.order == 6
    assert AbstractGroup.from_points(P).is_abelian()


def test_kernel_image_quotient_of_doubling():
    G = mu(F5, 4)
    f = convolution_power(G, 2)
    K = kernel(f)
    assert K.order == 2
    assert K.verify_hopf_ideal().ok
    I = image(f)
    assert I.order == 2
    flag, _ = is_normal(K)
    assert flag
    Gbar, proj = quotient(G, K)
    assert Gbar.rank == 2
    assert proj.is_valid().ok
    assert find_isomorphism(Gbar, mu(F5, 2)).status == "iso"


def test_subgroup_scheme_and_inclusion():
    G = mu(Q, 6)
    K = kernel(convolution_power(G, 3))
    H = K.scheme()
    assert H.verify().ok
    assert H.rank == 3
    inc = K.inclusion()
    assert inc.is_valid().ok


def test_intersect():
    G = mu(Q, 6)
    K2 = kernel(convolution_power(G, 2))
    K3 = kernel(convolution_power(G, 3))
    both = intersect(K2, K3)
    assert both.order == 1
    assert intersect(K2, whole_subgroup(G)).ideal == K2.ideal
    assert intersect(K2, trivial_subgroup(G)).order == 1


def test_normality_in_s3():
    G = constant(Q, s3_table())
    # the order-3 rotation subgroup is normal
    from ffgs.structure import order_p_subgroup
    H3 = order_p_subgroup(G, 3)
    assert H3.order == 3
    assert is_normal(H3)[0]


def test_nonnormal_subgroup_detected():
    G = constant(F5, s3_table())
    P = points(G, F5)
    # the subgroup generated by a transposition: basis functions constant on it
    A = AbstractGroup.from_points(P)
    refl = next(i for i in range(6) if A.element_order(i) == 2)
    sub = {A.identity, refl}
    # ideal of functions vanishing on sub = span of e_g for g outside sub
    from ffgs.constructions import ClosedSubgroup
    rows = [e for g, e in enumerate(identity_matrix(F5, 6)) if g not in sub]
    H = subgroup(G, rows)
    assert H.order == 2
    assert H.verify_hopf_ideal().ok
    assert not is_normal(H)[0]


def test_extension_witness_ledger():
    G = mu(F5, 4)
    K = kernel(convolution_power(G, 2))
    E = extension_witness(G, K)
    assert E.kernel.order == 2
    assert E.quotient.rank == 2
    assert len(E.ledger) >= 1
    for entry in E.ledger:
        assert entry["left_injective"]
        assert entry["exact_middle"]


def test_find_isomorphism_negative():
    res = find_isomorphism(mu(F5, 4), direct_product(mu(F5, 2), mu(F5, 2)))
    assert res.status == "no"


def test_alpha_selfdual():
    from ffgs.hopf import cartier_dual
    F3 = parse_ring("GF(3)")
    G = alpha(F3, 3)
    res = find_isomorphism(cartier_dual(G), G)
    assert res.status == "iso"


def _reference_find_isomorphism(G, H, budget=200000):
    """find_isomorphism as it was: the generator of Hopf(H) is the first
    basis vector whose powers span, by canonical_span and member, else the
    first of the bounded scan."""
    if G.ring != H.ring:
        return IsoResult("no", reason="different base rings")
    if G.rank != H.rank:
        return IsoResult("no", reason=f"orders {G.rank} and {H.rank}")
    if G.is_commutative() != H.is_commutative():
        return IsoResult("no", reason="one group law is commutative, one is not")
    for Rp in ring_family(G.ring):
        if not Rp.is_finite:
            continue
        try:
            PG, PH = points(G, Rp), points(H, Rp)
        except (HopfError, RingError):
            continue
        if PG.order != PH.order or not AbstractGroup.from_points(PG).is_isomorphic_to(
                AbstractGroup.from_points(PH)):
            return IsoResult("no")
    R = G.ring
    if not R.is_finite:
        return IsoResult("unknown")

    basis = identity_matrix(R, H.rank)

    def powers_of(v):
        powers = [dense_view(H).unit]
        for _ in range(H.rank - 1):
            powers.append(dense_mul(H, powers[-1], list(v)))
        return powers

    def generates(powers):
        span = canonical_span(R, sparse_rows(R, powers))
        return all(member(R, span, nonzeros(R, e)) for e in basis)

    gen_powers = None
    for i in range(H.rank):
        powers = powers_of(basis[i])
        if generates(powers):
            gen_powers = powers
            break
    if gen_powers is None and len(list(R.elements())) ** H.rank <= 4096:
        for v in itertools.product(R.elements(), repeat=H.rank):
            powers = powers_of(list(v))
            if generates(powers):
                gen_powers = powers
                break
    if gen_powers is None:
        return constructions._exhaustive_isomorphism(G, H, budget)
    exprs = [coeffs(R, gen_powers, e) for e in basis]
    for count, v in enumerate(itertools.product(list(R.elements()), repeat=G.rank)):
        if count >= budget:
            return IsoResult("unknown")
        vpow = [dense_view(G).unit]
        for _ in range(H.rank - 1):
            vpow.append(dense_mul(G, vpow[-1], list(v)))
        f = hom(G, H, [add_scaled(R, [R.zero] * G.rank, zip(exprs[j], vpow))
                       for j in range(H.rank)])
        if f.is_module_iso() and f.is_valid():
            return IsoResult("iso", hom=f)
    return IsoResult("no")


def iso_cases():
    """The (G, H) that the tests give find_isomorphism, and rank 1 over
    six finite bases, one of them larger than the budget of the module-map
    scan."""
    F2, F3, Z4 = parse_ring("GF(2)"), parse_ring("GF(3)"), parse_ring("Z/4")
    G = mu(F5, 4)
    yield quotient(G, kernel(convolution_power(G, 2)))[0], mu(F5, 2)
    yield G, direct_product(mu(F5, 2), mu(F5, 2))
    yield cartier_dual(alpha(F3, 3)), alpha(F3, 3)
    for G in (mu(F2, 2), mu(F3, 3), alpha(F2, 2), alpha(F3, 3),
              constant_cyclic(F3, 2), constant_cyclic(F2, 3)):
        R, p = G.ring, G.rank
        yield from ((G, M) for M in (mu(R, p), constant_cyclic(R, p),
                                     *([alpha(R, p)] if R.char() == p else [])))
    yield locus_report(mu(ZL2, 2), 2).subgroup.scheme().base_change(Z4), mu(Z4, 2)
    yield locus_report(constant(F5, s3_table()), 3).subgroup.scheme(), constant_cyclic(F5, 3)
    for name in ("GF(2)", "GF(5)", "GF(2^2;x^2+x+1)", "Z/6", "Dual(GF(3))", "GF(200003)"):
        R = parse_ring(name)
        yield mu(R, 1), constant_cyclic(R, 1)


def test_find_isomorphism_matches_the_basis_loop_reference():
    """The generator of Hopf(H) is the presentation's basis vector, else the
    first of the bounded scan; the map found equals the old basis loop's on
    every iso case and on rank 1."""
    found = set()
    for G, H in iso_cases():
        got, want = find_isomorphism(G, H), _reference_find_isomorphism(G, H)
        assert got.status == want.status, (G.name, H.name)
        if got.status == "iso":
            assert got.hom.alg == want.hom.alg, (G.name, H.name)
        found.add(got.status)
    assert found == {"iso", "no"}


# -- span-based references for the projection checks ----------------------
# They decide membership in I (x) A + A (x) I, A (x) I and B (x) B inside
# the flattened m*m-wide A (x) A, whose elements come as (j, k, c) triples.

PROJECTION_BASES = ["GF(5)", "GF(2^2;x^2+x+1)", "Q", "Zloc(2)", "Zloc(3)",
                    "Z/35", "Dual(GF(5))"]


def _flatten(G, tensor):
    out = [G.ring.zero] * (G.rank * G.rank)
    for j, k, c in tensor:
        out[j * G.rank + k] = c
    return out


def _triples(tensor):
    """The (j, k, c) of a tensor given as {(j, k): c}."""
    return [(j, k, c) for (j, k), c in tensor.items()]


def _ref_verify_hopf_ideal(H):
    G, I, D = H.ambient, H.ideal, ideal_rows(H)
    R, m = G.ring, G.rank
    for t, v in enumerate(D):
        for i, e in enumerate(identity_matrix(R, m)):
            if not is_in(R, I, dense_mul(G, v, e)):
                return VerificationReport(False, "ideal-closure", (t, i))
    for t, v in enumerate(D):
        if R.dot(G.counit, v) != R.zero:
            return VerificationReport(False, "augmentation", (t,))
    rows = []
    for v in D:
        for k in range(m):
            rows.append(_flatten(G, [(j, k, c) for j, c in enumerate(v)]))
            rows.append(_flatten(G, [(k, j, c) for j, c in enumerate(v)]))
    mixed = canonical_span(R, sparse_rows(R, rows))
    for t, v in enumerate(D):
        if not is_in(R, mixed, _flatten(G, _triples(dense_comult(G, v)))):
            return VerificationReport(False, "coideal", (t,))
    for t, v in enumerate(D):
        if not is_in(R, I, dense_antipode(G, v)):
            return VerificationReport(False, "antipode-stability", (t,))
    return VerificationReport(True)


def _ref_is_normal(H):
    G = H.ambient
    R = G.ring
    span = canonical_span(R, sparse_rows(R, [
        _flatten(G, [(k, j, c) for j, c in enumerate(v)])
        for k in range(G.rank) for v in ideal_rows(H)
    ]))
    for t, v in enumerate(H.ideal):
        if not is_in(R, span, _flatten(G, conjugation_tensor(G, v))):
            return False, t
    return True, None


def _ref_quotient_comult(G, B):
    """The dense comult of the quotient on the dense basis B."""
    R = G.ring
    rB = len(B)
    rows = [_flatten(G, [(j, k, R.mul(x, y))
                         for j, x in enumerate(a) if x != R.zero
                         for k, y in enumerate(b) if y != R.zero])
            for a in B for b in B]
    out = []
    for b in B:
        c = coeffs(R, rows, _flatten(G, _triples(dense_comult(G, b))))
        out.append([c[x * rB:(x + 1) * rB] for x in range(rB)])
    return out


def _s3_sdp(R):
    Gmu = mu(R, 3)
    table = [[0, 1], [1, 0]]
    return semidirect(Gmu, table, inversion_action(Gmu, table))


def _augmentation_elements(G, rng):
    """One or two random elements of the augmentation ideal."""
    R = G.ring
    els = list(R.elements()) if R.is_finite else [R.from_int(i)
                                                  for i in range(-3, 4)]
    gens = []
    for _ in range(rng.randint(1, 2)):
        v = [rng.choice(els) if rng.random() < 0.25 else R.zero
             for _ in range(G.rank)]
        eps = R.dot(G.counit, v)
        gens.append([R.sub(c, R.mul(eps, u)) for c, u in zip(v, dense_view(G).unit)])
    return gens


def _twisted_antipode(G, j):
    """G with S(e_j) + 1 in place of S(e_j): a bialgebra whose antipode
    moves each v of the augmentation ideal with v_j != 0 out of it."""
    R = G.ring
    M, C, S = G.sparse
    moved = vec_add(R, dense_view(G).antipode[j], dense_view(G).unit)
    S = S[:j] + [[(x, c) for x, c in enumerate(moved) if R.nonzero(c)]] + S[j + 1:]
    return GroupScheme(R, G.rank, (M, C, S), G.unit, G.counit,
                       f"{G.name} (twisted antipode)")


def _seeded_ideals(G, rng, count):
    """Ideal closures of random elements of the augmentation ideal and,
    for constant groups, ideals of functions vanishing on a random subset
    of points: most are not Hopf ideals.  Then the spans of such elements
    alone, most of them no ideals, and the augmentation ideal in G with a
    twisted antipode, a Hopf ideal but for antipode stability."""
    for s in range(count):
        if s % 2 and (G.name or "").startswith("constant"):
            keep = {0} | {g for g in range(1, G.rank) if rng.random() < 0.4}
            rows = [e for g, e in enumerate(identity_matrix(G.ring, G.rank)) if g not in keep]
            yield subgroup(G, rows)
            continue
        yield ClosedSubgroup(G, closure(G, _augmentation_elements(G, rng)))
    for _ in range(count // 2):
        yield subgroup(G, _augmentation_elements(G, rng))
    J = trivial_subgroup(G).ideal
    yield ClosedSubgroup(_twisted_antipode(G, J.cols[0]), J)


@pytest.mark.parametrize("spec", PROJECTION_BASES)
def test_projection_checks_match_span_reference(spec):
    R = parse_ring(spec)
    seen = set()
    for G in (mu(R, 4), constant(R, s3_table()), _s3_sdp(R)):
        rng = random.Random(f"{spec} {G.name}")
        for H in _seeded_ideals(G, rng, 6):
            rep = H.verify_hopf_ideal()
            if rep.axiom == "not-flat":
                # a non-unit pivot: A/I is not free on the free columns, and
                # normality, read through pi, has no verdict, on every call
                for _ in range(2):
                    with pytest.raises(HopfError, match="non-unit pivot"):
                        H.quotient_data()
                    with pytest.raises(HopfError, match="non-unit pivot"):
                        is_normal(H)
                seen.add(rep.axiom)
                continue
            ref = _ref_verify_hopf_ideal(H)
            assert (rep.ok, rep.axiom, rep.witness) == \
                (ref.ok, ref.axiom, ref.witness), (G.name, H.ideal)
            normal = is_normal(H)
            assert normal == _ref_is_normal(H), (G.name, H.ideal)
            seen |= {rep.axiom, normal[0]}
    # every base meets ideals that fail each projection check and normality
    assert {"ideal-closure", "coideal", "antipode-stability", False} <= seen


def quotient_cases(R):
    """Normal subgroups (G, H) whose quotients have rank 2 to 6."""
    S3 = constant(R, s3_table())
    A = AbstractGroup(s3_table())
    rotations = {g for g in range(6) if A.element_order(g) != 2}
    G4, G6 = mu(R, 4), mu(R, 6)
    # mu_2 x S3 -> S3 has a non-cocommutative quotient
    GxS3 = direct_product(mu(R, 2), S3)
    to_s3 = GroupSchemeHom(GxS3, S3, [GxS3.basis_vector(g) for g in range(6)])
    A3 = subgroup(S3, [e for g, e in enumerate(identity_matrix(R, 6))
                       if g not in rotations])
    assert A3.verify_hopf_ideal()
    return [
        (GxS3, kernel(to_s3)),
        (G4, kernel(convolution_power(G4, 2))),
        (G6, kernel(convolution_power(G6, 2))),
        (G6, kernel(convolution_power(G6, 3))),
        (S3, A3),
    ]


@pytest.mark.parametrize("spec", PROJECTION_BASES)
def test_quotient_comult_matches_span_reference(spec):
    R = parse_ring(spec)
    for G, H in quotient_cases(R):
        Gbar, proj = quotient(G, H)
        B = [dense(R, G.rank, v) for v in proj.alg]
        assert dense_view(Gbar).comult == _ref_quotient_comult(G, B)
        assert Gbar.verify().ok
        # products, subgroup schemes and quotients build their tables
        # directly; they are what the constructor makes of the dense lists
        for S in (G, H.scheme(), Gbar):
            assert_canonical_tables(S, (spec, G.name, H.ideal))


def test_closed_subgroup_keeps_a_canonical_span(monkeypatch):
    """A canonical Span, as kernel, image and identity_core make, is kept
    as given; other rows are echelonized to the same basis."""
    G = mu(F5, 6)
    span = kernel(convolution_power(G, 2)).ideal
    calls = []
    real = constructions.canonical_span
    monkeypatch.setattr(constructions, "canonical_span",
                        lambda R, rows: calls.append(rows) or real(R, rows))
    assert ClosedSubgroup(G, span).ideal is span and not calls
    H = ClosedSubgroup(G, list(reversed(span)))
    assert H.ideal == span and len(calls) == 1
    assert intersect(H, H).ideal == span


def test_non_unit_pivot_is_not_flat():
    # in mu_2 over Zloc(2), the ideal closure of (-2, 2) has pivot 2
    G = mu(ZL2, 2)
    H = ClosedSubgroup(G, closure(G, [[ZL2.from_int(-2), ZL2.from_int(2)]]))
    rep = H.verify_hopf_ideal()
    assert (rep.ok, rep.axiom, rep.witness) == (False, "not-flat", (0,))
    with pytest.raises(HopfError):
        H.quotient_data()
    # every other check reads pi, so a non-flat span that is no ideal
    # (2(x - 1) in mu_4, whose product with x is outside it) is not-flat too
    G = mu(ZL2, 4)
    H = subgroup(G, [[ZL2.from_int(-2), ZL2.from_int(2), ZL2.zero, ZL2.zero]])
    assert not is_in(ZL2, H.ideal, dense_mul(G, ideal_rows(H)[0], identity_matrix(ZL2, 4)[1]))
    rep = H.verify_hopf_ideal()
    assert (rep.ok, rep.axiom, rep.witness) == (False, "not-flat", (0,))


def _tensor_rows(G, tensor):
    """A tensor of A (x) A, given by its (j, k, c), as the m x m matrix
    whose row j is the second factor paired with e_j."""
    R = G.ring
    rows = [[R.zero] * G.rank for _ in range(G.rank)]
    for j, k, c in tensor:
        rows[j][k] = c
    return rows


def _reference_quotient(G, H):
    """quotient as it was: one augmented elimination per coordinate
    vector, 3m^2 + O(m) of them."""
    R = G.ring
    m = G.rank
    P = transpose([dense(R, H.order, row) for row in H.quotient_data()[1]])
    punit = mat_vec(R, P, dense_view(G).unit)
    cols = []
    for i in range(m):
        half = [mat_vec(R, P, row) for row in _tensor_rows(G, dense_terms(G, i))]
        half[i] = vec_sub(R, half[i], punit)
        cols.append([c for row in half for c in row])
    B = span_rows(R, kernel_rows(R, cols))
    if not B:
        raise HopfError("coinvariants are zero")
    if len(B) * H.order != m:
        raise HopfError(
            f"quotient rank {len(B)} times subgroup order {H.order} "
            f"misses the ambient order {m}"
        )
    # the removed linalg.pivot_columns, which scanned each row for its pivot
    cols = [next(c for c, x in enumerate(row) if R.nonzero(x)) for row in B]
    if not all(R.is_unit(row[c]) for row, c in zip(B, cols)):
        raise HopfError("coinvariants are not free on their basis (non-unit pivot)")
    def coords(v, failure="coinvariant algebra is not closed as expected"):
        c = coeffs(R, B, v)
        if c is None:
            raise HopfError(failure)
        return c
    rB = len(B)
    mult = [[coords(dense_mul(G, B[a], B[b])) for b in range(rB)] for a in range(rB)]
    unit = coords(dense_view(G).unit)
    no_restrict = "comultiplication does not restrict to coinvariants"
    comult = []
    for b in B:
        rows = [coords(row, no_restrict)
                for row in _tensor_rows(G, _triples(dense_comult(G, b)))]
        comult.append(transpose([coords(w, no_restrict) for w in transpose(rows)]))
    counit = [R.dot(G.counit, B[a]) for a in range(rB)]
    antipode = [coords(dense_antipode(G, B[a])) for a in range(rB)]
    return (mult, unit, comult, counit, antipode), B


def _quotient_tensors(G, H):
    Gbar, proj = quotient(G, H)
    return tuple(dense_lists(Gbar).values()), [dense(G.ring, G.rank, v) for v in proj.alg]


def quotient_outcome(quotient_of, G, H):
    """(every tensor of G/H, the basis of its coinvariants), or the error."""
    try:
        return quotient_of(G, H)
    except HopfError as exc:
        return "HopfError", str(exc)


@pytest.mark.parametrize("spec", PROJECTION_BASES)
def test_quotient_matches_reference(spec):
    R = parse_ring(spec)
    S3 = constant(R, s3_table())
    G4 = mu(R, 4)
    # the trivial and the whole subgroup, and a failure: the order-2
    # subgroup {0, 1} of S3 is not normal, so the comultiplication does not
    # restrict to the functions on its cosets
    flip = subgroup(S3, identity_matrix(R, 6)[2:])
    assert flip.verify_hopf_ideal()
    cases = quotient_cases(R) + [
        (G4, trivial_subgroup(G4)), (G4, whole_subgroup(G4)), (S3, flip),
    ]
    outcomes = set()
    for G, H in cases:
        want = quotient_outcome(_reference_quotient, G, H)
        assert quotient_outcome(_quotient_tensors, G, H) == want, (G.name, H.order)
        outcomes.add(want[0] == "HopfError")
    assert outcomes == {True, False}


# REFERENCE_BASES and rings of their test-ring families: more fields, Z/n
# with one and two primes, and dual numbers over a non-prime field
SHARED_BASES = REFERENCE_BASES + ["GF(7)", "GF(2^3;x^3+x^2+1)", "Z/4", "Z/8", "Z/12",
                                  "Z/35", "Zloc(5)", "Dual(GF(5))",
                                  "Dual(GF(2^2;x^2+x+1))"]


def _sample_elements(R):
    return list(R.elements()) if R.is_finite else \
        [R.from_int(i) for i in range(-4, 5)] + [R.inv(R.from_int(7)), R.from_int(10)]


@pytest.mark.parametrize("name", SHARED_BASES)
def test_trivial_subgroup_writes_the_kernel_row_kernel_reads(name, monkeypatch):
    """ker(counit) written in canonical form (`_augmentation_rows`) equals
    what row_kernel reads, rows, pivots and non-unit pivot alike: on every
    builtin in its natural and a unitriangular basis, and on random counit
    vectors.  Every natural basis takes the written form, with no
    elimination."""
    R = parse_ring(name)
    rng = random.Random(f"augmentation {name}")
    eliminated = []
    real = constructions.row_kernel
    monkeypatch.setattr(constructions, "row_kernel",
                        lambda R, rows: eliminated.append(1) or real(R, rows))
    els = _sample_elements(R)
    cases = [(basis, H.counit) for G in builtins_over(R) for basis, H in in_bases(G, rng)]
    cases += [("random", [rng.choice(els) for _ in range(rng.randint(1, 6))])
              for _ in range(40)]
    written = set()
    for basis, eps in cases:
        m = len(eps)
        G = GroupScheme(R, m, ([[[]] * m] * m, [[]] * m, [[]] * m), [], eps)
        eliminated.clear()
        got = trivial_subgroup(G).ideal
        want = real(R, [nonzeros(R, [c]) for c in eps])
        assert (got, got.cols, got.nonunit) == (want, want.cols, want.nonunit), (basis, eps)
        if not eliminated:
            written.add(basis)
        assert basis != "natural" or not eliminated, eps
    assert "natural" in written


def _counit_law_holds(G):
    """(id (x) eps) Delta(e_i) = e_i for every i, summed on the dense
    tables."""
    R, m, D = G.ring, G.rank, dense_view(G)
    return all(R.dot(D.comult[i][j], G.counit) == (R.one if i == j else R.zero)
               for i in range(m) for j in range(m))


@pytest.mark.parametrize("name", SHARED_BASES)
def test_quotient_by_the_trivial_subgroup_is_the_scheme(name, monkeypatch):
    """G/1 by ker(counit), where the counit law holds, is made with no
    elimination: it has G's own tables under the quotient's name, and
    reads G's kept objects.  Its tensors and projection equal the
    coinvariant elimination it replaces (`_reference_quotient`), on every
    builtin in its natural and a unitriangular basis.  A copy with one
    comultiplication entry moved takes the elimination where the law
    fails, with the reference's outcome, error included, and so does the
    ideal of a point other than the identity, of order 1 too."""
    R = parse_ring(name)
    rng = random.Random(f"G/1 {name}")
    eliminated = []
    real = constructions.row_kernel
    monkeypatch.setattr(constructions, "row_kernel",
                        lambda R, rows: eliminated.append(1) or real(R, rows))
    shared = unshared = points_apart = 0
    for G in builtins_over(R):
        for basis, H in in_bases(G, rng):
            for K in (H, corrupted(H, "comult", rng)):
                S = trivial_subgroup(K)
                want = quotient_outcome(_reference_quotient, K, S)
                eliminated.clear()
                assert quotient_outcome(_quotient_tensors, K, S) == want, (G.name, basis)
                if S.ideal.nonunit is not None:
                    assert want == ("HopfError",
                                    "quotient is not a free module (non-unit pivot)")
                    continue
                law = _counit_law_holds(K)
                assert bool(eliminated) != law, (G.name, basis)
                if not law:
                    unshared += 1
                    continue
                Kbar, proj = quotient(K, S)
                assert all(map(operator.is_, Kbar.sparse, K.sparse)) and Kbar._kept is K._kept
                assert (Kbar.unit, Kbar.counit) == (K.unit, K.counit)
                assert Kbar.name == (f"{K.name}/H" if K.name else None)
                assert proj.alg == [K.basis_vector(i) for i in range(K.rank)]
                shared += 1
                if K is not H:  # a corruption the counit law does not see
                    continue
                for chi in points(K, R).elements if R.is_field and R.is_finite else ():
                    if list(chi) == K.counit:
                        continue
                    # ker(chi), the ideal of the point chi: order 1, not ker(counit)
                    P = ClosedSubgroup(K, real(R, [nonzeros(R, [c]) for c in chi]))
                    want = quotient_outcome(_reference_quotient, K, P)
                    eliminated.clear()
                    assert quotient_outcome(_quotient_tensors, K, P) == want, (G.name, chi)
                    assert P.order == 1 and eliminated, (G.name, chi)
                    points_apart += 1
                # the kept objects are G's: made on either, read on the other
                assert Kbar.etale is K.etale and K.presentation is Kbar.presentation
                for T in [T for T in ring_family(R) if T != R][:2]:
                    assert Kbar.base_change(T) is K.base_change(T)
                    assert points(Kbar, T) is points(K, T)
                assert Kbar.torsion_subschemes is not K.torsion_subschemes
    assert shared >= len(builtins_over(R)) and unshared, (shared, unshared)
    assert points_apart or not (R.is_field and R.is_finite), name


def _tensor_path_is_normal(H):
    """is_normal by the conjugation tensors for every Delta: the first t
    with (id (x) pi) ad(v_t) != 0."""
    G, R = H.ambient, H.ambient.ring
    ident = [[(j, R.one)] for j in range(G.rank)]
    pb = H.quotient_data()[1]
    return next(((False, t) for t, v in enumerate(H.ideal)
                 if map_tensor(R, ident, pb, conjugation_tensor(G, v))), (True, None))


def _normal_outcome(check, H):
    try:
        return check(H)
    except HopfError as exc:
        return "HopfError", str(exc)


@pytest.mark.parametrize("name", SHARED_BASES)
def test_normality_without_tensors_for_a_cocommutative_delta(name, monkeypatch):
    """is_normal equals the tensor path, a non-flat ideal raising on both:
    on every builtin over the base, in its natural and a unitriangular
    basis, for the trivial and whole subgroups, the kernels of [p] and
    seeded ideals with a twisted antipode among them, and over
    PROJECTION_BASES on the corpus of
    test_projection_checks_match_span_reference.  Where Delta is
    cocommutative it makes no conjugation tensor."""
    R = parse_ring(name)
    rng = random.Random(f"normal {name}")
    made = []
    real = constructions.conjugation_tensor
    monkeypatch.setattr(constructions, "conjugation_tensor",
                        lambda G, v: made.append(G) or real(G, v))
    cases = []
    for G in builtins_over(R):
        for _, H in in_bases(G, rng):
            cases += [trivial_subgroup(H), whole_subgroup(H)]
            cases += _seeded_ideals(H, rng, 2) if H.rank > 1 else []
            if H.is_commutative():
                cases += [kernel(convolution_power(H, p)) for p in prime_factors(H.rank)]
    if name in PROJECTION_BASES:
        for G in (mu(R, 4), constant(R, s3_table()), _s3_sdp(R)):
            cases += _seeded_ideals(G, random.Random(f"{name} {G.name}"), 6)
    seen = set()
    for K in cases:
        made.clear()
        got = _normal_outcome(is_normal, K)
        assert got == _normal_outcome(_tensor_path_is_normal, K), (K.ambient.name, K.ideal)
        commutative = K.ambient.is_commutative()
        assert not (commutative and made), (K.ambient.name, K.ideal)
        seen.add((commutative, got[0]))
    # both paths meet normal and non-normal verdicts; off a field, a
    # cocommutative Delta meets non-flat ideals, which still raise
    assert {(True, True), (False, True), (False, False)} <= seen, seen
    assert R.is_field or (True, "HopfError") in seen, seen


def test_quotient_of_a_span_that_is_no_ideal_is_not_closed():
    # x^3 + 1 and x + x^2 + x^3 span no ideal of mu_4 over GF(2), and the
    # product of two coinvariants falls outside their span
    F2 = parse_ring("GF(2)")
    G = mu(F2, 4)
    H = subgroup(G, [[F2.from_int(c) for c in row]
                     for row in ([1, 0, 0, 1], [0, 1, 1, 1])])
    rep = H.verify_hopf_ideal()
    assert (rep.ok, rep.axiom, rep.witness) == (False, "ideal-closure", (0, 1))
    want = ("HopfError", "coinvariant algebra is not closed as expected")
    assert quotient_outcome(_reference_quotient, G, H) == want
    assert quotient_outcome(_quotient_tensors, G, H) == want


def test_quotient_eliminates_each_basis_once(monkeypatch):
    # the coordinates in the coinvariant basis are read off its pivots; the
    # reference makes 204 eliminations here
    G = mu(Q, 8)
    H = trivial_subgroup(G)
    calls = []
    real = linalg.echelon
    monkeypatch.setattr(linalg, "echelon",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    Gbar, _ = quotient(G, H)
    assert Gbar.rank == 8
    assert len(calls) <= 3, len(calls)


@pytest.mark.parametrize("spec", ["GF(5)", "Zloc(2)"])
def test_quotient_data_is_built_once_per_subgroup(monkeypatch, spec):
    """verify_hopf_ideal, scheme, inclusion and quotient read one kept
    quotient_data, and nothing is reduced modulo the ideal: pi is read
    off its canonical rows."""
    reduced = []
    real = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda R, rows, v: reduced.append(rows) or real(R, rows, v))
    for G, H in quotient_cases(parse_ring(spec)):
        K = ClosedSubgroup(G, H.ideal)
        reduced.clear()
        assert K.verify_hopf_ideal()
        assert K.inclusion().source.verify()
        assert K.scheme().rank == K.order
        quotient(G, K)
        assert K.quotient_data() is K.quotient_data()
        assert sum(rows is K.ideal for rows in reduced) == 0


def _reference_projection(H):
    """quotient_data as it was made: each basis vector reduced modulo the
    ideal, read at the free columns."""
    G = H.ambient
    free_cols = [j for j in range(G.rank) if j not in H.ideal.cols]
    reduced = [dense(G.ring, G.rank, reduce_mod_span(G.ring, H.ideal, nonzeros(G.ring, e)))
               for e in identity_matrix(G.ring, G.rank)]
    return free_cols, [[w[c] for c in free_cols] for w in reduced]


@pytest.mark.parametrize("spec", PROJECTION_BASES)
def test_projection_read_off_the_rows_matches_reduction(monkeypatch, spec):
    """pi read off the canonical rows equals reduction modulo the ideal on
    every subgroup of quotient_cases and on the trivial and the whole
    subgroup, and quotient_data makes no reduction at all."""
    R = parse_ring(spec)
    reduced = []
    real = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda R, rows, v: reduced.append(rows) or real(R, rows, v))
    for G, H in quotient_cases(R):
        for K in (ClosedSubgroup(G, H.ideal), trivial_subgroup(G), whole_subgroup(G)):
            reduced.clear()
            free_cols, pb = K.quotient_data()
            assert reduced == [], (G.name, K.order)
            assert (free_cols, [dense(R, K.order, row) for row in pb]) == \
                _reference_projection(K), (spec, G.name, K.order)


@pytest.mark.parametrize("spec", PROJECTION_BASES)
def test_canonical_unit_pivots_are_one_and_clear_their_columns(spec):
    """What pi and the quotient's kappa are read off (`linalg.Span`): in a
    canonical span each unit pivot is R.one and every row is zero at the
    pivot column of each other row whose pivot is a unit."""
    hyp, st, settings = hypothesis_or_skip()
    R = parse_ring(spec)
    els = list(R.elements()) if R.is_finite else \
        [R.from_int(i) for i in range(-4, 5)] + [R.inv(R.from_int(7))]
    entry = st.sampled_from(els + [R.zero] * len(els))
    seen = set()

    @settings
    @hyp.given(st.integers(1, 6).flatmap(
        lambda w: st.lists(st.lists(entry, min_size=w, max_size=w), min_size=1, max_size=5)))
    def check(rows):
        span = canonical_span(R, sparse_rows(R, rows))
        D = dense_rows(R, len(rows[0]), span)
        for t, (row, c) in enumerate(zip(D, span.cols)):
            seen.add(R.is_unit(row[c]))
            if R.is_unit(row[c]):
                assert row[c] == R.one, (rows, t)
                assert not [s for s, other in enumerate(D)
                            if s != t and R.nonzero(other[c])], (rows, t)

    check()
    assert True in seen


def test_subgroup_verdicts_are_made_once(monkeypatch):
    """A subgroup keeps its Hopf-ideal report, normality verdict and
    scheme: asking again reads them, and no ad(v) is made twice."""
    conjugated = []
    real = constructions.conjugation_tensor
    monkeypatch.setattr(constructions, "conjugation_tensor",
                        lambda G, v: conjugated.append(v) or real(G, v))
    G = constant(parse_ring("GF(5)"), s3_table())
    A = AbstractGroup.from_points(points(G, G.ring))
    refl = next(i for i in range(6) if A.element_order(i) == 2)
    flip = subgroup(G, [e for g, e in enumerate(identity_matrix(G.ring, 6))
                        if g not in (A.identity, refl)])
    assert flip.verify_hopf_ideal()
    verdicts = []
    for H in (trivial_subgroup(G), flip):
        conjugated.clear()
        verdicts.append(is_normal(H))
        made = len(conjugated)
        assert 0 < made <= len(H.ideal)
        assert is_normal(H) is verdicts[-1] and len(conjugated) == made
        assert H.verify_hopf_ideal() is H.verify_hopf_ideal()
        assert H.scheme() is H.scheme() is H.inclusion().source
    assert [flag for flag, _ in verdicts] == [True, False]


def test_conjugation_products_are_made_once_per_scheme(monkeypatch):
    """is_normal on the trivial and the order-3 subgroup of const:S3 and
    of sdp:mu:3,Z2,inv over GF(31), whose Delta is not cocommutative,
    makes each product e_j S(e_b) once, so at most m^2 of them in all."""
    R = parse_ring("GF(31)")
    real = GroupScheme.mul_vec
    for F in (constant(R, s3_table()), _s3_sdp(R)):
        assert not F.is_commutative(), F.name
        # on a copy that has not made its ad(e_i), as locus_report has
        G = GroupScheme(R, F.rank, F.sparse, F.unit, F.counit, F.name)
        subgroups = [ClosedSubgroup(G, H.ideal) for H in
                     (trivial_subgroup(F), locus_report(F, 3).subgroup)]
        products = []
        monkeypatch.setattr(GroupScheme, "mul_vec",
                            lambda self, v, w: products.append(1) or real(self, v, w))
        assert [is_normal(H) for H in subgroups] == [(True, None)] * 2, G.name
        monkeypatch.undo()
        assert 0 < len(products) <= G.rank ** 2, (G.name, len(products))


def reference_adjoint(G, i):
    """ad(e_i) = sum (e_i)_(1) S((e_i)_(3)) (x) (e_i)_(2) as {(t, a): c},
    summed from the dense tables over Delta^(2)(e_i)."""
    R, E = G.ring, identity_matrix(G.ring, G.rank)
    out: dict = {}
    for (j, k), c in dense_comult(G, E[i]).items():
        for (a, b), d in dense_comult(G, E[k]).items():
            product = dense_mul(G, E[j], dense_antipode(G, E[b]))
            for t, x in enumerate(product):
                out[(t, a)] = R.add(out.get((t, a), R.zero), R.mul(R.mul(c, d), x))
    return {key: c for key, c in out.items() if R.nonzero(c)}


def test_cocommutative_adjoint_is_the_product_formula():
    """Where Delta is cocommutative, the kept ad(e_i) is 1 (x) e_i, and it
    equals the product formula summed from the dense tables: on every
    cocommutative builtin over every ring of RINGS."""
    checked = 0
    for R in RINGS:
        for G in builtins_over(R):
            if not G.is_commutative():
                continue
            for i, ad in enumerate(G.adjoint):
                assert ad == [((t, i), c) for t, c in G.unit], (G.name, R.name(), i)
                assert dict(ad) == reference_adjoint(G, i), (G.name, R.name(), i)
            checked += 1
    assert checked >= 50, checked


def _reference_ideal_closure(G, gens):
    """ideal_closure as it was: the span grows by its products with the
    basis until a round adds nothing."""
    R = G.ring
    span = span_rows(R, list(gens))
    while True:
        bigger = span_rows(R, span + [dense_mul(G, v, e) for v in span
                                      for e in identity_matrix(R, G.rank)])
        if bigger == span:
            return canonical_span(R, sparse_rows(R, span))
        span = bigger


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_ideal_closure_matches_fixpoint_reference(name):
    """One round of products with the basis closes the span, in the
    natural and a dense basis, for generators drawn anywhere or in the
    augmentation ideal."""
    hyp, st, settings = hypothesis_or_skip()
    schemes = builtins_over(parse_ring(name))

    @settings
    @hyp.given(st.sampled_from(schemes), st.integers(0, 2 ** 32),
               st.integers(1, 3), st.booleans())
    def check(G, seed, count, augmented):
        rng = random.Random(seed)
        _, H = rng.choice(in_bases(G, rng))
        R = H.ring
        els = list(R.elements()) if R.is_finite else [R.from_int(i)
                                                      for i in range(-3, 4)]
        gens = [[rng.choice(els) if rng.random() < 0.4 else R.zero
                 for _ in range(H.rank)] for _ in range(count)]
        if augmented:
            unit = dense_view(H).unit
            gens = [vec_sub(R, v, vec_scale(R, R.dot(H.counit, v), unit)) for v in gens]
        assert closure(H, gens) == _reference_ideal_closure(H, gens), H.name

    check()


def _seeded_rows(H, rng):
    """One to three random rows, and the same rows moved into the
    augmentation ideal."""
    R = H.ring
    els = list(R.elements()) if R.is_finite else [R.from_int(i) for i in range(-3, 4)]
    rows = [[rng.choice(els) if rng.random() < 0.4 else R.zero for _ in range(H.rank)]
            for _ in range(rng.randint(1, 3))]
    unit = dense_view(H).unit
    return [rows, [vec_sub(R, v, vec_scale(R, R.dot(H.counit, v), unit)) for v in rows]]


def _generated(R, rng):
    """Each reference builtin over R, natural and dense, whose presentation's
    basis vector generates the algebra."""
    return [H for G in builtins_over(R) for _, H in in_bases(G, rng)
            if H.presentation.index is not None]


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_ideal_closure_by_a_generator_matches_fixpoint_reference(name, monkeypatch):
    """Where the presentation's s generates A, ideal_closure adds V s^k to
    the span until it stops changing, and every product it makes is by s.
    It equals the basis-multiplier fixpoint on seeded rows of every
    reference builtin with such an s, in its natural and a dense basis;
    over Z/9 a round can turn 3e into e and keep the row count, so the
    test is on the span."""
    R = parse_ring(name)
    rng = random.Random(f"closure {name}")
    schemes = _generated(R, rng)
    assert schemes, name
    products = []
    real = GroupScheme.mul_vec
    for H in schemes:
        for _ in range(3):
            for rows in _seeded_rows(H, rng):
                want = _reference_ideal_closure(H, rows)
                monkeypatch.setattr(GroupScheme, "mul_vec",
                                    lambda self, v, w: products.append(w) or real(self, v, w))
                products.clear()
                assert closure(H, rows) == want, (H.name, rows)
                monkeypatch.undo()
                assert all(w == H.basis_vector(H.presentation.index) for w in products)


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_ideal_closure_witness_by_a_generator_matches_the_basis_scan(name, monkeypatch):
    """On the spans of seeded rows, and their ideal closures, in every
    reference builtin with a generating s: the Hopf-ideal report equals
    the basis-scan reference, witness (t, i) included, and an ideal passes
    its closure step on one product per row."""
    R = parse_ring(name)
    rng = random.Random(f"witness {name}")
    seen = set()
    real = GroupScheme.mul_vec
    for H in _generated(R, rng):
        for _ in range(3):
            for rows in _seeded_rows(H, rng):
                for S in (subgroup(H, rows), ClosedSubgroup(H, closure(H, rows))):
                    if S.ideal.nonunit is not None:
                        continue
                    S.quotient_data()
                    products = []
                    monkeypatch.setattr(GroupScheme, "mul_vec",
                                        lambda self, v, w: products.append(1) or real(self, v, w))
                    rep = S.verify_hopf_ideal()
                    monkeypatch.undo()
                    ref = _ref_verify_hopf_ideal(S)
                    assert (rep.ok, rep.axiom, rep.witness) == \
                        (ref.ok, ref.axiom, ref.witness), (H.name, S.ideal)
                    if rep.axiom != "ideal-closure":
                        assert len(products) == len(S.ideal), (H.name, S.ideal)
                    seen.add(rep.axiom)
    assert "ideal-closure" in seen and len(seen) > 1, seen


def test_kernels_of_algebra_maps_are_ideals_without_closure():
    """trivial_subgroup (ker counit), image (ker f*) and internal_product
    (ker of the multiplication map's algebra map) hand their kernel to
    ClosedSubgroup unclosed, as the kernel of an algebra map is an ideal.
    ideal_closure of the same rows is the reference, on every reference
    builtin and base; internal_product takes each p-primary factor
    alone, and all of those of mu_6 and Z/6 together.  ker counit is also
    the span of the e_i - counit(e_i) 1, as trivial_subgroup made it
    before it read the kernel with row_kernel."""
    products = 0
    for name in REFERENCE_BASES:
        R = parse_ring(name)
        for G in builtins_over(R):
            unit = dense_view(G).unit
            augmentation = [vec_sub(R, e, vec_scale(R, c, unit))
                            for e, c in zip(identity_matrix(R, G.rank), G.counit)]
            assert trivial_subgroup(G).ideal == closure(G, augmentation), G.name
            assert trivial_subgroup(G).ideal == \
                canonical_span(R, sparse_rows(R, augmentation)), G.name
            for p in prime_factors(G.rank) if G.is_commutative() else ():
                f = convolution_power(G, G.rank // p)
                alg = [dense(R, G.rank, v) for v in f.alg]
                assert image(f).ideal == closure(G, kernel_rows(R, alg)), (G.name, p)
        for G in [*builtins_over(R), mu(R, 6), constant_cyclic(R, 6)]:
            if not G.is_commutative() or any(G.rank % (p * p) == 0
                                             for p in prime_factors(G.rank)):
                continue
            factors = [H for _, H in p_primary_decompose(G)[0]]
            # one factor is its own product; all of them make up G
            for subgroups in [[H] for H in factors] + [factors] * (len(factors) > 1):
                rows = row_kernel(R, _slot_product_map(G, subgroups))
                H, iso = internal_product(G, subgroups)
                assert iso and H.ideal == ideal_closure(G, rows), (G.name, name)
                assert H == subgroups[0] if len(subgroups) == 1 else H.order == G.rank
                products += len(subgroups) > 1
    assert products == 2 * len(REFERENCE_BASES)


def _reference_slot_product_map(G, subgroups):
    """_slot_product_map as it was: Delta^(t-1)(e_i) expanded key by key,
    then every combination of slots read off each key."""
    R = G.ring
    t = len(subgroups)
    pbases = [[dense(R, H.order, row) for row in H.quotient_data()[1]]
              for H in subgroups]
    ranks = [H.order for H in subgroups]
    rows = []
    for i in range(G.rank):
        cur = {(i,): R.one}
        for _ in range(t - 1):
            nxt: dict = {}
            for key, c in cur.items():
                for j, k, d in G.sparse.comult[key[-1]]:
                    nk = key[:-1] + (j, k)
                    nxt[nk] = R.add(nxt.get(nk, R.zero), R.mul(c, d))
            cur = nxt
        out = [R.zero] * prod(ranks)
        for key, c in cur.items():
            vecs = [pb[idx] for pb, idx in zip(pbases, key)]
            # product() runs through the slots in row-major order
            for flat, combo in enumerate(itertools.product(*map(range, ranks))):
                coeff = c
                for vec, pos in zip(vecs, combo):
                    coeff = R.mul(coeff, vec[pos])
                    if not R.nonzero(coeff):
                        break
                if R.nonzero(coeff):
                    out[flat] = R.add(out[flat], coeff)
        rows.append(out)
    return rows


@pytest.mark.parametrize("spec", ["GF(7)", "Q", "Zloc(7)", "Z/35"])
def test_slot_product_map_matches_expansion_reference(spec):
    """The map folded from the right, (pi_k (x) phi_(k+1)) o Delta, equals
    the expansion of Delta^(t-1) on one, two and three p-primary factors
    of mu_30 and Z/30 (of mu_6 over Z/35, whose p-primary parts are flat
    there)."""
    R = parse_ring(spec)
    schemes = [mu(R, 6)] if spec == "Z/35" else [mu(R, 30), constant_cyclic(R, 30)]
    counts = set()
    for G in schemes:
        factors = [kernel(convolution_power(G, p)) for p in prime_factors(G.rank)]
        for t in range(1, len(factors) + 1):
            for subgroups in itertools.combinations(factors, t):
                assert _slot_product_map(G, list(subgroups)) == \
                    sparse_rows(R, _reference_slot_product_map(G, subgroups)), (G.name, t)
                counts.add(t)
    assert counts == ({1, 2} if spec == "Z/35" else {1, 2, 3})


def _reference_is_valid(f):
    """GroupSchemeHom.is_valid as it was, on the dense rows of f: (f (x) f)
    Delta_T(e_i) summed in its own triple loop and compared with
    Delta_S(f(e_i)) as dicts."""
    R = f.source.ring
    nonzero = R.nonzero
    S, T = f.source, f.target
    TM, TC, _ = T.sparse
    alg = [dense(R, S.rank, v) for v in f.alg]
    A = [[(a, x) for a, x in enumerate(v) if nonzero(x)] for v in alg]

    def pulled(terms):  # f of sum c e_x over the (x, c) in terms
        return linalg.add_scaled(R, [R.zero] * S.rank, ((c, alg[x]) for x, c in terms))

    if pulled(T.unit) != dense_view(S).unit:
        return VerificationReport(False, "hom-unit", ())
    for i in range(T.rank):
        if R.dot(S.counit, alg[i]) != T.counit[i]:
            return VerificationReport(False, "hom-counit", (i,))
        lhs = dense_comult(S, alg[i])
        rhs: dict = {}
        for j, k, c in TC[i]:
            for a, x in A[j]:
                cx = R.mul(c, x)
                for b, y in A[k]:
                    rhs[(a, b)] = R.add(rhs.get((a, b), R.zero), R.mul(cx, y))
        rhs = {key: c for key, c in rhs.items() if nonzero(c)}
        if lhs != rhs:
            return VerificationReport(False, "hom-comult", (i,))
        for j in range(T.rank):
            if pulled(TM[i][j]) != dense_mul(S, alg[i], alg[j]):
                return VerificationReport(False, "hom-mult", (i, j))
    return VerificationReport(True)


@pytest.mark.parametrize("spec", ["GF(5)", "Q", "Zloc(2)", "Z/35"])
def test_corrupted_homs_fail_as_reference(spec):
    """Subgroup inclusions, [n], quotient projections and the scaling
    x -> 3x of ot2(-2, 1) onto ot2(-6, 1/3) pass is_valid; each copy with
    one alg entry moved by 1 fails at the axiom and witness of the
    reference, and between them every hom axiom fails.  In mu_2 x Z/3 the
    unit and the counit both have zero coordinates, so some moved entries
    pass the unit and counit checks."""
    R = parse_ring(spec)
    G = direct_product(mu(R, 2), constant_cyclic(R, 3))
    homs = [kernel(convolution_power(G, 3)).inclusion(), convolution_power(G, 5),
            quotient(G, kernel(convolution_power(G, 2)))[1]]
    homs += [quotient(G, H)[1] for G, H in quotient_cases(R)]
    u, a = R.from_int(3), R.from_int(-2)
    homs.append(hom(tate_oort2(R, a, R.one), tate_oort2(R, R.mul(u, a), R.inv(u)),
                    [[R.one, R.zero], [R.zero, u]]))
    seen = set()
    for f in homs:
        assert f.is_valid().ok and _reference_is_valid(f).ok, f.target.name
        for j in range(f.target.rank):
            for a in range(f.source.rank):
                alg = [dense(R, f.source.rank, v) for v in f.alg]
                alg[j][a] = R.add(alg[j][a], R.one)
                g = hom(f.source, f.target, alg)
                rep, ref = g.is_valid(), _reference_is_valid(g)
                assert (rep.ok, rep.axiom, rep.witness) == \
                    (ref.ok, ref.axiom, ref.witness), (f.target.name, j, a)
                seen.add(rep.axiom)
    assert seen == {"hom-unit", "hom-counit", "hom-comult", "hom-mult"}
