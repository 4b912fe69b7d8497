"""Acceptance gate: exact, zero-tolerance checks at desk scale."""

import concurrent.futures
import json
import subprocess
import sys

import pytest

from ffgs.cli import main as cli_main
from ffgs.constructions import (alpha, constant, constant_cyclic,
                                direct_product, extension_witness,
                                find_isomorphism, image, inversion_action,
                                is_normal, kernel, mu, semidirect,
                                tate_oort2, whole_subgroup)
from ffgs.hopf import GroupScheme, convolution_power, points
from ffgs.oracle import (AbstractGroup, cyclic_table, enumerate_points,
                         s3_table)
from ffgs.rings import parse_ring
from ffgs.structure import (InternalInconsistencyError, classify_order_p,
                            common_refinement, hochschild_split, is_etale,
                            locus_report, order_p_subgroup,
                            p_primary_decompose, separable_rank,
                            theorem_decompose)
from ffgs.testrings import test_ring_family as ring_family
from test_hopf import dense_lists, dense_view, from_dense

Q = parse_ring("Q")
F2 = parse_ring("GF(2)")
F3 = parse_ring("GF(3)")
F5 = parse_ring("GF(5)")
F7 = parse_ring("GF(7)")
ZL2 = parse_ring("Zloc(2)")

SQUARE_FREE = [1, 2, 3, 5, 6, 7, 10, 11]


def s3_semidirect(R):
    Gmu = mu(R, 3)
    table = [[0, 1], [1, 0]]
    return semidirect(Gmu, table, inversion_action(Gmu, table))


def all_builtins():
    """Every builtin family at desk scale, over applicable bases."""
    out = []
    for n in range(1, 13):
        for R in (Q, F5, ZL2, parse_ring("Z/9")):
            out.append(mu(R, n))
    for n in range(1, 13):
        for R in (Q, F7):
            out.append(constant_cyclic(R, n))
    out.append(constant(Q, s3_table()))
    out.append(constant(F7, s3_table()))
    for p in (2, 3, 5):
        out.append(alpha(parse_ring(f"GF({p})"), p))
    for a, b in (("-2", "1"), ("1", "-2"), ("2", "-1"), ("-2/3", "3")):
        out.append(tate_oort2(ZL2, ZL2.parse(a), ZL2.parse(b)))
    out.append(s3_semidirect(F7))
    return out


# ----------------------------------------------------------------------
# independent axiom evaluator: recomputes the named axiom at the witness
# by dense tensor contraction on the dense lists, sharing no code with
# GroupScheme.verify


def _dense_mul(G, v, w):
    R, M = G.ring, dense_view(G).mult
    out = [R.zero] * G.rank
    for i, a in enumerate(v):
        for j, b in enumerate(w):
            c = R.mul(a, b)
            for k in range(G.rank):
                out[k] = R.add(out[k], R.mul(c, M[i][j][k]))
    return out


def axiom_holds_at(G: GroupScheme, axiom: str, witness) -> bool:
    R = G.ring
    m = G.rank
    D = dense_view(G)
    C = D.comult
    if axiom == "algebra-commutativity":
        i, j = witness
        return D.mult[i][j] == D.mult[j][i]
    if axiom == "algebra-unit":
        (i,) = witness
        e = [R.zero] * m
        e[i] = R.one
        return _dense_mul(G, D.unit, e) == e
    if axiom == "associativity":
        i, j, k = witness
        ei = [R.one if t == i else R.zero for t in range(m)]
        ej = [R.one if t == j else R.zero for t in range(m)]
        ek = [R.one if t == k else R.zero for t in range(m)]
        return _dense_mul(G, _dense_mul(G, ei, ej), ek) == \
            _dense_mul(G, ei, _dense_mul(G, ej, ek))
    if axiom == "coassociativity":
        (i,) = witness
        lhs = {}
        rhs = {}
        for j in range(m):
            for k in range(m):
                c = C[i][j][k]
                if c == R.zero:
                    continue
                for a in range(m):
                    for b in range(m):
                        d = C[j][a][b]
                        if d != R.zero:
                            key = (a, b, k)
                            lhs[key] = R.add(lhs.get(key, R.zero), R.mul(c, d))
                        d = C[k][a][b]
                        if d != R.zero:
                            key = (j, a, b)
                            rhs[key] = R.add(rhs.get(key, R.zero), R.mul(c, d))
        lhs = {k: v for k, v in lhs.items() if v != R.zero}
        rhs = {k: v for k, v in rhs.items() if v != R.zero}
        return lhs == rhs
    if axiom == "counit":
        (i,) = witness
        left = [R.zero] * m
        right = [R.zero] * m
        for j in range(m):
            for k in range(m):
                left[k] = R.add(left[k], R.mul(C[i][j][k], G.counit[j]))
                right[j] = R.add(right[j], R.mul(C[i][j][k], G.counit[k]))
        e = [R.one if t == i else R.zero for t in range(m)]
        return left == e and right == e
    if axiom == "bialgebra-unit":
        lhs = {}
        for i, u in enumerate(D.unit):
            if u == R.zero:
                continue
            for j in range(m):
                for k in range(m):
                    c = R.mul(u, C[i][j][k])
                    if c != R.zero:
                        lhs[(j, k)] = R.add(lhs.get((j, k), R.zero), c)
        rhs = {}
        for j, a in enumerate(D.unit):
            for k, b in enumerate(D.unit):
                c = R.mul(a, b)
                if c != R.zero:
                    rhs[(j, k)] = c
        lhs = {k: v for k, v in lhs.items() if v != R.zero}
        return lhs == rhs
    if axiom == "counit-unit":
        s = R.zero
        for i, u in enumerate(D.unit):
            s = R.add(s, R.mul(u, G.counit[i]))
        return s == R.one
    if axiom == "bialgebra-mult":
        i, j = witness
        lhs = {}
        for k, c in enumerate(D.mult[i][j]):
            if c == R.zero:
                continue
            for a in range(m):
                for b in range(m):
                    d = R.mul(c, C[k][a][b])
                    if d != R.zero:
                        lhs[(a, b)] = R.add(lhs.get((a, b), R.zero), d)
        rhs = {}
        for p in range(m):
            for q in range(m):
                cij = C[i][p][q]
                if cij == R.zero:
                    continue
                for r in range(m):
                    for s in range(m):
                        cj = C[j][r][s]
                        if cj == R.zero:
                            continue
                        c = R.mul(cij, cj)
                        for a, x in enumerate(D.mult[p][r]):
                            if x == R.zero:
                                continue
                            for b, y in enumerate(D.mult[q][s]):
                                if y == R.zero:
                                    continue
                                key = (a, b)
                                rhs[key] = R.add(rhs.get(key, R.zero),
                                                 R.mul(c, R.mul(x, y)))
        lhs = {k: v for k, v in lhs.items() if v != R.zero}
        rhs = {k: v for k, v in rhs.items() if v != R.zero}
        return lhs == rhs
    if axiom == "counit-mult":
        i, j = witness
        s = R.zero
        for k, c in enumerate(D.mult[i][j]):
            s = R.add(s, R.mul(c, G.counit[k]))
        return s == R.mul(G.counit[i], G.counit[j])
    if axiom in ("antipode-left", "antipode-right"):
        (i,) = witness
        acc = [R.zero] * m
        for j in range(m):
            for k in range(m):
                c = C[i][j][k]
                if c == R.zero:
                    continue
                if axiom == "antipode-left":
                    ek = [R.one if t == k else R.zero for t in range(m)]
                    term = _dense_mul(G, D.antipode[j], ek)
                else:
                    ej = [R.one if t == j else R.zero for t in range(m)]
                    term = _dense_mul(G, ej, D.antipode[k])
                for t in range(m):
                    acc[t] = R.add(acc[t], R.mul(c, term[t]))
        target = [R.mul(G.counit[i], u) for u in D.unit]
        return acc == target
    raise AssertionError(f"unknown axiom {axiom!r}")


# ----------------------------------------------------------------------
# 1. Hopf verification suite


def test_criterion_1_builtins_verify():
    for G in all_builtins():
        rep = G.verify()
        assert rep.ok, (G.name, G.ring.name(), rep.axiom, rep.witness)


def _bump(R, x):
    return R.add(x, R.one)


def corruption_targets():
    """20 deterministic single-entry corruptions across the builtins."""
    specs = []
    schemes = [mu(F5, 6), constant(F7, s3_table()), alpha(F3, 3),
               tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one), s3_semidirect(F7)]
    for G in schemes:
        m = G.rank
        specs.append((G, "mult", (1 % m, 1 % m, 0)))
        specs.append((G, "comult", (m - 1, 0, m - 1)))
        specs.append((G, "counit", (m - 1,)))
        specs.append((G, "antipode", (m - 1, 0)))
    return specs


def test_criterion_1_corruptions_fail_with_correct_witness():
    specs = corruption_targets()
    assert len(specs) == 20
    for G0, slot, idx in specs:
        # the scheme is built from edited copies of G0's dense lists
        R = G0.ring
        t = dense_lists(G0)
        if slot == "mult":
            i, j, k = idx
            t["mult"][i][j][k] = _bump(R, t["mult"][i][j][k])
        elif slot == "comult":
            i, j, k = idx
            t["comult"][i][j][k] = _bump(R, t["comult"][i][j][k])
        elif slot == "counit":
            (i,) = idx
            t["counit"][i] = _bump(R, t["counit"][i])
        else:
            i, j = idx
            t["antipode"][i][j] = _bump(R, t["antipode"][i][j])
        G = from_dense(R, G0.rank, *t.values())
        rep = G.verify()
        assert not rep.ok, (G0.name, slot, idx)
        assert not axiom_holds_at(G, rep.axiom, rep.witness), \
            (G0.name, slot, idx, rep.axiom, rep.witness)


# ----------------------------------------------------------------------
# 2. p-primary decomposition


def test_criterion_2_p_primary():
    for G in (constant_cyclic(F5, 6), constant_cyclic(Q, 6),
              mu(F5, 6), mu(Q, 6)):
        factors, iso = p_primary_decompose(G)
        assert [p for p, _ in factors] == [2, 3]
        assert [H.order for _, H in factors] == [2, 3]
        assert iso, G.name
        for p, H in factors:
            ker = kernel(convolution_power(G, p))
            img = image(convolution_power(G, 6 // p))
            assert ker.ideal == img.ideal
            assert H.ideal == ker.ideal


# ----------------------------------------------------------------------
# 3. Hochschild sections for the order-3 kernel


def test_criterion_3_sections():
    for G in (constant(Q, s3_table()), s3_semidirect(F7)):
        H = order_p_subgroup(G, 3)
        assert H.order == 3
        E = extension_witness(G, H)
        assert len(E.ledger) >= 1
        for entry in E.ledger:
            assert entry["left_injective"], (G.name, entry)
            assert entry["exact_middle"], (G.name, entry)
            assert entry["right_surjective"], (G.name, entry)
        res = hochschild_split(E)
        assert res.status == "found", (G.name, res.detail)
        assert res.section is not None and len(res.section) == 2


# ----------------------------------------------------------------------
# 4. common refinement


def _etale_disc_unit(E):
    flag, disc = is_etale(E.quotient)
    return flag


def test_criterion_4_common_refinement():
    # pair 1: E1 = E2
    G = constant_cyclic(F5, 6)
    E2 = extension_witness(G, kernel(convolution_power(G, 2)))
    same = common_refinement(E2, E2)
    assert same.kernel.ideal == E2.kernel.ideal
    assert _etale_disc_unit(same)
    # pair 2: constant Z/6 over F5, kernels Z/6 and Z/2 -> Z/2
    E6 = extension_witness(G, whole_subgroup(G))
    ref = common_refinement(E6, E2)
    assert ref.kernel.order == 2
    assert ref.kernel.ideal == E2.kernel.ideal
    assert _etale_disc_unit(ref)
    # pair 3: mu2 x Z/3 over F2, kernels the whole group and mu2 -> mu2
    G = direct_product(mu(F2, 2), constant_cyclic(F2, 3))
    Emu = extension_witness(G, kernel(convolution_power(G, 2)))
    Eall = extension_witness(G, whole_subgroup(G))
    ref = common_refinement(Eall, Emu)
    assert ref.kernel.order == 2
    assert ref.kernel.ideal == Emu.kernel.ideal
    assert ref.quotient.rank == 3
    assert _etale_disc_unit(ref)


def test_criterion_4_failures_exit_code_3(monkeypatch, capsys):
    import ffgs.cli as cli
    def boom(*a, **k):
        raise InternalInconsistencyError("refined quotient not etale")
    monkeypatch.setattr(cli.structure, "common_refinement", boom)
    code = cli.main(["refine", "--builtin", "const:Z6", "--base", "GF(5)",
                     "--kernels", "6,2"])
    capsys.readouterr()
    assert code == 3


# ----------------------------------------------------------------------
# 5. etale detection


def test_criterion_5_etale_over_q():
    for n in SQUARE_FREE:
        assert is_etale(mu(Q, n))[0], n
        assert is_etale(constant_cyclic(Q, n))[0], n
    assert is_etale(constant(Q, s3_table()))[0]


def test_criterion_5_etale_pointwise_over_f5():
    schemes = [mu(F5, n) for n in range(1, 13)]
    schemes += [constant_cyclic(F5, n) for n in range(1, 13)]
    schemes += [constant(F5, s3_table()), alpha(F5, 5)]
    for G in schemes:
        flag, _ = is_etale(G)
        assert flag == (separable_rank(G) == G.rank), G.name


# ----------------------------------------------------------------------
# 6. order-p classifier vs isomorphism search


def test_criterion_6_classifier():
    cases = [(mu(F2, 2), "mu"), (mu(F3, 3), "mu"),
             (alpha(F2, 2), "alpha"), (alpha(F3, 3), "alpha"),
             (constant_cyclic(F3, 2), "etale"), (constant_cyclic(F2, 3), "etale")]
    for G, expect in cases:
        tag = classify_order_p(G)
        assert tag == expect, (G.name, tag)
        R, p = G.ring, G.rank
        models = {"mu": mu(R, p), "etale": constant_cyclic(R, p)}
        if R.char() == p:
            models["alpha"] = alpha(R, p)
        matches = {name: find_isomorphism(G, M).status
                   for name, M in models.items()}
        # the classifier tag names an isomorphic model ...
        assert matches[tag] == "iso", (G.name, matches)
        # ... and the models of the other infinitesimal/etale type do not
        # match: alpha_p is never mu_p or Z/p, and in char p the etale
        # model differs from both infinitesimal ones
        if tag == "alpha":
            assert matches["mu"] == "no" and matches["etale"] == "no", matches
        elif tag == "mu":
            assert matches["alpha"] == "no" and matches["etale"] == "no", matches
        else:
            # etale cases here have p != char, so no alpha model exists;
            # mu_p and Z/p may coincide (x^p - 1 split), which is fine
            assert "alpha" not in matches


# ----------------------------------------------------------------------
# 7. rank loci


def test_criterion_7_loci_mu2_zloc2():
    G = mu(ZL2, 2)
    rep = locus_report(G, 2)
    assert rep.s1 == ["generic"]
    assert sorted(rep.sp) == ["closed", "generic"]
    assert sorted(rep.vp) == ["closed", "generic"]
    H = rep.subgroup
    assert H is not None and H.order == 2
    assert H.verify_hopf_ideal().ok
    assert is_normal(H)[0]
    Z4 = parse_ring("Z/4")
    assert find_isomorphism(H.scheme().base_change(Z4),
                            mu(Z4, 2)).status == "iso"


def test_criterion_7_loci_s3_f5():
    G = constant(F5, s3_table())
    assert locus_report(G, 2).vp == []
    rep = locus_report(G, 3)
    assert rep.vp_is_whole()
    H = rep.subgroup
    assert H.order == 3
    assert find_isomorphism(H.scheme(), constant_cyclic(F5, 3)).status == "iso"


# ----------------------------------------------------------------------
# 8. theorem end to end


def theorem_corpus():
    return [
        constant(Q, s3_table()),
        mu(ZL2, 6),
        mu(F5, 6),
        direct_product(tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one),
                       constant_cyclic(ZL2, 3)),
    ]


def test_criterion_8_theorem():
    for G in theorem_corpus():
        cert = theorem_decompose(G)
        E = cert.witness
        # order multiplicativity
        assert E.kernel.order * E.quotient.rank == G.rank, G.name
        # etale quotient certificate
        flag, _ = is_etale(E.quotient)
        assert flag, G.name
        # prime-order commutative factors
        for p, H in cert.factors:
            assert H.order == p, G.name
            assert H.scheme().is_commutative(), G.name
        # conjugation invariance of each factor
        assert all(ok for _, ok in cert.conjugation), G.name
        # re-running on the etale quotient gives a trivial kernel
        cert2 = theorem_decompose(E.quotient)
        assert cert2.witness.kernel.order == 1, G.name
        assert cert2.i_values == [1], G.name


# ----------------------------------------------------------------------
# 9. oracle equivalence


def oracle_corpus():
    out = []
    for base in (F5, F7, F2, parse_ring("Z/9"), ZL2):
        for n in (2, 3, 4, 6):
            out.append(mu(base, n))
    out.append(constant(F5, s3_table()))
    out.append(constant(F7, s3_table()))
    out.append(constant_cyclic(F2, 6))
    out.append(alpha(F2, 2))
    out.append(alpha(F3, 3))
    out.append(tate_oort2(ZL2, ZL2.parse("-2"), ZL2.one))
    out.append(s3_semidirect(F7))
    return out


def test_criterion_9_oracle_equivalence():
    checked = 0
    for G in oracle_corpus():
        for Rp in ring_family(G.ring):
            if not Rp.is_finite:
                continue
            P = points(G, Rp)
            O = enumerate_points(G, Rp)
            assert P.elements == O.elements, (G.name, Rp.name())
            assert P.table == O.table, (G.name, Rp.name())
            checked += 1
    assert checked >= 30


# ----------------------------------------------------------------------
# 10. CLI determinism


CLI_COMMANDS = [
    ["verify", "--builtin", "mu:6", "--base", "Q"],
    ["order", "--builtin", "sdp:mu:3,Z2,inv", "--base", "GF(7)"],
    ["points", "--builtin", "mu:4", "--base", "GF(5)", "--ring", "GF(5)"],
    ["dual", "--builtin", "const:Z4", "--base", "Z/9"],
    ["decompose-p", "--builtin", "mu:6", "--base", "GF(5)"],
    ["fibers", "--builtin", "mu:2", "--base", "Zloc(2)"],
    ["loci", "--builtin", "const:S3", "--base", "GF(5)", "--prime", "3"],
    ["connected-etale", "--builtin", "mu:6", "--base", "GF(3)"],
    ["theorem", "--builtin", "mu:6", "--base", "Zloc(2)"],
    ["split", "--builtin", "const:S3", "--base", "Q", "--kernel", "3"],
    ["refine", "--builtin", "const:Z6", "--base", "GF(5)", "--kernels", "6,2"],
    ["classify-p", "--builtin", "alpha:2", "--base", "GF(2)"],
]


def _run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ffgs.cli"] + argv + ["--format", "json"],
        capture_output=True,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout


def test_criterion_10_cli_determinism():
    serial_1 = [_run_cli(c) for c in CLI_COMMANDS]
    serial_2 = [_run_cli(c) for c in CLI_COMMANDS]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(_run_cli, CLI_COMMANDS))
    for a, b, c, cmd in zip(serial_1, serial_2, parallel, CLI_COMMANDS):
        assert a == b == c, cmd
        json.loads(a)  # well-formed single-line JSON
