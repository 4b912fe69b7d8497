import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffgs import cli
from ffgs.cli import build_builtin, main
from ffgs.constructions import mu
from ffgs.rings import parse_ring
from test_hopf import hypothesis_or_skip, rebased
from test_linalg import identity_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "--builtin", "mu:6", "--base", "Q")
    assert code == 0
    assert out.strip() == "pass"


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--builtin", "mu:6", "--base", "Q",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"status": "pass"}


def test_dual_text_is_the_indented_json(capsys):
    for spec, base in (("mu:2", "GF(3)"), ("const:Z3", "Zloc(2)")):
        code, out = run(capsys, "dual", "--builtin", spec, "--base", base,
                        "--format", "json")
        assert code == 0 and out.count("\n") == 1
        code, text = run(capsys, "dual", "--builtin", spec, "--base", base)
        assert code == 0
        assert text == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_verify_fail_exit_1(tmp_path, capsys):
    code, out = run(capsys, "dual", "--builtin", "mu:2", "--base", "GF(3)",
                    "--format", "json")
    d = json.loads(out)
    d["mult"][1][1] = ["1", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code, out = run(capsys, "verify", "--file", str(bad))
    assert code == 1
    assert "fail" in out


def test_user_errors_exit_2(capsys):
    assert main(["order", "--builtin", "mu:3"]) == 2          # no --base
    assert main(["order", "--builtin", "mu:x", "--base", "Q"]) == 2
    assert main(["order", "--builtin", "mu:3", "--base", "nonsense"]) == 2
    assert main(["verify", "--file", "/does/not/exist.json"]) == 2
    assert main(["points", "--builtin", "mu:3", "--base", "Q"]) == 2  # no --ring
    capsys.readouterr()
    for argv, flag in ((["points", "--ring", "GF(5)"], "--budget-points"),
                       (["split"], "--budget-points"), (["split"], "--budget-iso")):
        assert main(argv + ["--builtin", "mu:3", "--base", "GF(5)", flag, "-1"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 0\n", argv
    # Spec Z/6 is not connected, and V_2 is only the point 2
    assert main(["theorem", "--builtin", "mu:6", "--base", "Z/6"]) == 2
    # the points bound holds over finite fields too: mu_6 has 6 points over
    # GF(7), and a bound of 0 leaves the theorem no test ring
    gf7 = ["points", "--builtin", "mu:6", "--base", "GF(7)", "--ring", "GF(7)",
           "--budget-points"]
    assert main(gf7 + ["1"]) == 2
    assert main(["theorem", "--builtin", "mu:6", "--base", "Zloc(2)",
                 "--budget-points", "0"]) == 2
    capsys.readouterr()
    assert main(gf7 + ["6"]) == 0
    assert capsys.readouterr().out.startswith("6 points over GF(7)")
    # order-p subgroups and loci are defined for a prime p only; --kernel 0
    # is not the theorem path
    for argv in (["split", "--kernel", "6"], ["split", "--kernel", "0"],
                 ["split", "--kernel", "-3"], ["loci", "--prime", "1"],
                 ["loci", "--prime", "4"], ["loci", "--prime", "6"],
                 ["loci", "--prime", "-3"]):
        assert main(argv + ["--builtin", "mu:6", "--base", "Q"]) == 2, argv
        assert "prime" in capsys.readouterr().err, argv


def test_budget_flags_only_on_the_commands_that_read_them(capsys):
    """--budget-points is taken by points, connected-etale, theorem, split
    and refine, and --budget-iso by split alone; every other command
    refuses them through argparse (exit 2), where it would run without."""
    base = ["--builtin", "mu:3", "--base", "GF(5)"]
    others = [["verify"], ["order"], ["dual"], ["decompose-p"], ["fibers"],
              ["loci", "--prime", "3"], ["classify-p"]]
    refused = [(argv, flag) for argv in others
               for flag in ("--budget-points", "--budget-iso")]
    refused.append((["theorem"], "--budget-iso"))
    for argv, flag in refused:
        capsys.readouterr()
        assert main(argv + base) in (0, 1), argv
        capsys.readouterr()
        assert main(argv + base + [flag, "5"]) == 2, (argv, flag)
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err, (argv, flag)
    taken = [(["points", "--ring", "GF(5)"], "--budget-points"),
             (["connected-etale"], "--budget-points"), (["theorem"], "--budget-points"),
             (["split"], "--budget-points"), (["split"], "--budget-iso"),
             (["refine", "--kernels", "3,1"], "--budget-points")]
    for argv, flag in taken:
        capsys.readouterr()
        assert main(argv + base + [flag, "5"]) in (0, 1), (argv, flag)
        assert capsys.readouterr().err == "", (argv, flag)


def test_missing_preconditions_exit_2(capsys):
    # S3 has three subgroups of order 2, so none is the unique one; over
    # Zloc(3) the error names the axiom x^2 = 1 breaks on Q, and mu_6 has
    # no order-5 subgroup over Zloc(5)
    for base in ("Q", "Zloc(3)", "Dual(GF(3))", "GF(5)"):
        assert main(["split", "--kernel", "2", "--builtin", "const:S3",
                     "--base", base]) == 2
        assert capsys.readouterr().err == ("error: no unique order-2 subgroup: "
                                           "x^2 = 1 is not a subgroup (coideal fails)\n")
    assert main(["split", "--kernel", "5", "--builtin", "mu:6", "--base", "Zloc(5)"]) == 2
    assert capsys.readouterr().err == ("error: no unique order-5 subgroup: "
                                       "x^5 = 1 has order 1\n")
    assert main(["split", "--kernel", "2", "--builtin", "sdp:mu:3,Z2,inv",
                 "--base", "Q"]) == 2
    # Q is the only test ring of Q, and a Q-points bound of 1 rejects the
    # order-3 kernel there: an empty ledger is no evidence for the splitting
    assert main(["split", "--kernel", "3", "--builtin", "const:S3",
                 "--base", "Q", "--budget-points", "1"]) == 2
    # alpha_3 has 3 points over Dual(GF(3)), one per tangent vector: a
    # points bound of 2 stops the lift before it enumerates them
    alpha3 = ["points", "--builtin", "alpha:3", "--base", "GF(3)",
              "--ring", "Dual(GF(3))", "--format", "json", "--budget-points"]
    capsys.readouterr()
    assert main(alpha3 + ["2"]) == 2
    assert capsys.readouterr().err == "error: more than 2 points (the points bound)\n"
    assert main(alpha3 + ["3"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 3
    # the bound also stops the lift along 3 in Z/9 (mu_3 has 3 points
    # there) and the CRT product over Z/6 (const Z/3 has 3 x 3).  mu_6 has
    # 6 points over Z/9 and over Dual(GF(3)): 3 lifts of each of its 2
    # characters, so the bound stops the second one, and the message names
    # the bound given, not what is left of it.  const Z/6 splits over
    # GF(5), and each character's lift to Dual(GF(5)) or Z/25 is a point,
    # kept with no step.  mu_4 over Z/25 and mu_2 over Z/9 split too, but
    # the lifts of 2 and 3, and of 2, are not points and take the steps.
    # The bound holds on both paths
    for spec, ring, bound in (("mu:3", "Z/9", "2"), ("const:Z3", "Z/6", "8"),
                              ("mu:6", "Z/9", "3"), ("mu:6", "Dual(GF(3))", "3"),
                              ("const:Z6", "Dual(GF(5))", "5"), ("const:Z6", "Z/25", "5"),
                              ("mu:4", "Z/25", "3"), ("mu:2", "Z/9", "1")):
        argv = ["points", "--builtin", spec, "--base", ring, "--ring", ring, "--budget-points"]
        assert main(argv + [bound]) == 2, spec
        assert capsys.readouterr().err == (f"error: more than {bound} points "
                                           f"(the points bound)\n"), spec
        if spec in ("const:Z6", "mu:4"):
            assert main(argv + [str(int(bound) + 1)]) == 0, spec
            capsys.readouterr()
    # the order-p classifier is defined over fields only
    for spec, base in (("mu:2", "Zloc(2)"), ("mu:3", "Z/9"),
                       ("ot2:2,-1", "Zloc(2)"), ("ot2:2,-1", "Z/4")):
        assert main(["classify-p", "--builtin", spec, "--base", base]) == 2
    capsys.readouterr()


def test_q_points_bound_counts_the_characters_found(capsys):
    # mu_6(Q) = {1, -1}: over Q, as over any field, the points bound is
    # checked on the characters found, not on the order of the scheme
    argv = ["points", "--builtin", "mu:6", "--base", "Q", "--ring", "Q",
            "--budget-points"]
    assert main(argv + ["2"]) == 0
    assert capsys.readouterr().out.startswith("2 points over Q")
    assert main(argv + ["1"]) == 2
    assert capsys.readouterr().err == "error: more than 1 points (the points bound)\n"


def test_empty_ledger_names_the_skipped_rings(capsys):
    bound = "more than 0 points (the points bound)"
    assert main(["theorem", "--builtin", "mu:6", "--base", "Zloc(2)",
                 "--budget-points", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no test ring gave points within the budget: "
                          f"{bound} over GF(2), Dual(GF(2)), ")
    assert err.rstrip().endswith(", Z/32")
    # Dual(Q) maps to no finite ring, so there is no ring to blame the bound on
    assert main(["theorem", "--builtin", "mu:6", "--base", "Dual(Q)"]) == 2
    assert capsys.readouterr().err == (
        "error: no test ring gave points: Dual(Q) has no test ring\n")


def test_commands_agree_on_the_order_p_subgroup(capsys):
    """theorem, loci and split --kernel read x^p = 1 from the scheme
    itself or, over Zloc(l), from its kept generic fiber: the three ideals
    agree.  Where G is etale over Zloc(l), theorem has no factor, and loci
    must take x^p = 1 from the generic fiber, not the closed one."""
    cases = [("mu:6", "Zloc(2)", 2), ("mu:6", "Zloc(3)", 3), ("mu:15", "Zloc(5)", 5),
             ("sdp:mu:3,Z2,inv", "Zloc(3)", 3), ("mu:6", "GF(2)", 2),
             ("sdp:mu:3,Z2,inv", "GF(3)", 3), ("mu:6", "Z/4", 2), ("mu:10", "Z/25", 5),
             ("mu:6", "Dual(GF(3))", 3), ("mu:6", "Dual(GF(2))", 2)]
    etale = [("mu:6", "Zloc(5)", 2), ("const:Z6", "Zloc(5)", 3)]
    for spec, base, p in cases + etale:
        def payload(*argv):
            main([*argv, "--builtin", spec, "--base", base, "--format", "json"])
            return json.loads(capsys.readouterr().out)

        ideals = [f["ideal"] for f in payload("theorem")["factors"] if f["prime"] == p]
        ideals.append(payload("loci", "--prime", str(p))["subgroup_ideal"])
        ideals.append(payload("split", "--kernel", str(p))["extension"]["kernel_ideal"])
        assert len(ideals) == (2 if (spec, base, p) in etale else 3), (spec, base)
        assert all(ideal == ideals[0] for ideal in ideals), (spec, base)


def test_theorem_makes_the_residue_characters_once_per_scheme(monkeypatch, capsys):
    """theorem mu:15 over Zloc(3) takes points of three schemes over the
    base (G, the kernel and the quotient) over four test rings with
    residue field GF(3): GF(3), Dual(GF(3)), Z/9 and Z/27.  The four share
    each scheme's kept fiber over GF(3) and its characters (12 runs when
    each ring made its own fiber)."""
    from ffgs import hopf
    rings = []
    real = hopf.characters
    monkeypatch.setattr(hopf, "characters", lambda G: rings.append(G.ring.name()) or real(G))
    assert main(["theorem", "--builtin", "mu:15", "--base", "Zloc(3)"]) == 0
    capsys.readouterr()
    assert rings.count("GF(3)") == 3


def test_split_lifts_the_constant_groups_with_no_tangent_rows(monkeypatch):
    """split const:Z15 over GF(2) with kernel 3 lifts the points of three
    constant schemes to Dual(GF(2)) and Dual(GF(4)).  Their
    fibers have all their characters, and each lift of one is a point, so
    no tangent rows are built."""
    from ffgs import hopf
    built = []
    real = hopf._tangent_rows
    monkeypatch.setattr(hopf, "_tangent_rows",
                        lambda *args: built.append(args) or real(*args))
    lifted = []
    real_lifts = hopf._lifted_points
    monkeypatch.setattr(hopf, "_lifted_points",
                        lambda G, R, bound: lifted.append(R.name()) or real_lifts(G, R, bound))
    argv = ["split", "--builtin", "const:Z15", "--base", "GF(2)", "--kernel", "3"]
    assert main(argv) == 0
    assert built == []
    assert {"Dual(GF(2))", "Dual(GF(2^2;x^2+x+1))"} <= set(lifted), lifted


def test_split_carries_the_characters_up_the_extension_fields(monkeypatch, capsys):
    """split const:Z15 over GF(2) with kernel 3 takes points of three
    constant schemes over GF(2), GF(4), GF(8), GF(16) and GF(32).  Each
    has all its characters over GF(2), so the extensions carry them up:
    3 runs of `characters`, where each field made its own in 15.  Stdout
    is that of a run where every field walks its own."""
    from ffgs import hopf
    rings = []
    real = hopf.characters
    monkeypatch.setattr(hopf, "characters", lambda G: rings.append(G.ring.name()) or real(G))
    argv = ["split", "--builtin", "const:Z15", "--base", "GF(2)", "--kernel", "3",
            "--format", "json"]
    carried = run(capsys, *argv)
    assert rings == ["GF(2)"] * 3
    monkeypatch.setattr(hopf.GroupScheme, "field_characters",
                        property(lambda G: hopf.characters(G)))
    rings.clear()
    assert run(capsys, *argv) == carried
    assert len(rings) >= 15 and "GF(2^5;x^5+x^3+1)" in rings, rings


def test_theorem_makes_each_minimal_polynomial_once(monkeypatch, capsys):
    """A field scheme keeps the minimal polynomial of each vector on each
    factor: a scheme's presentation and its fibers' own, the walk of
    `characters` and that of `identity_idempotent` along the counit share
    them, so no scheme runs `_minpoly_of_vector` twice on the same
    arguments."""
    from ffgs import hopf
    calls = []
    real = hopf._minpoly_of_vector

    def counting(GR, e, c):
        calls.append((GR, tuple(e), tuple(c)))
        return real(GR, e, c)

    monkeypatch.setattr(hopf, "_minpoly_of_vector", counting)
    for spec in ("sdp:mu:3,Z2,inv", "mu:15"):
        calls.clear()
        assert main(["theorem", "--builtin", spec, "--base", "Zloc(3)"]) == 0
        capsys.readouterr()
        keys = [(id(GR), e, c) for GR, e, c in calls]
        assert calls and len(set(keys)) == len(keys), spec


def test_refine_makes_the_ledger_of_the_refined_extension_only(monkeypatch, capsys):
    """refine reads the kernels, total and quotients of its two torsion
    extensions, never their ledgers, which are made on first read: only
    the refined extension takes points, three schemes per test ring."""
    from ffgs import constructions, hopf, structure
    calls = []
    real = hopf.points
    for module in (hopf, constructions, structure):
        monkeypatch.setattr(module, "points",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for spec, base, kernels, count in (("const:Z6", "GF(5)", "6,2", 9),
                                       ("const:Z10", "GF(3)", "10,5", 12),
                                       ("mu:6", "Zloc(5)", "2,3", 12)):
        calls.clear()
        argv = ["refine", "--builtin", spec, "--base", base, "--kernels", kernels]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == count, spec


def test_theorem_over_a_disconnected_base_fails_at_the_smaller_prime(capsys):
    """Over Z/n with two prime factors the fibers of mu_n have two prime
    infinitesimal ranks, and V_p is a proper part of Spec Z/n for the
    smaller one p: theorem stops there, so G' never needs two factors."""
    from ffgs import structure
    for spec, base, p, q in (("mu:6", "Z/6", 2, 3), ("mu:10", "Z/10", 2, 5),
                             ("mu:15", "Z/15", 3, 5)):
        G = build_builtin(spec, parse_ring(base))
        assert {r.infinitesimal_rank for r in structure.fiber_report(G)} == {p, q}
        assert main(["theorem", "--builtin", spec, "--base", base]) == 2
        err = capsys.readouterr().err
        assert f"V_{p} is a proper part of Spec {base}" in err, spec
        assert "not connected" in err, spec


def test_split_searches_for_a_section_once(monkeypatch, capsys):
    """split without --kernel searches under --budget-iso only: the
    theorem pipeline hands it the search it made."""
    from ffgs import structure
    calls = []
    real = structure._section_search
    monkeypatch.setattr(structure, "_section_search",
                        lambda *args: calls.append(args[-1]) or real(*args))
    argv = ["split", "--builtin", "mu:6", "--base", "Zloc(2)"]
    assert run(capsys, *argv)[0] == 0
    assert calls == [200000]
    calls.clear()
    code, out = run(capsys, *argv, "--budget-iso", "0", "--format", "json")
    assert (code, json.loads(out)["splitting"]["status"]) == (1, "unknown")
    assert calls == [0]


def test_malformed_input_exits_2(tmp_path, capsys):
    # an element that does not parse over GF(5)
    code, out = run(capsys, "dual", "--builtin", "mu:2", "--base", "GF(5)",
                    "--format", "json")
    d = json.loads(out)
    d["unit"][0] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["verify", "--file", str(bad)]) == 2
    # an element that is a JSON number, not a string
    for base in ("GF(3^2;x^2+1)", "Dual(GF(3))"):
        code, out = run(capsys, "dual", "--builtin", "mu:2", "--base", base,
                        "--format", "json")
        d = json.loads(out)
        d["unit"][0] = 3
        bad.write_text(json.dumps(d))
        assert main(["verify", "--file", str(bad)]) == 2
    # JSON of the wrong type: base and rank, and tensors that are not lists
    # (a string is not a list of characters, a dict not a list of keys):
    # the dual of const:Z2 has unit ["1","0"], that of mu:2 counit ["1","0"]
    for spec, key, value in (("mu:2", "base", 7), ("mu:2", "rank", 2.0),
                             ("const:Z2", "unit", "10"),
                             ("mu:2", "counit", {"1": 0, "0": 0})):
        code, out = run(capsys, "dual", "--builtin", spec, "--base", "GF(3)",
                        "--format", "json")
        d = json.loads(out)
        d[key] = value
        bad.write_text(json.dumps(d))
        assert main(["verify", "--file", str(bad)]) == 2, key
    # group tables that are empty or have no identity
    assert main(["verify", "--builtin", "const:Z0", "--base", "GF(5)"]) == 2
    no_identity = tmp_path / "table.json"
    no_identity.write_text(json.dumps([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))
    assert main(["verify", "--builtin", f"const:{no_identity}",
                 "--base", "GF(5)"]) == 2
    # numbers in digits other than ASCII ones, which str.isdigit accepts:
    # int() refuses the superscript two and the circled one, and would
    # read the Arabic-Indic three as 3
    for spec in ("mu:\u00b2", "alpha:\u00b2", "const:Z\u00b2", "mu:\u2460", "mu:\u0663"):
        assert main(["order", "--builtin", spec, "--base", "GF(2)"]) == 2, spec
    capsys.readouterr()
    # alpha_p for a p that is no prime, over a base of characteristic p
    argvs = [["verify", "--builtin", "alpha:0", "--base", "Q"],
             ["order", "--builtin", "alpha:0", "--base", "Q"]]
    for n in (4, 6, 9):
        spec = ["--builtin", f"alpha:{n}", "--base", f"Z/{n}"]
        argvs += [["points", *spec, "--ring", f"Z/{n}"], ["fibers", *spec], ["verify", *spec]]
    for argv in argvs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_scheme_file_errors_name_the_one_fault(tmp_path, capsys):
    """A scheme file with one fault exits 2 with the error that names it:
    the base, the rank or the name of the wrong type, a rank below 1, a
    non-list or a list of the wrong length at each depth of each table, and
    an element that does not parse."""
    good = mu(parse_ring("GF(3)"), 2).to_dict()
    depths = {"mult": 3, "unit": 1, "comult": 3, "counit": 1, "antipode": 2}
    cases = [(("base",), 7, "base must be a ring spec string"),
             (("rank",), "2", "rank must be an integer"),
             (("rank",), True, "rank must be an integer"),
             (("rank",), 0, "rank must be >= 1"),
             (("rank",), -1, "rank must be >= 1"),
             (("name",), [1], "name must be a string"),
             (("name",), {"a": 1}, "name must be a string"),
             (("name",), 7, "name must be a string"),
             (("name",), None, "name must be a string"),
             (("unit", 0), "x", "malformed element 'x'"),
             (("comult", 1, 1, 1), 3, "malformed element 3"),
             (("antipode", 1, 0), [], "malformed element []")]
    for key, depth in depths.items():
        for level in range(depth):
            at, node = (key, *[1] * level), good[key]
            for i in at[1:]:
                node = node[i]
            cases += [(at, "1", f"{key} must be nested lists, {depth - level} deep"),
                      (at, node[:-1], "tensor dimensions do not match the rank"),
                      (at, [*node, node[0]], "tensor dimensions do not match the rank")]
    path = tmp_path / "bad.json"
    for at, value, text in cases:
        d = copy.deepcopy(good)
        node = d
        for i in at[:-1]:
            node = node[i]
        node[at[-1]] = value
        path.write_text(json.dumps(d))
        assert main(["verify", "--file", str(path)]) == 2, (at, value)
        assert capsys.readouterr().err == f"error: bad group-scheme file: {text}\n", (at, value)


def test_file_failing_the_hopf_axioms_exits_2(tmp_path):
    # mu_2 over GF(3) with counit(x) = 0: the counit is no algebra map.
    # Each command that relies on the axioms must stop with exit 2, and in
    # time: the subprocess timeout catches a command that never returns
    d = mu(parse_ring("GF(3)"), 2).to_dict()
    d["counit"] = ["1", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for extra in (["points", "--ring", "GF(3)"], ["decompose-p"], ["fibers"],
                  ["loci", "--prime", "2"], ["connected-etale"], ["theorem"],
                  ["split", "--kernel", "2"], ["refine", "--kernels", "2,1"],
                  ["classify-p"]):
        proc = subprocess.run(
            [sys.executable, "-m", "ffgs.cli", extra[0], "--file", str(bad)]
            + extra[1:], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), (extra, proc.stderr)
        assert "counit" in proc.stderr, extra


def test_order(capsys):
    code, out = run(capsys, "order", "--builtin", "sdp:mu:3,Z2,inv",
                    "--base", "GF(7)", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"order": 6}


def test_points_json(capsys):
    code, out = run(capsys, "points", "--builtin", "mu:4", "--base", "GF(5)",
                    "--ring", "GF(5)", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 4
    assert d["group"] == "C4"


def eps_rebased_file(tmp_path, spec, base):
    """A scheme file of spec over Dual(k) in the basis e_1 -> e_1 + eps e_2,
    so that its structure constants have eps-parts."""
    R = parse_ring(base)
    G = build_builtin(spec, R)
    Q = identity_matrix(R, G.rank)
    Q[0][1] = (R.base.zero, R.base.one)
    path = tmp_path / f"{spec.replace(':', '_')}.json"
    path.write_text(json.dumps(rebased(G, Q).to_dict()))
    return str(path)


def test_points_over_dual_numbers_with_eps_parts(tmp_path, capsys):
    z3 = eps_rebased_file(tmp_path, "const:Z3", "Dual(GF(5))")
    code, out = run(capsys, "points", "--file", z3, "--ring", "Dual(GF(5))",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 3
    mu3 = eps_rebased_file(tmp_path, "mu:3", "Dual(GF(5))")
    for argv in (["points", "--ring", "Dual(GF(5))"], ["theorem"],
                 ["split", "--kernel", "3"]):
        assert main([argv[0], "--file", mu3] + argv[1:]) == 0, argv
    capsys.readouterr()


def test_dual_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "dual", "--builtin", "const:Z4", "--base", "Z/9",
                    "--format", "json")
    assert code == 0
    f = tmp_path / "dual.json"
    f.write_text(out)
    code, out = run(capsys, "verify", "--file", str(f))
    assert code == 0


def test_decompose_p(capsys):
    code, out = run(capsys, "decompose-p", "--builtin", "mu:6",
                    "--base", "GF(5)", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert [f["prime"] for f in d["factors"]] == [2, 3]
    assert d["product_isomorphism"] is True


def test_fibers(capsys):
    code, out = run(capsys, "fibers", "--builtin", "mu:2", "--base", "Zloc(2)",
                    "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert len(d["fibers"]) == 2


def test_loci(capsys):
    code, out = run(capsys, "loci", "--builtin", "const:S3", "--base", "GF(5)",
                    "--prime", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["subgroup_order"] == 3


def test_connected_etale(capsys):
    code, out = run(capsys, "connected-etale", "--builtin", "mu:6",
                    "--base", "GF(3)", "--format", "json")
    assert code == 0


def test_connected_etale_over_zmod_prime_powers(capsys):
    """Z/p^e is Artin local: the identity core lifts along its chain of
    square-zero ideals, 39 of them over Z/2^40.  Bases with no single
    residue field keep their error."""
    for base, kernel in (("Z/9", 3), (f"Z/{2 ** 40}", 2)):
        code, out = run(capsys, "connected-etale", "--builtin", "mu:6",
                        "--base", base, "--format", "json")
        assert code == 0, base
        d = json.loads(out)
        assert (d["kernel_order"], d["quotient_order"]) == (kernel, 6 // kernel)
        assert all(e["left_injective"] and e["exact_middle"] and e["right_surjective"]
                   for e in d["ledger"]), base
    for base in ("Zloc(2)", "Z/6"):
        assert main(["connected-etale", "--builtin", "mu:6", "--base", base]) == 2
        assert capsys.readouterr().err == ("error: identity component needs a field "
                                           f"or Artin local base, not {base}\n")


def test_theorem(capsys):
    code, out = run(capsys, "theorem", "--builtin", "mu:6", "--base", "Zloc(2)",
                    "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["kernel_order"] == 2


def test_theorem_beyond_the_listed_splitting_fields(capsys):
    # the Q fibers of mu_34 and mu_38 split over no field of order <= 2^16
    # of their reductions mod 3; the x^p = 1 count needs no such field
    for n, p in ((34, 17), (38, 19)):
        code, out = run(capsys, "theorem", "--builtin", f"mu:{n}",
                        "--base", f"Zloc({p})", "--format", "json")
        assert code == 0, n
        d = json.loads(out)
        assert (d["kernel_order"], d["quotient_order"]) == (p, 2)
        assert [f["prime"] for f in d["factors"]] == [p]


def test_split_with_kernel(capsys):
    code, out = run(capsys, "split", "--builtin", "const:S3", "--base", "Q",
                    "--kernel", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["splitting"]["status"] == "found"


def test_split_budget_bounds_the_section_search_only(capsys):
    def split(spec, base, budget):
        code, out = run(capsys, "split", "--builtin", spec, "--base", base,
                        "--kernel", "3", "--budget-iso", budget, "--format", "json")
        return code, json.loads(out)["splitting"]

    # the points come from the ledger, made under --budget-points, so a
    # section search budget of 3 finds the section of S3 over Q
    code, d = split("const:S3", "Q", "3")
    assert (code, d["status"], d["ring"]) == (0, "found", "Q")
    # Z/6 over GF(7): the first of the 3 candidate images of the generator
    # of Z/2 has order 6, so one candidate is not enough and two are
    code, d = split("const:Z6", "GF(7)", "1")
    assert (code, d["status"], d["detail"]) == (
        1, "unknown", "section search budget exhausted")
    assert split("const:Z6", "GF(7)", "2")[1]["status"] == "found"
    # a budget of 0 tries no candidate at all
    for spec, base in (("const:S3", "Q"), ("const:Z6", "GF(7)")):
        code, d = split(spec, base, "0")
        assert (code, d["status"], d["section"]) == (1, "unknown", None), spec


def test_refine(capsys):
    code, out = run(capsys, "refine", "--builtin", "const:Z6", "--base", "GF(5)",
                    "--kernels", "6,2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["refined"]["kernel_order"] == 2


def test_refine_ledger_keeps_the_points_budget(capsys):
    """The refined extension's ledger takes points within --budget-points,
    as the two extensions it refines do: with a bound of 1 every test ring
    of const:Z6 over GF(5) is skipped, and with 6 its three rows stay."""
    for budget, rows in (("1", 0), ("6", 3)):
        code, out = run(capsys, "refine", "--builtin", "const:Z6", "--base", "GF(5)",
                        "--kernels", "6,2", "--budget-points", budget, "--format", "json")
        ledger = json.loads(out)["refined"]["ledger"]
        assert code == 0 and len(ledger) == rows, budget
        assert all(row["counts"][1] == 6 for row in ledger)


def test_connected_etale_ledger_keeps_the_points_budget(capsys):
    """connected-etale takes the ledger's points within --budget-points: a
    bound of 1 skips the two rows over dual numbers of mu_2 over GF(2),
    which have 2 and 4 points, and keeps the five field rows; without the
    flag all seven rows stay."""
    base = ["connected-etale", "--builtin", "mu:2", "--base", "GF(2)", "--format", "json"]
    code, out = run(capsys, *base)
    whole = json.loads(out)["ledger"]
    assert code == 0 and len(whole) == 7
    code, out = run(capsys, *base, "--budget-points", "1")
    assert code == 0
    assert json.loads(out)["ledger"] == [row for row in whole
                                         if not row["ring"].startswith("Dual")]
    assert sorted(row["counts"] for row in whole if row["ring"].startswith("Dual")) == \
        [[2, 2, 1], [4, 4, 1]]


def test_classify_p(capsys):
    code, out = run(capsys, "classify-p", "--builtin", "alpha:2",
                    "--base", "GF(2)", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"classification": "alpha"}


def test_parser_is_built_once_and_outlives_a_failed_parse(capsys):
    args = ["points", "--builtin", "mu:4", "--base", "GF(5)", "--ring", "GF(5)",
            "--format", "json"]
    fresh = subprocess.run([sys.executable, "-m", "ffgs.cli", *args],
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, text=True, timeout=60)
    assert main(["points", "--format", "xml"]) == 2
    assert main([]) == 2
    assert run(capsys, *args) == (fresh.returncode, fresh.stdout)
    assert cli.make_parser() is cli.make_parser()
    assert cli.make_parser.cache_info().misses == 1


def test_json_determinism_in_process(capsys):
    args = ["theorem", "--builtin", "mu:6", "--base", "Zloc(2)",
            "--format", "json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


# ----------------------------------------------------------------------
# malformed scheme files, fuzzed: each must end in exit 2, never a traceback

FUZZ_SEEDS = [("mu:2", "GF(3)"), ("const:Z3", "Q"), ("alpha:2", "GF(2)"),
              ("mu:2", "Dual(GF(3))"), ("ot2:2,-1", "Zloc(2)"), ("mu:3", "Z/4"),
              ("mu:2", "GF(2^2;x^2+x+1)")]
TENSOR_DEPTH = {"mult": 3, "unit": 1, "comult": 3, "counit": 1, "antipode": 2}
JSON_JUNK = [None, True, 1.5, 7, {}, {"0": "1"}, "junk", [], "DELETE"]
BAD_LITERALS = ["", " ", "x*y", "1/0", "abc", "((1)", "1/2/3", "--1", "eps*",
                "1+eps*", "9" * 5000, "x^" + "9" * 5000, "x^99999999"]
BAD_BASES = ["", "GF(4)", "GF(1)", "Z/1", "Z/0", "Zloc(6)", "Dual(Z/4)",
             "Dual(Dual(GF(3)))", "Dual(" * 2000 + "GF(3)" + ")" * 2000,
             "GF(2^2)", "GF(2^2;x^2+1)", "GF(2^20;x^20+x^3+1)",
             "GF(2^2;x^99999999)", "Q(", "R", "Zloc(x)"]
FUZZ_COMMANDS = [["verify"], ["order"], ["dual"], ["points", "--ring", "GF(3)"],
                 ["theorem"]]


def fuzzed(st):
    """A scheme dict from FUZZ_SEEDS with one defect: a wrong shape or
    rank, a wrong JSON type (or a missing key), a bad element literal or a
    bad base spec."""
    seeds = [build_builtin(spec, parse_ring(base)).to_dict()
             for spec, base in FUZZ_SEEDS]

    def inside(data, d, full):
        """A list inside one tensor, at a drawn depth below `full`."""
        key = data.draw(st.sampled_from(sorted(TENSOR_DEPTH)))
        node = d[key]
        for _ in range(data.draw(st.integers(0, TENSOR_DEPTH[key] - 1))
                       if full is None else TENSOR_DEPTH[key] - 1):
            node = node[data.draw(st.integers(0, len(node) - 1))]
        return node, data.draw(st.integers(0, len(node) - 1))

    @st.composite
    def draw(draw_):
        data = draw_(st.data())
        d = copy.deepcopy(draw_(st.sampled_from(seeds)))
        kind = draw_(st.sampled_from(["shape", "rank", "type", "literal", "base"]))
        if kind == "shape":
            node, i = inside(data, d, None)
            how = draw_(st.sampled_from(["drop", "extra", "wrap"]))
            if how == "drop":
                del node[i]
            elif how == "extra":
                node.append(copy.deepcopy(node[i]))
            else:
                node[i] = [node[i]]
        elif kind == "rank":
            m = d["rank"]
            d["rank"] = draw_(st.sampled_from([0, -1, m - 1, m + 1, 10 ** 12]))
        elif kind == "type":
            junk = draw_(st.sampled_from(JSON_JUNK))
            where = draw_(st.sampled_from(["document", "key", "tensor"]))
            if where == "document":
                d = None if junk == "DELETE" else junk
            elif where == "key":
                key = draw_(st.sampled_from(["base", "rank", *sorted(TENSOR_DEPTH)]))
                if junk == "DELETE":
                    del d[key]
                else:
                    d[key] = junk
            else:
                node, i = inside(data, d, None)
                node[i] = None if junk == "DELETE" else junk
        elif kind == "literal":
            node, i = inside(data, d, "full")
            node[i] = draw_(st.sampled_from(BAD_LITERALS))
        else:
            d["base"] = draw_(st.sampled_from(BAD_BASES))
        return d

    return draw()


def test_fuzzed_scheme_files_exit_2(tmp_path, capsys):
    hyp, st, _ = hypothesis_or_skip()
    bad = tmp_path / "bad.json"

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(fuzzed(st))
    def check(d):
        bad.write_text(json.dumps(d))
        for command in FUZZ_COMMANDS:
            argv = [command[0], "--file", str(bad), "--format", "json", *command[1:]]
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (argv, d, captured.err)
            assert captured.err.startswith("error: "), (argv, captured.err)

    check()


def test_unreadable_files_exit_2(tmp_path, capsys):
    """Bytes that are not UTF-8, JSON nested past the parser's stack and
    truncated JSON, as a scheme file and as a group table."""
    bad = tmp_path / "bad.json"
    for content in (b"\xff\xfe", b"[" * 100000 + b"]" * 100000, b'{"base": "GF(3)"'):
        bad.write_bytes(content)
        for argv in (["verify", "--file", str(bad)],
                     ["order", "--builtin", f"const:{bad}", "--base", "GF(5)"]):
            assert main(argv) == 2, (argv, content[:10])
            captured = capsys.readouterr()
            assert captured.err.startswith("error: "), captured.err
