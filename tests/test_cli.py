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
from ffgs.linalg import identity_matrix
from ffgs.rings import parse_ring
from test_hopf import hypothesis_or_skip, rebased

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
    for flag in ("--budget-points", "--budget-iso"):
        assert main(["points", "--builtin", "mu:3", "--base", "GF(5)",
                     "--ring", "GF(5)", flag, "-1"]) == 2
    # Spec Z/6 is not connected, and V_2 is only the point 2
    assert main(["theorem", "--builtin", "mu:6", "--base", "Z/6"]) == 2
    capsys.readouterr()
    # order-p subgroups and loci are defined for a prime p only; --kernel 0
    # is not the theorem path
    for argv in (["split", "--kernel", "6"], ["split", "--kernel", "0"],
                 ["split", "--kernel", "-3"], ["loci", "--prime", "1"],
                 ["loci", "--prime", "4"], ["loci", "--prime", "6"],
                 ["loci", "--prime", "-3"]):
        assert main(argv + ["--builtin", "mu:6", "--base", "Q"]) == 2, argv
        assert "prime" in capsys.readouterr().err, argv


def test_missing_preconditions_exit_2(capsys):
    # S3 has three subgroups of order 2, so none is the unique one
    for base in ("Q", "Zloc(3)", "Dual(GF(3))", "GF(5)"):
        assert main(["split", "--kernel", "2", "--builtin", "const:S3",
                     "--base", base]) == 2
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
    assert main(alpha3 + ["2"]) == 2
    capsys.readouterr()
    assert main(alpha3 + ["3"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 3
    # the bound also stops the lift along 3 in Z/9 (mu_3 has 3 points
    # there) and the CRT product over Z/6 (const Z/3 has 3 x 3)
    for spec, ring, bound in (("mu:3", "Z/9", "2"), ("const:Z3", "Z/6", "8")):
        assert main(["points", "--builtin", spec, "--base", ring, "--ring", ring,
                     "--budget-points", bound]) == 2, spec
    # the order-p classifier is defined over fields only
    for spec, base in (("mu:2", "Zloc(2)"), ("mu:3", "Z/9"),
                       ("ot2:2,-1", "Zloc(2)"), ("ot2:2,-1", "Z/4")):
        assert main(["classify-p", "--builtin", spec, "--base", base]) == 2
    capsys.readouterr()


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
    capsys.readouterr()


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
