import json

import pytest

from ffgs.cli import main


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


def test_missing_preconditions_exit_2(capsys):
    # S3 has three subgroups of order 2, so none is the unique one
    for base in ("Q", "Zloc(3)", "Dual(GF(3))", "GF(5)"):
        assert main(["split", "--kernel", "2", "--builtin", "const:S3",
                     "--base", base]) == 2
    assert main(["split", "--kernel", "2", "--builtin", "sdp:mu:3,Z2,inv",
                 "--base", "Q"]) == 2
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
    # group tables that are empty or have no identity
    assert main(["verify", "--builtin", "const:Z0", "--base", "GF(5)"]) == 2
    no_identity = tmp_path / "table.json"
    no_identity.write_text(json.dumps([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))
    assert main(["verify", "--builtin", f"const:{no_identity}",
                 "--base", "GF(5)"]) == 2
    capsys.readouterr()


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


def test_split_with_kernel(capsys):
    code, out = run(capsys, "split", "--builtin", "const:S3", "--base", "Q",
                    "--kernel", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["splitting"]["status"] == "found"


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


def test_json_determinism_in_process(capsys):
    args = ["theorem", "--builtin", "mu:6", "--base", "Zloc(2)",
            "--format", "json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
