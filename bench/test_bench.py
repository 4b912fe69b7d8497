"""Self-tests of the benchmark harness.  Run from the checkout root:

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ffgs.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def snapshot(workload, seed, workdir):
    """Task ids, argv with the work directory masked, and file contents."""
    tasks = workloads.build(workload, seed, str(workdir))
    argv = [[a.replace(str(workdir), "<dir>") for a in t.argv] for t in tasks]
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    return [t.id for t in tasks], argv, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = snapshot(workload, 5, tmp_path / "a")
    assert a == snapshot(workload, 5, tmp_path / "b")
    ids, argv, files = snapshot(workload, 6, tmp_path / "c")
    assert (ids, argv) == a[:2]
    assert files != a[2]


def run_task(task):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ffgs.cli.main(task.argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupted_inputs_fail_with_their_axiom_family(seed, tmp_path):
    bad = [t for t in workloads.build("hopf-verify", seed, str(tmp_path)) if "bad-" in t.id]
    assert len(bad) == len(workloads.CORRUPT)
    for task in bad:
        code, out = run_task(task)
        assert task.check(code, out) is None, (task.id, out)


def test_affected_inputs_sit_in_the_known_defect_class(tmp_path):
    tasks = workloads.build("hopf-verify", 1, str(tmp_path))
    affected = {f"verify {key} dense" for key in workloads.AFFECTED}
    assert {t.id for t in tasks if t.defect_class} == affected


def cheap_tasks(tmp_path):
    """The first two tasks of order at most 6 of every command."""
    out, seen = [], {}
    for workload in workloads.WORKLOADS:
        for t in workloads.build(workload, 1, str(tmp_path / workload)):
            if t.order <= 6 and seen.get(t.argv[0], 0) < 2:
                seen[t.argv[0]] = seen.get(t.argv[0], 0) + 1
                out.append(t)
    return out


def test_stdout_is_identical_with_tracing_on_and_off(tmp_path):
    tasks = cheap_tasks(tmp_path)
    assert {t.argv[0] for t in tasks} == {"theorem", "verify", "dual", "points",
                                          "connected-etale", "refine", "split"}
    plain = [run_task(t) for t in tasks]
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.enabled = True
        traced = [run_task(t) for t in tasks]
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.metrics()["cli.main.incl_s"] > 0
    assert ffgs.cli.main.__name__ == "main" and not hasattr(ffgs.cli.main, "__wrapped__")


def test_tracer_patches_every_binding():
    import ffgs.constructions
    import ffgs.hopf
    import ffgs.structure
    original = ffgs.hopf.points
    bindings = [m for m in (ffgs, ffgs.hopf, ffgs.constructions, ffgs.structure)
                if getattr(m, "points", None) is original]
    assert len(bindings) >= 3
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(m.points is not original and m.points.__wrapped__ is original
                   for m in bindings)
        assert ffgs.hopf.GroupScheme.__dict__["from_dict"].__func__.__wrapped__
    finally:
        tr.uninstall()
    assert all(m.points is original for m in bindings)


def test_recursion_records_the_outermost_span_only():
    tr = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tr.wrap("structure.order_p_subgroup", fact)
    tr.enabled = True
    assert wrapped(5) == 120
    assert len(tr.spans) == 1


def test_nothing_is_recorded_while_disabled():
    tr = tracer.Tracer()
    wrapped = tr.wrap("linalg.member", lambda: 1)
    wrapped()
    assert tr.spans == []


def test_self_time_arithmetic_on_a_synthetic_nest():
    # main [0,10] > echelon [1,4] > member [2,3];  main > points [5,9]
    spans = [
        ("cli.main", 0.0, 10.0, -1, "t", True),
        ("linalg.echelon", 1.0, 4.0, 0, "t", True),
        ("linalg.member", 2.0, 3.0, 1, "t", True),
        ("hopf.points", 5.0, 9.0, 0, "t", False),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    counts = {"linalg.echelon": {"rows_in": 8, "rows_out": 2}}
    m = tracer.layer_metrics(spans, counts)
    assert m["linalg.echelon.self_s"] == 2.0
    assert m["linalg.member.self_s"] == 1.0
    assert m["linalg.self_s"] == 3.0
    assert m["cli.main.incl_s"] == 10.0
    assert m["cli.self_s"] == 3.0
    assert m["hopf.points.incl_s"] == 4.0 and m["hopf.points.failed"] == 1
    assert m["hopf.points.ok_ratio"] == 0.0
    assert m["linalg.echelon.rank_per_row"] == 0.25


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_timed_leaves_out_the_known_defect_class():
    tasks = [workloads.Task("a", [], "Q", 1, None), workloads.Task("b", [], "Z/6", 6, None, True)]
    assert run.timed(tasks, [1.0, 2.0]) == [1.0]
