"""ffgs benchmark: seeded workloads, checked and timed.

Run from the root of a checkout:

    python3 bench/run.py --workload theorem-ladder --seed 1 --seconds 20 --trace 0

Closed loop, one caller, one thread: a pass calls ``ffgs.cli.main``
in-process for each task of the workload in turn, with stdout captured.
Each pass runs in a fresh interpreter and runs every task once, so nothing
a cache keeps can be reused.  A run makes --seconds // PASS_SECONDS passes,
one after another.  Every time is scaled to a reference host speed (see
``host_speed``) and each task reports its fastest pass, which removes most
of the noise other tenants put on a shared host.  The task lists are sized
so a pass takes about PASS_SECONDS on a 2-core machine.  A task not
started within RUN_BUDGET_S / passes of its pass counts as failed, so a
run always ends in time.

--trace 0 prints the end-to-end metrics.  --trace 1 adds one pass with
every layer wrapped by ``tracer``, checks that each task's stdout is
byte-identical with and without tracing, and prints the per-layer
metrics; spans go to ``.bench_out/``.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
PASS_SECONDS = 10   # nominal length of one pass on a 2-core machine
RUN_BUDGET_S = 140  # every pass of a run, the traced one too, starts its last task by then
REFERENCE_S = 0.004  # host_speed() on the reference host, a 2-core VM in a quiet period


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe, or one pass written to a file
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-file", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def import_ffgs(root):
    """Import ffgs from the checkout's src/, never from site-packages."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ffgs", "__init__.py")):
        raise SystemExit(f"error: no ffgs sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import ffgs.cli  # noqa: F401
    if not os.path.abspath(sys.modules["ffgs"].__file__).startswith(src + os.sep):
        raise SystemExit("error: imported ffgs from outside the checkout")


def set_up(args, root):
    """Everything before the first task: import ffgs, write seeded inputs."""
    import_ffgs(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(workloads.WORKLOADS)})")
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    return workloads, workdir, workloads.build(args.workload, args.seed, workdir)


def remove(workdir):
    """Delete a run's input directory, and its parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(workdir))


def child(args, *extra):
    return [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def host_speed():
    """Seconds a fixed pure-Python loop takes right now.

    The host's speed drifts by up to 1.5x over minutes (other tenants), far
    more than any bound a benchmark could use.  Every reported time is
    scaled by REFERENCE_S / host_speed(), measured just before and after
    the timed call, so that it reads in seconds of the reference host and
    the drift cancels.  The loop does not touch ffgs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return time.perf_counter() - t0


def time_setup(args, root):
    """Median time from starting a fresh interpreter until it has the
    first task ready, over SETUP_REPEATS probes, scaled to the reference
    host."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = host_speed()
        t0 = time.perf_counter()
        with subprocess.Popen(child(args, "--setup-probe"), cwd=root,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"error: set-up probe failed ({proc.returncode})")
        samples.append(elapsed * 2 * REFERENCE_S / (before + host_speed()))
    return statistics.median(samples)


def run_pass(tasks, deadline_s, tracer=None):
    """Run every (id, argv) task once; returns
    [[seconds, exit code, stdout, host_speed() around the call] | None]."""
    cli = sys.modules["ffgs.cli"]  # main is looked up per call: the tracer patches it
    results = []
    start = time.perf_counter()
    for task_id, argv in tasks:
        if time.perf_counter() - start > deadline_s:
            results.append(None)
            continue
        gc.collect()
        before = host_speed()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                tracer.task = task_id
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a task failure, not a crash
                code = f"exception {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
        results.append([elapsed, code, out.getvalue(), (before + host_speed()) / 2])
    return results


def one_pass(args, root):
    """Child side: one pass over the parent's task list in this fresh
    interpreter, written to --pass-file."""
    import_ffgs(root)
    with open(args.pass_file) as fh:
        tasks = json.load(fh)
    tr = None
    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
    try:
        results = run_pass(tasks, RUN_BUDGET_S / (pass_count(args) + args.trace), tr)
    finally:
        if tr:
            tr.uninstall()
    out = {"results": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr:
        out["layers"] = tr.metrics()
        spans = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        out["spans"] = tr.dump(spans)
    with open(args.pass_file, "w") as fh:
        json.dump(out, fh)


def pass_count(args):
    """Untraced passes in a run: one per PASS_SECONDS of --seconds."""
    return max(1, args.seconds // PASS_SECONDS)


def run_passes(args, root, tasks, count, traced=False):
    """Run `count` passes, each in a fresh interpreter; returns their data."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"pass-{os.getpid()}.json")
    passes = []
    try:
        for _ in range(count):
            with open(path, "w") as fh:
                json.dump([[t.id, t.argv] for t in tasks], fh)
            proc = subprocess.run(child(args, "--pass-file", path,
                                        "--trace", str(int(traced))), cwd=root)
            if proc.returncode != 0:
                raise SystemExit(f"error: a pass exited {proc.returncode}")
            with open(path) as fh:
                passes.append(json.load(fh))
    finally:
        if os.path.exists(path):
            os.remove(path)
    return passes


def check_all(tasks, results):
    """Verdict per task: 'ok', 'known-defect: ...' or 'FAIL: ...'."""
    verdicts = []
    for task, res in zip(tasks, results):
        if res is None:
            verdicts.append("FAIL: not started before the deadline")
            continue
        _, code, out, _ = res
        if not isinstance(code, int):
            verdicts.append(f"FAIL: {code}")
            continue
        try:
            why = task.check(code, out)
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output ({type(exc).__name__}: {exc})"
        if why is None:
            verdicts.append("ok")
        elif task.defect_class and '"axiom":"bialgebra-unit"' in out:
            verdicts.append(f"known-defect: {why}")
        else:
            verdicts.append(f"FAIL: {why}")
    return verdicts


def digests(results):
    return [None if r is None else hashlib.sha256(r[2].encode()).hexdigest()
            for r in results]


def timed(tasks, secs):
    """Task times that enter batch_s and task_s_p50.  Inputs of the known
    defect's class are left out: they fail early today and would add their
    full cost once fixed, so counting them would penalise the fix."""
    return [x for t, x in zip(tasks, secs) if x is not None and not t.defect_class]


def seconds_of(results):
    return [r[0] if r else None for r in results]


def scaled_of(results):
    """Task times in seconds of the reference host (see host_speed)."""
    return [r[0] * REFERENCE_S / r[3] if r else None for r in results]


def fastest(columns):
    return [min((x for x in col if x is not None), default=None) for col in zip(*columns)]


def report(args, tasks, passes, workloads):
    """Check the outputs, print one row per task with its fastest untraced
    time, raw and scaled; returns (failed count, correct, per-task fastest
    scaled seconds)."""
    results = passes[0]["results"]
    verdicts = check_all(tasks, results)
    same = all(digests(p["results"]) == digests(results) for p in passes)
    untraced = [p["results"] for p in passes if "layers" not in p]
    raw = fastest(seconds_of(r) for r in untraced)
    scaled = fastest(scaled_of(r) for r in untraced)
    print(f"# ffgs benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}, passes {len(passes)}; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"# top rung: {workloads.TOP_RUNG[args.workload]}")
    for task, secs, ref, verdict in zip(tasks, raw, scaled, verdicts):
        shown = "-" if secs is None else f"{secs:.6f} scaled={ref:.6f}"
        print(f"task {json.dumps(task.id)} ring={task.ring} order={task.order} "
              f"seconds={shown} verdict={verdict}")
    failed = [t.id for t, v in zip(tasks, verdicts) if v != "ok"]
    defects = [t.id for t, v in zip(tasks, verdicts) if v.startswith("known-defect")]
    print(f"failed_ratio {len(failed)}/{len(tasks)} = {len(failed) / len(tasks)}")
    print(f"known_defect_failures {json.dumps(defects)}")
    print(f"stdout_identical_across_passes {same}")
    # correct: every mismatch is the known bialgebra-unit defect, and every
    # pass, traced or not, printed the same bytes
    return len(failed), len(failed) == len(defects) and same, scaled


def result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if args.setup_probe:
        _, workdir, _ = set_up(args, root)
        print("ready", flush=True)
        remove(workdir)
        return 0
    if args.pass_file:
        one_pass(args, root)
        return 0

    setup_s = None if args.trace else time_setup(args, root)
    workloads, workdir, tasks = set_up(args, root)
    try:
        passes = run_passes(args, root, tasks, pass_count(args))
        if args.trace:
            passes += run_passes(args, root, tasks, 1, traced=True)
        failed, correct, scaled = report(args, tasks, passes, workloads)
    finally:
        remove(workdir)
    top = next(i for i, t in enumerate(tasks) if t.id == workloads.TOP_RUNG[args.workload])
    per_task = timed(tasks, scaled)
    print(f"timed tasks {len(per_task)}, fastest of {pass_count(args)} passes each")
    if args.trace:
        import tracer as tracing
        totals = [sum(timed(tasks, scaled_of(p["results"]))) for p in passes]
        values = dict(passes[-1]["layers"])
        values["trace.overhead_ratio"] = totals[-1] / statistics.median(totals[:-1])
        print(f"spans {passes[-1]['spans']} written to .bench_out/")
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        metrics = {k: (v, units[k]) for k, v in values.items()}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "batch_s": (sum(per_task), "s"),
            "task_s_p50": (statistics.median(per_task), "s"),
            "top_rung_s": (scaled[top], "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
    result_line(correct, len(tasks), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
