"""Compare ffgs at a git revision with the working tree, run for run.

    python3 tools/same.py REV

Checks out REV into a temporary `git worktree`, then runs the same command
lines in both trees, each tree in a fresh interpreter that calls
`ffgs.cli.main` in-process with captured streams.  The command lines are:

  * the benchmark tasks of every workload for seeds 1-3, built by
    importing `bench/workloads.py` (read-only) into one input directory
    both trees share;
  * a fixed sweep: the commands of `SWEEP_COMMANDS` on every scheme of
    `SCHEMES` over every base of `BASES`, then `points` over every test
    ring of each base;
  * the commands of `FILE_COMMANDS` on each valid input file of those
    `hopf-verify` tasks, in its natural or dense basis, then `points`
    over every test ring of its base;
  * the runs of `LARGE_RUNS`, each made once: orders 105 to 330, above
    the sweep's 15.

It prints each run whose exit code, stdout or stderr differ, with both
results, then one summary line with the number of differences and the
counts per exit code on each side.  It reports differences and does not
judge them.  The worktree is removed when done.  Exit status: 0 if no
run differs, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)

SCHEMES = ["mu:2", "mu:3", "mu:5", "mu:6", "mu:10", "mu:15",
           "const:Z3", "const:Z6", "const:S3", "const:Z10", "alpha:2", "alpha:3",
           "ot2:2,-1", "ot2:-2,1", "ot2:4,-1/2", "ot2:2/3,-3",
           "sdp:mu:3,Z2,inv", "sdp:mu:5,Z2,inv"]
BASES = ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2^2;x^2+x+1)", "Q",
         "Zloc(2)", "Zloc(3)", "Zloc(5)", "Z/3", "Z/4", "Z/8", "Z/6", "Z/9", "Z/27",
         "Z/35", "Dual(GF(2))", "Dual(GF(3))", "Dual(GF(5))", "Dual(Q)", "Dual(Z/3)"]
SWEEP_COMMANDS = [
    ["theorem"], ["theorem", "--format", "json"], ["theorem", "--budget-points", "3"],
    ["fibers"], ["loci", "--prime", "2"], ["loci", "--prime", "3"],
    ["split"], ["split", "--kernel", "2"], ["split", "--kernel", "3"],
    ["split", "--budget-iso", "1"],
    ["connected-etale"], ["connected-etale", "--format", "json"],
    ["theorem", "--budget-points", "0"], ["connected-etale", "--budget-points", "0"],
    ["decompose-p"], ["refine", "--kernels", "2,3"], ["classify-p"],
    ["dual", "--format", "json"],
]
FILE_COMMANDS = [["theorem"], ["fibers"], ["connected-etale"], ["split"]]
LARGE_RUNS = [
    ["theorem", "--builtin", "mu:210", "--base", "Zloc(7)", "--format", "json"],
    ["theorem", "--builtin", "const:Z66", "--base", "Zloc(2)", "--format", "json"],
    ["theorem", "--builtin", "mu:330", "--base", "Zloc(11)", "--format", "json"],
    ["fibers", "--builtin", "mu:105", "--base", "Zloc(7)"],
]


def sweep():
    """The fixed sweep's command lines."""
    from ffgs.rings import parse_ring
    from ffgs.testrings import test_ring_family
    runs = [[cmd[0], "--builtin", spec, "--base", base, *cmd[1:]]
            for cmd in SWEEP_COMMANDS for spec in SCHEMES for base in BASES]
    for base in BASES:
        for ring in test_ring_family(parse_ring(base)):
            runs += [["points", "--builtin", spec, "--base", base, "--ring", ring.name()]
                     for spec in SCHEMES]
    return runs


def benchmark_tasks(workdir):
    """Every benchmark task for seeds 1-3, with its inputs written under
    workdir."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.dont_write_bytecode = True  # read bench/, write nothing there
    import workloads
    return [task for seed in SEEDS for name in workloads.WORKLOADS
            for task in workloads.build(name, seed, os.path.join(workdir, f"{name}-{seed}"))]


def file_runs(tasks):
    """The command lines on the input file of each `verify` task of a
    valid scheme (the corrupted ones are tagged bad-)."""
    from ffgs.rings import parse_ring
    from ffgs.testrings import test_ring_family
    runs = []
    for task in tasks:
        if task.argv[0] == "verify" and "bad-" not in task.id:
            path = task.argv[task.argv.index("--file") + 1]
            runs += [[cmd[0], "--file", path, *cmd[1:]] for cmd in FILE_COMMANDS]
            runs += [["points", "--file", path, "--ring", ring.name()]
                     for ring in test_ring_family(parse_ring(task.ring))]
    return runs


def run_tree(root, runs):
    """[exit code, stdout, stderr] of each command line, run in-process
    with the ffgs of root; an escaping exception stands in for the code."""
    sys.path.insert(0, os.path.join(root, "src"))
    from ffgs import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"error: imported ffgs from outside {root}")
    results = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a traceback is a result to compare too
                code = f"exception {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def differences(old, new):
    """[(index, old result, new result)] of the runs whose results differ."""
    return [(i, a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]


def show(argv, rev, a, b):
    """Both results of a differing run, as text."""
    lines = ["differs: ffgs " + " ".join(argv)]
    for side, (code, out, err) in ((rev, a), ("working tree", b)):
        lines.append(f"  {side}: exit {code}")
        lines += [f"    stdout| {line}" for line in out.splitlines()]
        lines += [f"    stderr| {line}" for line in err.splitlines()]
    return "\n".join(lines)


def summary(rev, ntasks, runs, old, new):
    """The one summary line: differences among the benchmark tasks (the
    first ntasks runs) and the sweep with the file runs, and the exit codes
    on each side."""
    diff = [i for i, _, _ in differences(old, new)]
    in_tasks = sum(i < ntasks for i in diff)

    def codes(results):
        counts = Counter(str(r[0]) for r in results)
        return ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))

    return (f"same: {len(runs)} runs, {len(diff)} differ ({in_tasks} of {ntasks} "
            f"benchmark tasks, {len(diff) - in_tasks} of {len(runs) - ntasks} sweep runs); "
            f"exit codes at {rev} {{{codes(old)}}}, in the working tree {{{codes(new)}}}")


def _child(root, runs_path, out_path):
    with open(runs_path) as fh:
        runs = json.load(fh)
    with open(out_path, "w") as fh:
        json.dump(run_tree(root, runs), fh)


def main(argv):
    if argv[:1] == ["--tree"]:  # one tree, in the fresh interpreter main starts
        _child(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    tmp = tempfile.mkdtemp(prefix="ffgs-same-")
    tree = os.path.join(tmp, "tree")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach", tree, rev],
                       check=True)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        tasks = benchmark_tasks(os.path.join(tmp, "inputs"))
        runs = [task.argv for task in tasks] + sweep() + file_runs(tasks) + LARGE_RUNS
        runs_path = os.path.join(tmp, "runs.json")
        with open(runs_path, "w") as fh:
            json.dump(runs, fh)
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--tree", root,
                                   runs_path, os.path.join(tmp, f"{side}.json")], cwd=tmp)
                 for side, root in (("old", tree), ("new", ROOT))]
        if any([p.wait() for p in procs]):  # wait for both before the worktree goes
            raise SystemExit("error: a tree's run failed")
        elapsed = time.perf_counter() - t0
        with open(os.path.join(tmp, "old.json")) as fh:
            old = json.load(fh)
        with open(os.path.join(tmp, "new.json")) as fh:
            new = json.load(fh)
        found = differences(old, new)
        for i, a, b in found:
            print(show(runs[i], rev, a, b))
        print(summary(rev, len(tasks), runs, old, new) + f"; {elapsed:.0f} s")
        return 1 if found else 0
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                       stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
