"""The comparison of tools/same.py, on hand-made result lists (no
worktree is made and no tree is run)."""

import importlib.util
from pathlib import Path

SAME = Path(__file__).resolve().parent.parent / "tools" / "same.py"


def load_same():
    spec = importlib.util.spec_from_file_location("same", SAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_changed_stderr_text_is_a_difference():
    same = load_same()
    runs = [["points", "--builtin", "mu:6", "--base", "Z/9", "--ring", "Z/9"],
            ["theorem", "--builtin", "mu:6", "--base", "Z/9", "--budget-points", "3"],
            ["order", "--builtin", "mu:2", "--base", "Q"]]
    old = [[0, "order 6\n", ""],
           [2, "", "error: more than 0 points (the points bound)\n"],
           [0, "2\n", ""]]
    new = [[0, "order 6\n", ""],
           [2, "", "error: more than 3 points (the points bound)\n"],
           [0, "2\n", ""]]
    assert same.differences(old, old) == []
    assert same.differences(old, new) == [(1, old[1], new[1])]
    # a changed exit code or stdout alone is a difference too
    assert [i for i, _, _ in same.differences(old, [[2, *old[0][1:]], *old[1:]])] == [0]
    assert [i for i, _, _ in same.differences(old, [*old[:2], [0, "3\n", ""]])] == [2]
    text = same.show(runs[1], "REV", old[1], new[1])
    assert "more than 0 points" in text and "more than 3 points" in text
    assert text.startswith("differs: ffgs theorem --builtin mu:6")
    line = same.summary("REV", 1, runs, old, new)
    assert line.startswith("same: 3 runs, 1 differ (0 of 1 benchmark tasks, 1 of 2 sweep runs)")
    assert "at REV {0: 2, 2: 1}" in line

