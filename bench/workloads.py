"""The three benchmark workloads: task lists with hand-written answers.

Every task is one ``ffgs`` command line.  Its expected exit code and facts
are written here by hand from the mathematics (orders, kernels, splitting
status, the axiom a corrupted input must break); none is taken from ffgs
output.  ``points`` results are compared with ``oracle.enumerate_points``
on a scheme built from ``gen``'s own tensors, outside the timed call.

Seeds only rename group elements, reorder the basis of dense inputs and
pick the corrupted entries.  Which schemes, bases and commands run is fixed, so the
work per run stays comparable across seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import gen

WORKLOADS = ("theorem-ladder", "hopf-verify", "points-ledger")

# The largest instance of each workload, reported as top_rung_s.
TOP_RUNG = {
    "theorem-ladder": "theorem mu:15 Zloc(3)",
    "hopf-verify": "verify const:Z30 GF(31) natural",
    "points-ledger": "split const:Z15 GF(2) kernel 3",
}

@dataclass
class Task:
    id: str
    argv: list
    ring: str
    order: int
    # check(exit_code, stdout) -> None when the known answer holds, else why not
    check: Callable = field(repr=False)
    # input of the class the known bialgebra-unit defect affects
    defect_class: bool = False


class Inputs:
    """Writes seeded input files into one directory."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def table(self, group):
        """(ffgs builtin spec, table) of a relabelled cyclic or S3 group."""
        base_table = gen.s3_table() if group == "S3" else gen.cyclic_table(int(group[1:]))
        table = gen.relabel(base_table, gen.rng_for(self.seed, "relabel", group))
        return "const:" + self.write(f"{group}.json", table), table


def _facts_differ(got, want):
    bad = [f"{k}={got.get(k)!r} want {v!r}" for k, v in want.items()
           if got.get(k) != v]
    return "; ".join(bad) or None


def _json_check(want_code, facts_of, want):
    def check(code, out):
        if code != want_code:
            return f"exit {code} want {want_code}"
        return _facts_differ(facts_of(json.loads(out)), want)
    return check


# ----------------------------------------------------------------------
# theorem-ladder

# spec, base, kernel order, infinitesimal ranks, splitting status, ring.
# The kernel is the infinitesimal part: mu_p for each prime p | n that is
# the residue characteristic of a fiber, trivial for constant groups.  The
# splitting search succeeds on the first test ring (by size, then name)
# where the quotient has all its points.
THEOREM_LADDER = [
    ("mu:6", "Zloc(2)", 2, [1, 2], "found", "GF(2^2;x^2+x+1)"),
    ("mu:6", "Q", 1, [1], "no-splitting-ring", None),
    ("mu:6", "GF(7)", 1, [1], "found", "GF(7)"),
    ("mu:6", "GF(3)", 3, [3], "found", "GF(3)"),
    ("mu:6", "Z/35", 1, [1], "found", "GF(7)"),
    ("mu:6", "Dual(GF(7))", 1, [1], "found", "GF(7)"),
    ("const:Z6", "Zloc(5)", 1, [1], "found", "GF(5)"),
    ("const:S3", "Q", 1, [1], "found", "Q"),
    ("const:S3", "Z/35", 1, [1], "found", "GF(5)"),
    ("const:S3", "GF(5)", 1, [1], "found", "GF(5)"),
    ("sdp:mu:3,Z2,inv", "Zloc(3)", 3, [1, 3], "found", "GF(3)"),
    ("sdp:mu:3,Z2,inv", "Q", 1, [1], "no-splitting-ring", None),
    ("mu:10", "Zloc(2)", 2, [1, 2], "found", "GF(2^4;x^4+x^3+1)"),
    ("mu:10", "GF(11)", 1, [1], "found", "GF(11)"),
    ("mu:10", "GF(5)", 5, [5], "found", "GF(5)"),
    ("mu:10", "Z/33", 1, [1], "found", "GF(11)"),
    ("mu:10", "Dual(GF(11))", 1, [1], "found", "GF(11)"),
    ("const:Z10", "Dual(GF(3))", 1, [1], "found", "GF(3)"),
    ("mu:15", "Zloc(3)", 3, [1, 3], "no-splitting-ring", None),
    ("mu:15", "GF(3)", 3, [3], "no-splitting-ring", None),
]


def _order_of(spec):
    kind, _, arg = spec.partition(":")
    if kind == "sdp":
        return 6
    return 6 if arg == "S3" else int(arg.lstrip("Z"))


def _theorem_facts(d):
    return {
        "schema": d["schema"],
        "order": d["order"],
        "kernel_order": d["kernel_order"],
        "quotient_order": d["quotient_order"],
        "kernel_x_quotient": d["kernel_order"] * d["quotient_order"],
        "infinitesimal_ranks": d["infinitesimal_ranks"],
        "factors": [(f["prime"], f["order"]) for f in d["factors"]],
        "product_isomorphism": d["product_isomorphism"],
        "split": (d["splitting"]["status"], d["splitting"]["ring"]),
    }


def theorem_ladder(inp):
    tasks = []
    for spec, base, kernel, iranks, status, ring in THEOREM_LADDER:
        n = _order_of(spec)
        arg = spec
        if spec.startswith("const:"):
            arg, _ = inp.table(spec[6:])
        want = {
            "schema": 1, "order": n, "kernel_order": kernel,
            "quotient_order": n // kernel, "kernel_x_quotient": n,
            "infinitesimal_ranks": iranks,
            "factors": [(kernel, kernel)] if kernel > 1 else [],
            "product_isomorphism": True, "split": (status, ring),
        }
        tasks.append(Task(
            f"theorem {spec} {base}",
            ["theorem", "--builtin", arg, "--base", base, "--format", "json"],
            base, n, _json_check(0, _theorem_facts, want)))
    return tasks


# ----------------------------------------------------------------------
# hopf-verify

# Natural (sparse) bases, rank 15 to 30: (label, kind, group or n, base).
SPARSE = [
    ("const:Z30", "const", "Z30", "GF(31)"),
    ("mu:30", "mu", 30, "GF(31)"),
    ("mu:15", "mu", 15, "GF(7)"),
    ("const:Z15", "const", "Z15*", "GF(7)"),
    ("mu:15", "mu", 15, "Q"),
    ("mu:22", "mu", 22, "Z/6"),
    ("const:Z15", "const", "Z15*", "Z/6"),
    ("mu:26", "mu", 26, "Dual(GF(3))"),
    ("const:Z22", "const", "Z22*", "GF(23)"),
    ("const:Z15", "const", "Z15*", "Zloc(2)"),
]
# Rank 6 to 10 after a seeded unitriangular change of basis (dense).
DENSE = [
    ("mu:6", "mu", 6, "GF(7)"),
    ("const:Z6", "const", "Z6", "Z/6"),
    ("const:Z10", "const", "Z10", "Z/10"),
    ("mu:10", "mu", 10, "GF(11)"),
    ("const:S3", "const", "S3", "Q"),
    ("const:Z6", "const", "Z6", "Zloc(3)"),
    ("mu:6", "mu", 6, "Z/35"),
    ("mu:8", "mu", 8, "GF(5)"),
]
# Valid schemes whose unit has zero-divisor coordinates: GroupScheme.verify
# builds the expected Delta(1) with explicit zero products that comult_vec
# drops, so today they fail "bialgebra-unit" (a known defect, counted as
# failed and listed by task id).
AFFECTED = {"const:Z6 Z/6", "const:Z10 Z/10"}
# Inputs that get one corrupted entry; the seed picks the entry.  The
# counit and the antipode of a Hopf algebra are unique, so any change
# breaks the counit law (checked early) or the antipode law (checked last).
CORRUPT = [
    ("counit", "const:Z30 GF(31) natural"),
    ("counit", "mu:15 Q natural"),
    ("counit", "mu:10 GF(11) dense"),
    ("counit", "const:S3 Q dense"),
    ("antipode", "mu:30 GF(31) natural"),
    ("antipode", "const:Z15 GF(7) natural"),
    ("antipode", "mu:6 Z/35 dense"),
    ("antipode", "mu:8 GF(5) dense"),
    ("antipode", "const:Z22 GF(23) natural"),
    ("antipode", "const:S3 Q dense"),
]
DUAL = ["mu:30 GF(31) natural", "const:Z22 GF(23) natural",
        "mu:10 GF(11) dense", "const:Z6 Zloc(3) dense"]

AXIOM_FAMILY = {"counit": ("counit",),
                "antipode": ("antipode-left", "antipode-right")}


def _tensors(inp, kind, arg):
    if kind == "mu":
        return gen.mu_tensors(arg)
    group = arg.rstrip("*")
    if arg.endswith("*"):
        _, table = inp.table(group)
    else:
        table = gen.s3_table() if group == "S3" else gen.cyclic_table(int(group[1:]))
    return gen.constant_tensors(table)


def _dense(t, base, rng, affected):
    """Dense input: a fixed unitriangular change of basis, then a seeded
    reordering of the new basis.  The reordering leaves the work of every
    command unchanged, so the cost does not depend on the seed.  For an
    input in AFFECTED the fixed basis is the first one whose unit has two
    nonzero coordinates with product zero, the class the known defect
    mishandles."""
    m = t["rank"]
    for k in range(100):
        dense = gen.rebase(t, *gen.unitriangular(m, gen.rng_for("dense", m, k)))
        if not affected or gen.zero_product_unit(gen.serialise(dense, base)):
            sigma = list(range(m))
            rng.shuffle(sigma)
            return gen.serialise(gen.permute(dense, sigma), base)
    raise RuntimeError(f"no dense basis with a zero-divisor unit over {base}")


def _verify_check(want):
    """want: None for a valid scheme, else the corrupted slot."""
    def check(code, out):
        d = json.loads(out)
        if want is None:
            return None if code == 0 and d == {"status": "pass"} else \
                f"exit {code} {d} want pass"
        if code == 1 and d.get("axiom") in AXIOM_FAMILY[want]:
            return None
        return f"exit {code} {d} want a {want} failure"
    return check


def _dual_check(want):
    def check(code, out):
        if code != 0:
            return f"exit {code} want 0"
        return None if json.loads(out) == want else "dual differs from the transposed tensors"
    return check


def hopf_verify(inp):
    schemes = {}
    for rows, style in ((SPARSE, "natural"), (DENSE, "dense")):
        for label, kind, arg, base in rows:
            t = _tensors(inp, kind, arg)
            d = gen.serialise(t, base)
            if style == "dense":
                d = _dense(t, base, gen.rng_for(inp.seed, "basis", label, base),
                           f"{label} {base}" in AFFECTED)
            schemes[f"{label} {base} {style}"] = d
    tasks = []
    files = {}
    for i, (key, d) in enumerate(schemes.items()):
        files[key] = inp.write(f"scheme{i:02d}.json", d)
        tasks.append(Task(f"verify {key}", ["verify", "--file", files[key], "--format", "json"],
                          d["base"], d["rank"], _verify_check(None),
                          gen.zero_product_unit(d)))
    for i, (slot, key) in enumerate(CORRUPT):
        d = gen.corrupt(schemes[key], slot, gen.rng_for(inp.seed, "corrupt", slot, key))
        path = inp.write(f"corrupt{i:02d}.json", d)
        tasks.append(Task(f"verify {key} bad-{slot}", ["verify", "--file", path, "--format", "json"],
                          d["base"], d["rank"], _verify_check(slot),
                          gen.zero_product_unit(d)))
    for key in DUAL:
        d = schemes[key]
        tasks.append(Task(f"dual {key}", ["dual", "--file", files[key], "--format", "json"],
                          d["base"], d["rank"], _dual_check(gen.dual_dict(d))))
    return tasks


# ----------------------------------------------------------------------
# points-ledger

# points --ring T for every finite T in the base's test-ring family.
POINT_SCHEMES = [
    ("mu:6", "Zloc(2)"),
    ("ot2:1,-2", "Zloc(2)"),
    ("ot2:-1,2", "Zloc(2)"),
    ("mu:10", "Zloc(5)"),
    ("const:S3", "Zloc(3)"),
    ("alpha:3", "GF(3)"),
    ("mu:15", "Zloc(3)"),
    ("mu:7", "GF(2)"),
    ("alpha:2", "Dual(GF(2))"),
    ("const:Z6", "Z/6"),
]
# Points over Q (etale schemes only): mu_n(Q) = {+-1} cut to n, G(Q) = G.
Q_POINTS = [("mu:6", 2), ("mu:5", 1), ("const:S3", 6), ("const:Z10", 10)]
# connected-etale: (spec, base, identity component order, etale quotient)
CONNECTED_ETALE = [
    ("mu:6", "GF(3)", 3, 2),
    ("mu:10", "Dual(GF(5))", 5, 2),
    ("const:S3", "GF(2)", 1, 6),
    ("alpha:3", "GF(3)", 3, 1),
    ("mu:15", "GF(5)", 5, 3),
]
# refine --kernels d1,d2 on cyclic G of order n: ker[d1] and ker[d2]
# meet in ker[gcd(d1, d2, n)].
REFINE = [
    ("const:Z6", "GF(5)", (6, 2), 2),
    ("const:Z10", "GF(3)", (10, 5), 5),
    ("mu:6", "GF(7)", (6, 3), 3),
]
# split --kernel p: every extension here has coprime kernel and quotient
# orders, so a section exists on the first test ring with all points.
SPLIT = [
    ("const:Z15", "GF(2)", 3, "GF(2)"),
    ("const:S3", "Q", 3, "Q"),
    ("mu:6", "Zloc(2)", 2, "GF(2^2;x^2+x+1)"),
    ("mu:10", "GF(5)", 5, "GF(5)"),
    ("mu:6", "GF(7)", 3, "GF(7)"),
    ("const:Z6", "Zloc(3)", 3, "GF(3)"),
]

ORACLE_BUDGET = 100000


def _point_tensors(spec, table):
    kind, _, arg = spec.partition(":")
    if kind == "mu":
        return gen.mu_tensors(int(arg))
    if kind == "alpha":
        return gen.alpha_tensors(int(arg))
    if kind == "ot2":
        a, b = (int(x) for x in arg.split(","))
        return gen.ot2_tensors(a, b)
    return gen.constant_tensors(table)


def _components(ring):
    """Connected components of Spec of a finite test ring."""
    if ring.startswith("Z/"):
        n, count, p = int(ring[2:]), 0, 2
        while n > 1:
            if n % p == 0:
                count += 1
                while n % p == 0:
                    n //= p
            p += 1
        return count
    return 1


def _points_check(scheme_dict, ring, spec):
    """Element-for-element agreement with the oracle on the generator's
    own tensors.  A constant group has |G|^c points on a ring with c
    connected components; that count stands in when the oracle's search
    would exceed its budget."""
    def check(code, out):
        if code != 0:
            return f"exit {code} want 0"
        from ffgs.hopf import GroupScheme
        from ffgs.oracle import BudgetExceeded, enumerate_points
        from ffgs.rings import parse_ring
        got = json.loads(out)
        try:
            P = enumerate_points(GroupScheme.from_dict(scheme_dict), parse_ring(ring),
                                 budget=ORACLE_BUDGET)
        except BudgetExceeded:
            if not spec.startswith("const:"):
                return "oracle over budget and no hand count"
            want = scheme_dict["rank"] ** _components(ring)
            return None if got["order"] == want else f"{got['order']} points want {want}"
        want = sorted(P.to_dict()["elements"])
        if got["order"] != P.order or sorted(got["elements"]) != want:
            return f"{got['order']} points, oracle has {P.order}"
        return None
    return check


def _ledger_exact(d):
    return all(e["left_injective"] and e["exact_middle"] and e["right_surjective"]
               for e in d["ledger"])


def points_ledger(inp):
    from ffgs.rings import parse_ring
    from ffgs.testrings import test_ring_family
    tables = {}

    def arg_of(spec):
        if not spec.startswith("const:"):
            return spec, None
        group = spec[6:]
        if group not in tables:
            tables[group] = inp.table(group)
        return tables[group]

    tasks = []
    for spec, base in POINT_SCHEMES:
        arg, table = arg_of(spec)
        d = gen.serialise(_point_tensors(spec, table), base)
        for T in test_ring_family(parse_ring(base)):
            ring = T.name()
            tasks.append(Task(
                f"points {spec} {base} {ring}",
                ["points", "--builtin", arg, "--base", base, "--ring", ring,
                 "--format", "json"],
                base, d["rank"], _points_check(d, ring, spec)))
    for spec, count in Q_POINTS:
        arg, _ = arg_of(spec)
        tasks.append(Task(
            f"points {spec} Q Q",
            ["points", "--builtin", arg, "--base", "Q", "--ring", "Q", "--format", "json"],
            "Q", _order_of(spec), _json_check(0, lambda d: {"order": d["order"]},
                                              {"order": count})))
    for spec, base, conn, etale in CONNECTED_ETALE:
        arg, _ = arg_of(spec)
        n = conn * etale
        tasks.append(Task(
            f"connected-etale {spec} {base}",
            ["connected-etale", "--builtin", arg, "--base", base, "--format", "json"],
            base, n, _json_check(
                0, lambda d: {"kernel_order": d["kernel_order"],
                              "quotient_order": d["quotient_order"],
                              "ledger_exact": _ledger_exact(d)},
                {"kernel_order": conn, "quotient_order": etale, "ledger_exact": True})))
    for spec, base, (d1, d2), kernel in REFINE:
        arg, _ = arg_of(spec)
        n = _order_of(spec)
        tasks.append(Task(
            f"refine {spec} {base} {d1},{d2}",
            ["refine", "--builtin", arg, "--base", base, "--kernels", f"{d1},{d2}",
             "--format", "json"],
            base, n, _json_check(
                0, lambda d: {"kernel_order": d["refined"]["kernel_order"],
                              "quotient_order": d["refined"]["quotient_order"],
                              "ledger_exact": _ledger_exact(d["refined"])},
                {"kernel_order": kernel, "quotient_order": n // kernel,
                 "ledger_exact": True})))
    for spec, base, p, ring in SPLIT:
        arg = spec if spec == "const:Z15" else arg_of(spec)[0]
        n = _order_of(spec)
        tasks.append(Task(
            f"split {spec} {base} kernel {p}",
            ["split", "--builtin", arg, "--base", base, "--kernel", str(p),
             "--format", "json"],
            base, n, _json_check(
                0, lambda d: {"kernel_order": d["extension"]["kernel_order"],
                              "quotient_order": d["extension"]["quotient_order"],
                              "split": (d["splitting"]["status"], d["splitting"]["ring"])},
                {"kernel_order": p, "quotient_order": n // p, "split": ("found", ring)})))
    return tasks


BUILDERS = {"theorem-ladder": theorem_ladder, "hopf-verify": hopf_verify,
            "points-ledger": points_ledger}


def build(workload, seed, workdir):
    """Write the seeded inputs of one workload and return its task list."""
    tasks = BUILDERS[workload](Inputs(seed, workdir))
    if TOP_RUNG[workload] not in {t.id for t in tasks}:
        raise RuntimeError(f"top rung {TOP_RUNG[workload]!r} missing")
    return tasks
