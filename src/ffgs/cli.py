"""Command-line frontend.

One command per invocation; exit codes:
  0  success
  1  mathematical negative (failed verification, no unique subgroup, ...)
  2  user error (bad arguments, unsupported ring, precondition violation)
  3  internal inconsistency (a theory-guaranteed step failed: a bug)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions as cons
from . import hopf
from . import oracle
from . import structure
from .hopf import GroupScheme, HopfError
from .rings import Ring, RingError, parse_ring
from .structure import InternalInconsistencyError


class UserError(Exception):
    pass


def _load_table(spec: str):
    if spec == "S3":
        return oracle.s3_table()
    if spec.startswith("Z") and spec[1:].isascii() and spec[1:].isdigit():
        return oracle.cyclic_table(int(spec[1:]))
    try:
        with open(spec) as fh:
            table = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UserError(f"cannot read group table {spec!r}: {exc}")
    if not isinstance(table, list):
        raise UserError("group table file must hold a JSON array of rows")
    return table


def build_builtin(spec: str, R: Ring) -> GroupScheme:
    kind, _, payload = spec.partition(":")
    if kind == "mu":
        # ASCII digits only: str.isdigit also takes superscripts int() refuses
        if not (payload.isascii() and payload.isdigit()):
            raise UserError("usage: mu:n")
        return cons.mu(R, int(payload))
    if kind == "const":
        return cons.constant(R, _load_table(payload))
    if kind == "alpha":
        if not (payload.isascii() and payload.isdigit()):
            raise UserError("usage: alpha:p")
        return cons.alpha(R, int(payload))
    if kind == "ot2":
        parts = payload.split(",")
        if len(parts) != 2:
            raise UserError("usage: ot2:a,b")
        return cons.tate_oort2(R, R.parse(parts[0]), R.parse(parts[1]))
    if kind == "sdp":
        parts = payload.split(",")
        if len(parts) < 3:
            raise UserError("usage: sdp:<Q builtin>,<P table>,<action>")
        action_name = parts[-1]
        p_spec = parts[-2]
        q_spec = ",".join(parts[:-2])
        Q = build_builtin(q_spec, R)
        table = _load_table(p_spec)
        if action_name == "inv":
            action = cons.inversion_action(Q, table)
        else:
            raise UserError(f"unknown action {action_name!r} (supported: inv)")
        return cons.semidirect(Q, table, action)
    raise UserError(f"unknown builtin kind {kind!r}")


def load_scheme(args) -> GroupScheme:
    if args.file and args.builtin:
        raise UserError("give either --file or --builtin, not both")
    if args.file:
        try:
            with open(args.file) as fh:
                data = json.load(fh)
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise UserError(f"cannot load {args.file!r}: {exc}")
        try:
            G = GroupScheme.from_dict(data)
        except (KeyError, TypeError, RingError, HopfError) as exc:
            raise UserError(f"bad group-scheme file: {exc}")
        # verify, order and dual are defined on raw tensors; every other
        # command relies on the Hopf axioms (builtins satisfy them)
        if args.command not in ("verify", "order", "dual"):
            rep = G.verify()
            if not rep:
                raise UserError(f"not a Hopf algebra: {rep.axiom} fails "
                                f"at {rep.witness}")
        return G
    if args.builtin:
        if not args.base:
            raise UserError("--builtin needs --base <ring>")
        return build_builtin(args.builtin, parse_ring(args.base))
    raise UserError("give --file <scheme.json> or --builtin <spec> --base <ring>")


def emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# commands: each returns an exit code


def cmd_verify(args):
    G = load_scheme(args)
    rep = G.verify()
    emit(args, rep.to_dict(),
         ["pass" if rep.ok else f"fail: {rep.axiom} at {rep.witness}"])
    return 0 if rep.ok else 1


def cmd_order(args):
    G = load_scheme(args)
    emit(args, {"order": G.rank}, [str(G.rank)])
    return 0


def cmd_points(args):
    G = load_scheme(args)
    if not args.ring:
        raise UserError("points needs --ring <spec>")
    Rp = parse_ring(args.ring)
    P = hopf.points(G, Rp, bound=args.budget_points)
    tag = oracle.AbstractGroup.from_points(P).identify()
    d = P.to_dict()
    d["group"] = tag
    lines = [f"{P.order} points over {Rp.name()}: {tag}"]
    for i, e in enumerate(P.elements):
        lines.append(f"  {i}: ({', '.join(P.ring.show(c) for c in e)})")
    lines.append("table: " + "; ".join(" ".join(map(str, row)) for row in P.table))
    emit(args, d, lines)
    return 0


def cmd_dual(args):
    G = load_scheme(args)
    d = hopf.cartier_dual(G).to_dict()
    text = [json.dumps(d, indent=2, sort_keys=True)] if args.format == "text" else []
    emit(args, d, text)
    return 0


def cmd_decompose_p(args):
    G = load_scheme(args)
    factors, iso = structure.p_primary_decompose(G)
    payload = {
        "order": G.rank,
        "product_isomorphism": iso,
        "factors": [
            {"prime": p,
             "ideal": H.shown_ideal(),
             "order": H.order}
            for p, H in factors
        ],
    }
    lines = [f"order {G.rank} = " + " * ".join(str(p) for p, _ in factors)]
    for p, H in factors:
        lines.append(f"  G_{p}: order {H.order}, ideal rank {len(H.ideal)}")
    emit(args, payload, lines)
    return 0


def cmd_fibers(args):
    G = load_scheme(args)
    reports = structure.fiber_report(G)
    payload = {"fibers": [r.to_dict() for r in reports]}
    lines = []
    for r in reports:
        lines.append(
            f"{r.point.id} ({r.point.residue_field.name()}): "
            f"i = {r.infinitesimal_rank}, separable rank = {r.separable_rank}, "
            f"etale = {r.etale}, identity component = {r.classification}"
        )
    emit(args, payload, lines)
    return 0


def cmd_loci(args):
    G = load_scheme(args)
    if not args.prime:
        raise UserError("loci needs --prime p")
    rep = structure.locus_report(G, args.prime)
    lines = [
        f"S1 = {rep.s1}",
        f"S_{args.prime} = {rep.sp}",
        f"V_{args.prime} = {rep.vp}",
    ]
    if rep.subgroup is not None:
        lines.append(f"G_{args.prime}: order {rep.subgroup.order}")
    emit(args, rep.to_dict(), lines)
    return 0 if (rep.subgroup is not None or not rep.vp_is_whole()) else 1


def cmd_connected_etale(args):
    G = load_scheme(args)
    E = structure.connected_etale_sequence(G, budget=args.budget_points)
    lines = [
        f"1 -> (order {E.kernel.order}) -> (order {E.total.rank}) "
        f"-> (order {E.quotient.rank}) -> 1",
    ]
    for entry in E.ledger:
        lines.append(f"  {entry['ring']}: counts {entry['counts']}, "
                     f"exact = {entry['exact_middle']}")
    emit(args, E.to_dict(), lines)
    return 0


def cmd_theorem(args):
    G = load_scheme(args)
    cert = structure.theorem_decompose(G, budget=args.budget_points,
                                       section_budget=args.budget_points)
    lines = [
        f"infinitesimal ranks: {cert.i_values}",
        f"1 -> G' (order {cert.witness.kernel.order}) -> G (order {G.rank}) "
        f"-> G'' (order {cert.witness.quotient.rank}) -> 1",
        f"G'' discriminant: {G.ring.show(cert.quotient_discriminant)}",
        "factors: " + ", ".join(f"order {H.order} at p={p}"
                                for p, H in cert.factors),
        f"splitting: {cert.split.status}"
        + (f" over {cert.split.ring_name}" if cert.split.ring_name else ""),
    ]
    emit(args, cert.to_dict(), lines)
    return 0


def cmd_split(args):
    G = load_scheme(args)
    if args.kernel is not None:
        H = structure.order_p_subgroup(G, args.kernel)
        E = cons.extension_witness(G, H, budget=args.budget_points)
        res = structure.hochschild_split(E, budget=args.budget_iso)
    else:
        cert = structure.theorem_decompose(G, budget=args.budget_points,
                                           section_budget=args.budget_iso)
        E, res = cert.witness, cert.split
    payload = {"extension": E.to_dict(), "splitting": res.to_dict()}
    lines = [
        f"1 -> {E.kernel.order} -> {E.total.rank} -> {E.quotient.rank} -> 1",
        f"splitting: {res.status}"
        + (f" over {res.ring_name}" if res.ring_name else ""),
    ]
    if res.section is not None:
        lines.append(f"section: {res.section}")
    emit(args, payload, lines)
    return 0 if res.status == "found" else 1


def cmd_refine(args):
    G = load_scheme(args)
    if not args.kernels:
        raise UserError("refine needs --kernels d1,d2 (torsion kernels)")
    try:
        d1, d2 = (int(x) for x in args.kernels.split(","))
    except ValueError:
        raise UserError("refine needs --kernels d1,d2")
    E = structure.common_refinement(*(
        cons.extension_witness(G, cons.kernel(hopf.convolution_power(G, d)),
                               budget=args.budget_points) for d in (d1, d2)))
    flag, disc = hopf.is_etale(E.quotient), E.quotient.discriminant
    payload = {"refined": E.to_dict(),
               "quotient_discriminant": G.ring.show(disc)}
    lines = [
        f"refined kernel order: {E.kernel.order}",
        f"quotient order {E.quotient.rank}, discriminant {G.ring.show(disc)} "
        f"(unit: {flag})",
    ]
    emit(args, payload, lines)
    return 0


def cmd_classify_p(args):
    G = load_scheme(args)
    tag = structure.classify_order_p(G)
    emit(args, {"classification": tag}, [tag])
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "order": cmd_order,
    "points": cmd_points,
    "dual": cmd_dual,
    "decompose-p": cmd_decompose_p,
    "fibers": cmd_fibers,
    "loci": cmd_loci,
    "connected-etale": cmd_connected_etale,
    "theorem": cmd_theorem,
    "split": cmd_split,
    "refine": cmd_refine,
    "classify-p": cmd_classify_p,
}


@functools.cache  # built once per process; parse_args does not change it
def make_parser():
    ap = argparse.ArgumentParser(
        prog="ffgs",
        description="finite flat group schemes of square-free order",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--file", help="group-scheme JSON file")
        p.add_argument("--builtin",
                       help="mu:n | const:<S3|Zn|file> | alpha:p | ot2:a,b | "
                            "sdp:<Q>,<P>,inv")
        p.add_argument("--base", help="base ring for --builtin")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name in ("points", "connected-etale", "theorem", "split", "refine"):
            p.add_argument("--budget-points", type=int, default=200000)
        if name == "split":
            p.add_argument("--budget-iso", type=int, default=200000)
        if name == "points":
            p.add_argument("--ring", help="points ring")
        if name == "loci":
            p.add_argument("--prime", type=int)
        if name == "split":
            p.add_argument("--kernel", type=int,
                           help="prime p: split the extension by the "
                                "order-p subgroup")
        if name == "refine":
            p.add_argument("--kernels",
                           help="d1,d2: refine the extensions by the "
                                "torsion kernels ker([d1]), ker([d2])")
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for flag in ("budget_points", "budget_iso"):  # those the command has
            if getattr(args, flag, 0) < 0:
                raise UserError(f"--{flag.replace('_', '-')} must be >= 0")
        return COMMANDS[args.command](args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (UserError, RingError, HopfError, oracle.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
