"""Command-line entry point: metacode <subcommand> ..."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import code as code_mod
from . import ffield, idem, shoda, units
from .examples import run_examples
from .groups import (
    FiniteGroup,
    GroupError,
    MetacyclicGroup,
    ProductGroup,
    center,
    group_from_spec,
    load_group_file,
    subgroup_closure,
)

MIN_BUDGET = 1_000_000
BUDGET_HELP = (f"the codewords the exact distance search may examine (at least {MIN_BUDGET}); "
               "a code whose worst case exceeds it gets an interval d_lo..d_hi")


class UsageError(Exception):
    pass


def _load_group(text: str) -> FiniteGroup:
    """Accept a named constructor string or a JSON file path."""
    if os.path.exists(text):
        return load_group_file(text)
    try:
        return group_from_spec(text)
    except GroupError as exc:
        raise UsageError(f"--spec {text!r}: {exc}") from None


def _check_budget(budget: int) -> int:
    if budget < MIN_BUDGET:
        raise UsageError(f"--budget must be >= {MIN_BUDGET}")
    return budget


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=2, default=str)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# -- subcommand handlers ------------------------------------------------------


def cmd_field(args) -> int:
    ctx = ffield.make_field(args.p, args.e)
    if args.show_modulus:
        print(" ".join(str(c) for c in ctx.modulus))
    else:
        print(f"GF({ctx.q}) = GF({ctx.p}^{ctx.e})")
    return 0


def cmd_group_info(args) -> int:
    G = _load_group(args.spec)
    Z = center(G)
    info = {
        "name": G.name,
        "order": G.order,
        "center_order": Z.order,
        "center": [G.elem_label(x) for x in Z.elements],
    }
    if isinstance(G, MetacyclicGroup):
        info.update({"N": G.N, "M": G.M, "r": G.r, "s": G.s})
    if isinstance(G, ProductGroup):
        info["factors"] = [G.left.name, G.right.name]
    _emit(info, args)
    return 0


def cmd_ssp_list(args) -> int:
    G = _load_group(args.spec)
    pairs = shoda.ssp_catalog(G)
    out = []
    for pair in pairs:
        row = {
            "H_gens": [G.elem_label(g) for g in pair.H.gens],
            "H_order": pair.H.order,
            "K_gens": [G.elem_label(g) for g in pair.K.gens],
            "K_order": pair.K.order,
            "index": pair.index,
        }
        if args.verify:
            try:
                ok, why = shoda.verify_ssp(G, pair)
                row["verified"] = ok
                if not ok:
                    row["reason"] = why
            except shoda.TooLarge:
                row["verified"] = "skipped (group too large)"
        out.append(row)
    _emit(out, args)
    return 0


def _sparse_lines(G: FiniteGroup, e: idem.AlgebraElement) -> List[str]:
    lines = []
    for g in e.support():
        c = int(e.vec[g])
        if isinstance(G, MetacyclicGroup):
            i, j = G.decode(int(g))
            lines.append(f"{i} {j} {c}")
        elif isinstance(G, ProductGroup):
            x1, x2 = divmod(int(g), G.right.order)
            lines.append(f"{x1} {x2} {c}")
        else:
            lines.append(f"{int(g)} {c}")
    return lines


def cmd_pci_list(args) -> int:
    G = _load_group(args.spec)
    B = subgroup_closure(G, [_metacyclic(G, "--left").b]) if args.left else None
    alg = idem.GroupAlgebra(G, args.q)
    idems = idem.pcis_for_group(alg)
    rows = []
    for e in idems:
        row: Dict = {
            "pair": e.pair.label(),
            "k": e.k,
            "kind": e.kind,
            "support": int(e.value.weight()),
        }
        if args.json:
            row["coeffs"] = _sparse_lines(G, e.value)
        rows.append(row)
        if B is not None and e.pair.H.order < G.order:
            f1, f2 = idem.left_idempotents(alg, e, B)
            for tag, f in (("e*B^", f1), ("e*(1-B^)", f2)):
                rows.append(
                    {
                        "pair": e.pair.label(),
                        "k": e.k,
                        "kind": f"left {tag}",
                        "support": int(f.value.weight()),
                    }
                )
    if args.json:
        _emit(rows, args)
    else:
        for row in rows:
            print(f"{row['kind']:>16}  k={row['k']:<4} wt={row['support']:<6} {row['pair']}")
    return 0


def _metacyclic(G: FiniteGroup, what: str) -> MetacyclicGroup:
    """G itself, or UsageError when it has no generators a, b for what needs them."""
    if not isinstance(G, MetacyclicGroup):
        raise UsageError(f"{what} needs a metacyclic --spec (generators a, b); "
                         f"{G.name} is not metacyclic")
    return G


def _unit(alg: idem.GroupAlgebra, kind: str, params: List[int],
          e: Optional[idem.Idempotent] = None) -> units.UnitElement:
    """The unit of one kind on the generators a, b; a constructed unit lives in
    the corner of e, by default the pci k = 1 of the first pair with H != G."""
    G = _metacyclic(alg.G, f"the {kind} unit")
    if kind == "bicyclic":
        gi, gj, hi, hj = params
        return units.bicyclic(alg, G.encode(gi, gj), G.encode(hi, hj))
    if kind == "bass":
        return units.bass(alg, G.a, *params)
    if kind == "alt":
        return units.alternating(alg, G.a, *params)
    if e is None:
        pairs = [p for p in shoda.ssp_catalog(G) if p.H.order < G.order]
        if not pairs:
            raise UsageError(f"the constructed unit needs a pair with H != G; {G.name} has none")
        e = idem.pci(alg, pairs[0], 1)
    return units.constructed_unit(alg, e, *params, subgroup_closure(G, [G.b]))


def cmd_unit(args) -> int:
    G = _load_group(args.spec)
    alg = idem.GroupAlgebra(G, args.q)
    params = {"bicyclic": [args.gi, args.gj, args.hi, args.hj], "bass": [args.k, args.m],
              "alt": [args.k], "constructed": [args.s, args.k]}[args.kind]
    u = _unit(alg, args.kind, params)
    ok = u.verify()
    print(f"{args.kind} unit: wt(u) = {u.value.weight()}, wt(u^-1) = {u.inverse.weight()}, "
          f"u*u^-1 == identity: {ok}")
    return 0 if ok else 1


# --unit kind:int[:int], with the number of integers each kind takes
_UNIT_PARAMS = {"alt": 1, "bass": 2, "bicyclic": 4, "constructed": 2}


def _unit_spec(text: str) -> Tuple[str, List[int]]:
    kind, *params = text.split(":")
    if kind not in _UNIT_PARAMS:
        raise UsageError(f"unknown unit spec {text!r}")
    if len(params) != _UNIT_PARAMS[kind] or not all(re.fullmatch(r"-?\d+", v) for v in params):
        raise UsageError(f"--unit {text!r}: expected kind:int[:int] "
                         "(alt:k, bass:k:m, bicyclic:gi:gj:hi:hj or constructed:s:k)")
    return kind, [int(v) for v in params]


def _build_code(args) -> code_mod.LinearCode:
    G = _load_group(args.spec)
    if args.unit or args.beta or args.left:
        _metacyclic(G, "--unit/--beta/--left")
    alg = idem.GroupAlgebra(G, args.q)
    idems = idem.pcis_for_group(alg)
    if not 0 <= args.pci < len(idems):
        raise UsageError(f"--pci must be in 0..{len(idems) - 1}")
    e = idems[args.pci]
    provenance = {"pci": args.pci, "pair": e.pair.label(), "k": e.k}
    if args.unit:
        kind, params = _unit_spec(args.unit)
        f = units.conjugate_idempotent(alg, e, args.beta, _unit(alg, kind, params, e))
        provenance["unit"] = args.unit
        provenance["beta"] = args.beta
    elif args.beta:
        f = units.conjugate_idempotent(alg, e, args.beta)
        provenance["beta"] = args.beta
    elif args.left:
        B = subgroup_closure(G, [G.encode(args.left_i, args.left_j)])
        f, _ = idem.left_idempotents(alg, e, B)
        provenance["left"] = f"<a^{args.left_i} b^{args.left_j}>"
    else:
        f = e
    return code_mod.ideal_to_code(alg, f, provenance=provenance)


def cmd_code_build(args) -> int:
    budget = _check_budget(args.budget)
    c = _build_code(args)
    if c.k == 0:
        raise UsageError("the chosen idempotent generates the zero code")
    lo, hi, witness = code_mod.min_distance(c, budget=budget)
    out = {
        "n": c.n,
        "k": c.k,
        "d_lo": lo,
        "d_hi": hi,
        "witness_weight": int(np.count_nonzero(witness)),
        "provenance": c.provenance,
    }
    _emit(out, args)
    return 0


def cmd_code_genmat(args) -> int:
    c = _build_code(args)
    text = code_mod.emit_genmat(c)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_wedderburn(args) -> int:
    G = _load_group(args.spec)
    rep = code_mod.wedderburn_report(G, args.q)
    _emit(
        {
            "group": rep.group_name,
            "q": rep.q,
            "components": [
                {"matrix_size": s, "field_degree": d, "multiplicity": m}
                for (s, d, m) in rep.components
            ],
            "total_dim": rep.total_dim,
        },
        args,
    )
    return 0


def cmd_isocheck(args) -> int:
    G1, G2 = _load_group(args.spec1), _load_group(args.spec2)
    iso = code_mod.algebra_isomorphic(G1, G2, args.q)
    _emit({"group1": G1.name, "group2": G2.name, "q": args.q, "isomorphic": iso}, args)
    return 0


def cmd_verify(args) -> int:
    results = run_examples(only=args.only, budget=_check_budget(args.budget))
    bad = 0
    for r in results:
        status = r["status"]
        line = f"{status:>18}  {r['tag']:<24} {r['measured']}"
        if r.get("note"):
            line += f"  ({r['note']})"
        print(line)
        if status == "FAIL":
            bad += 1
    print(f"{len(results)} claims: "
          f"{sum(r['status'] == 'PASS' for r in results)} pass, "
          f"{sum(r['status'] == 'AUDIT-DISCREPANCY' for r in results)} audit discrepancies, "
          f"{bad} failures")
    return 2 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="metacode", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="construct GF(p^e)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--show-modulus", action="store_true")
    p.set_defaults(func=cmd_field)

    grp = sub.add_parser("group", help="group inspection")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("info")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_group_info)

    grp = sub.add_parser("ssp", help="strong Shoda pair catalogs")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("list")
    p.add_argument("--spec", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ssp_list)

    grp = sub.add_parser("pci", help="primitive central idempotents")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("list")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--left", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pci_list)

    p = sub.add_parser("unit", help="construct and verify a unit")
    p.add_argument("--kind", choices=["bicyclic", "bass", "alt", "constructed"], required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--gi", type=int, default=1)
    p.add_argument("--gj", type=int, default=0)
    p.add_argument("--hi", type=int, default=0)
    p.add_argument("--hj", type=int, default=1)
    p.set_defaults(func=cmd_unit)

    grp = sub.add_parser("code", help="build codes and generator matrices")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("build", cmd_code_build), ("genmat", cmd_code_genmat)):
        p = gsub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--pci", type=int, required=True)
        p.add_argument("--left", action="store_true")
        p.add_argument("--left-i", type=int, default=0)
        p.add_argument("--left-j", type=int, default=1)
        p.add_argument("--unit")
        p.add_argument("--beta", type=int, default=0)
        p.add_argument("--out")
        p.set_defaults(func=fn)
        if name == "build":
            p.add_argument("--budget", type=int, default=code_mod.DEFAULT_BUDGET, help=BUDGET_HELP)

    grp = sub.add_parser("algebra", help="Wedderburn structure reports")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("wedderburn")
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wedderburn)
    p = gsub.add_parser("isocheck")
    p.add_argument("--spec1", required=True)
    p.add_argument("--spec2", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_isocheck)

    grp = sub.add_parser("verify", help="acceptance claims from examples.json")
    gsub = grp.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("examples")
    p.add_argument("--only")
    p.add_argument("--budget", type=int, default=code_mod.DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed the pipe: send the exit flush to devnull, where it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GroupError, ffield.FieldError, idem.AlgebraError, units.UnitError,
            code_mod.CodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
