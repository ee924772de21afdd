"""Command line interface.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .characters import CapExceeded
from .cocycles import (NotACocycle, NotNormalized, IdentityViolation, ThreeCocycle,
                       builtin_cyclic, check_identities, trivial_cocycle, validate)
from .cyclotomic import Cyclo
from .doubledata import TwistedDouble
from .groups import (BUILTIN_GROUP_NAMES, DEFAULT_ORDER_CAP, FiniteGroup,
                     GroupTooLarge, NotAGroup, builtin_group)
from . import oracle
from . import subcats as sc


class UsageError(Exception):
    """Malformed input files or arguments."""


# -- loading -----------------------------------------------------------------------


def _int_array(value: object, depth: int) -> bool:
    """Whether value is a list nested depth levels deep with integer leaves."""
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_int_array(v, depth - 1) for v in value)


def _load_group(args: argparse.Namespace) -> FiniteGroup:
    if args.cap < 1:
        raise UsageError(f"--cap must be at least 1, got {args.cap}")
    try:
        if args.builtin is not None:
            if args.builtin not in BUILTIN_GROUP_NAMES:
                raise UsageError(
                    f"unknown builtin group {args.builtin!r}; "
                    f"choose from {', '.join(BUILTIN_GROUP_NAMES)}")
            return builtin_group(args.builtin, cap=args.cap)
        if args.group is None:
            raise UsageError("one of --builtin or --group is required")
        try:
            with open(args.group, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read group file: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("group file must hold a JSON object")
        name = data.get("name", "G")
        if not isinstance(name, str):
            raise UsageError('"name" must be a string')
        for key, build in (("mult", FiniteGroup),
                           ("perm_gens", FiniteGroup.from_permutation_generators)):
            if key in data:
                rows = data[key]
                if not _int_array(rows, 2):
                    raise UsageError(f'"{key}" must be a list of lists of integers')
                n = len(rows)
                if key == "mult" and not (n and all(len(r) == n and all(0 <= x < n for x in r)
                                                    for r in rows)):
                    raise UsageError('"mult" must be a nonempty n x n table over 0..n-1')
                # element labels are the file's own, in cocycles, --triple and output
                if key == "mult" and not (rows[0] == [r[0] for r in rows] == list(range(n))):
                    raise UsageError('"mult" must have its identity at index 0: '
                                     'row 0 and column 0 must read 0..n-1')
                if key == "perm_gens" and not (n and all(sorted(g) == list(range(len(rows[0])))
                                                         for g in rows)):
                    raise UsageError('"perm_gens" must be a nonempty list of permutations '
                                     'of 0..d-1 for one d')
                return build(rows, name=name, cap=args.cap)
    except GroupTooLarge as exc:  # --cap limits the input group
        raise UsageError(str(exc)) from exc
    raise UsageError('group file needs a "mult" table or "perm_gens" list')


def _load_cocycle(args: argparse.Namespace, G: FiniteGroup) -> ThreeCocycle:
    spec = args.cocycle
    if spec == "trivial":
        return trivial_cocycle(G)
    if spec.startswith("cyclic:"):
        try:
            n_s, q_s = spec[len("cyclic:"):].split(",")
            n, q = int(n_s), int(q_s)
        except ValueError as exc:
            raise UsageError("--cocycle cyclic:N,Q needs two integers") from exc
        if n < 1:
            raise UsageError(f"--cocycle cyclic:N,Q needs N >= 1, got {n}")
        # compare orders first: builtin_cyclic(n, q) tabulates n^3 exponents
        om = builtin_cyclic(n, q) if n == G.order else None
        if om is None or om.group.mult != G.mult:
            raise UsageError(
                f"cyclic:{n},{q} lives on Z/{n} with the standard table; "
                "the selected group has a different table")
        return ThreeCocycle(G, om.modulus, om.dlog)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read cocycle file: {exc}") from exc
    if not isinstance(data, dict) or "modulus" not in data or "dlog" not in data:
        raise UsageError('cocycle file needs "modulus" and "dlog"')
    m = data["modulus"]
    raw = data["dlog"]
    if not _int_array(m, 0):
        raise UsageError(f'"modulus" must be an integer, got {m!r}')
    n = G.order
    if raw and _int_array(raw, 1):
        if len(raw) != n ** 3:
            raise UsageError(f"flat dlog must have {n}^3 entries")
        dlog = tuple(tuple(tuple(raw[(x * n + y) * n + z] for z in range(n))
                           for y in range(n)) for x in range(n))
    elif _int_array(raw, 3):
        dlog = tuple(tuple(tuple(row) for row in plane) for plane in raw)
    else:
        raise UsageError('"dlog" must be a flat list or an n x n x n array of integers')
    try:
        omega = ThreeCocycle(G, m, dlog)
    except ValueError as exc:
        raise UsageError(f"bad cocycle file: {exc}") from exc
    validate(omega)
    return omega


def _double(args: argparse.Namespace) -> TwistedDouble:
    G = _load_group(args)
    return TwistedDouble(G, _load_cocycle(args, G), cap=args.cap)


def _parse_members(text: str, order: int) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split("-"))
    except ValueError as exc:
        raise UsageError(f"bad element list {text!r}; use dash-joined indices") from exc
    if any(not (0 <= v < order) for v in vals):
        raise UsageError(f"element out of range in {text!r}")
    return vals


def _parse_triple(dd: TwistedDouble, spec: str) -> sc.Triple:
    parts = spec.split(",")
    if len(parts) != 3:
        raise UsageError('--triple takes "K,H,Bfile" (members dash-joined)')
    G = dd.group
    try:
        K = G.subgroup(_parse_members(parts[0], G.order))
        H = G.subgroup(_parse_members(parts[1], G.order))
    except ValueError as exc:
        raise UsageError(f"not a subgroup: {exc}") from exc
    try:  # rejects K, H that are not normal or do not commute elementwise
        valid = sc.bicharacters(dd, K, H)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if parts[2] == "trivial":
        B = sc.trivial_pairing(K, H, dd.ctx.N)
    else:
        try:
            with open(parts[2], encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read pairing file: {exc}") from exc
        if not isinstance(data, dict) or "dlog" not in data:
            raise UsageError('pairing file needs a "dlog" table over K x H members')
        if not _int_array(data["dlog"], 2):
            raise UsageError('"dlog" must be a list of lists of integers')
        try:
            B = sc.Pairing(K, H, dd.ctx.N,
                           tuple(tuple(v % dd.ctx.N for v in row) for row in data["dlog"]))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if B not in valid:
        raise UsageError("the pairing is not a G-invariant bicharacter on K x H "
                         "for this cocycle")
    return sc.Triple(K, H, B)


# -- serialization ------------------------------------------------------------------


def _cyclo_json(z: Cyclo) -> dict:
    approx = z.to_complex()
    return {"N": z.ctx.N, "coeffs": list(z.num), "den": z.den,
            "approx": {"re": approx.real, "im": approx.imag}}


def _flags_list(flags: sc.TripleFlags) -> list[str]:
    return [name for name in ("symmetric", "isotropic", "lagrangian", "nondegenerate")
            if getattr(flags, name)]


def _triple_json(dd: TwistedDouble, t: sc.Triple) -> dict:
    return {"K": list(t.K.members), "H": list(t.H.members),
            "B": [list(r) for r in t.B.dlog], "N": t.B.N,
            "dim": t.dim(dd.group.order),
            "flags": _flags_list(sc.classify(dd, t))}


def _label(dd: TwistedDouble, t: sc.Triple) -> str:
    return "K=%s;H=%s;dim=%d;flags=%s" % (
        "-".join(map(str, t.K.members)), "-".join(map(str, t.H.members)),
        t.dim(dd.group.order), sc.classify(dd, t).short())


def _hasse_edges(triples: Sequence[sc.Triple]) -> list[tuple[int, int]]:
    """Covering pairs (i, j): S(triples[i]) is maximal in S(triples[j]), by j then i.

    S(K1, H1, B1) lies in S(K2, H2, B2) iff K1 <= K2, H2 <= H1 and B1 = B2
    on K1 x H2 (subcats.contains). The triples are grouped by (K, H); for
    each pair of groups with nested subgroups both sides are keyed by B on
    K1 x H2 and matched in a dict, giving below[j] as a bitmask.
    """
    by_pair: dict[tuple, list[int]] = {}
    for i, t in enumerate(triples):
        by_pair.setdefault((t.K.members, t.H.members), []).append(i)
    below = [0] * len(triples)
    for lows in by_pair.values():
        K1, H1 = triples[lows[0]].K, triples[lows[0]].H
        for highs in by_pair.values():
            K2, H2 = triples[highs[0]].K, triples[highs[0]].H
            if highs is lows or K1.bitmask & ~K2.bitmask or H2.bitmask & ~H1.bitmask:
                continue
            kpos = [K2.members.index(k) for k in K1.members]
            hpos = [H1.members.index(h) for h in H2.members]
            keyed: dict[tuple, int] = {}
            for i in lows:
                key = tuple(row[p] for row in triples[i].B.dlog for p in hpos)
                keyed[key] = keyed.get(key, 0) | 1 << i
            for j in highs:
                dlog = triples[j].B.dlog
                below[j] |= keyed.get(tuple(e for p in kpos for e in dlog[p]), 0)
    edges = []
    for j, mask in enumerate(below):
        under = 0
        for k in oracle.bits(mask):
            under |= below[k]
        edges += [(i, j) for i in oracle.bits(mask & ~under)]
    return edges


# -- subcommands --------------------------------------------------------------------


def _cmd_group(args: argparse.Namespace) -> int:
    dd = _double(args)
    G = dd.group
    print(f"group {G.name}: order {G.order}, "
          f"{'abelian' if G.is_abelian else 'nonabelian'}, exponent {G.exponent}")
    print(f"cocycle modulus {dd.omega.modulus}"
          f"{' (trivial)' if dd.omega.is_trivial else ''}; field Q(zeta_{dd.ctx.N})")
    classes = G.conjugacy_classes
    print(f"conjugacy classes ({len(classes)}): " +
          " ".join("{" + ",".join(map(str, c)) + "}" for c in classes))
    normals = G.normal_subgroups
    print(f"normal subgroups ({len(normals)}): " +
          " ".join("{" + ",".join(map(str, N.members)) + "}" for N in normals))
    print(f"centralizing pairs: {len(G.centralizing_pairs())}")
    gamma = dd.gamma
    print(f"simple objects: {len(gamma)}")
    for s in gamma:
        print(f"  #{s.index}: a={s.a} char={s.char_index} dim={s.dim}")
    return 0


def _cmd_subcats(args: argparse.Namespace) -> int:
    dd = _double(args)
    triples = sc.enumerate_all(dd)
    print(f"{len(triples)} fusion subcategories")
    for i, t in enumerate(triples):
        print(f"#{i} {_label(dd, t)} B={t.B.dlog}")
    return 0


def lattice_text(dd: TwistedDouble, triples: Sequence[sc.Triple], fmt: str) -> str:
    """The lattice of the given triples with its Hasse edges, as DOT or JSON text."""
    edges = _hasse_edges(triples)
    if fmt == "dot":
        lines = ["digraph lattice {", "  rankdir=BT;"]
        lines += [f'  n{i} [label="{_label(dd, t)}"];' for i, t in enumerate(triples)]
        lines += [f"  n{i} -> n{j};" for i, j in edges]
        lines.append("}")
        return "\n".join(lines) + "\n"
    doc = {"group": dd.group.name, "order": dd.group.order,
           "cocycle_modulus": dd.omega.modulus,
           "triples": [dict(_triple_json(dd, t), index=i)
                       for i, t in enumerate(triples)],
           "edges": [list(e) for e in edges]}
    return json.dumps(doc, indent=2) + "\n"


def _cmd_lattice(args: argparse.Namespace) -> int:
    dd = _double(args)
    text = lattice_text(dd, sc.enumerate_all(dd), args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    dd = _double(args)
    t = _parse_triple(dd, args.triple)
    t = sc.build_subcat(dd, t.K, t.H, t.B)
    members = sorted(sc.subcat_members(dd, t))
    cent = sc.centralizer_triple(dd, t)
    center = sc.muger_center(dd, t)
    tau = sc.gauss_sum(dd, t)
    zeta = sc.central_charge(dd, t)
    doc = dict(_triple_json(dd, t),
               members=members,
               gauss_sum=_cyclo_json(tau),
               central_charge={"re": zeta.real, "im": zeta.imag},
               centralizer=_triple_json(dd, cent),
               muger_center=_triple_json(dd, center))
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    dd = _double(args)
    validate(dd.omega)
    counts = check_identities(dd.omega)
    report = oracle.certify(dd)
    print(f"cocycle identities: {sum(counts.values())} instances across "
          f"{len(counts)} families")
    print(f"triples: {report['triples']}")
    if report["bijection"] is not None:
        print(f"closure oracle: {report['closed_sets']} closed sets, bijection ok")
    else:
        print("closure oracle: skipped (nontrivial cocycle); "
              "double-centralizer and dimension laws ok")
    print("verified")
    return 0


# -- entry point --------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", metavar="NAME",
                   help="builtin group: " + ", ".join(BUILTIN_GROUP_NAMES))
    p.add_argument("--group", metavar="FILE",
                   help='JSON file with "mult" table or "perm_gens"')
    p.add_argument("--cocycle", default="trivial", metavar="SPEC",
                   help='"trivial", "cyclic:N,Q", or a JSON file path')
    p.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                   help="largest group order accepted")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdouble",
        description="Fusion subcategory lattices of twisted doubles of finite groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group and simple object summary")
    p.add_argument("action", choices=("info",))
    _add_common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("subcats", help="enumerate fusion subcategories")
    p.add_argument("action", choices=("list",))
    _add_common(p)
    p.set_defaults(func=_cmd_subcats)

    p = sub.add_parser("lattice", help="export the subcategory lattice")
    p.add_argument("action", choices=("export",))
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", metavar="FILE")
    _add_common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("invariants", help="invariants of one subcategory")
    p.add_argument("--triple", required=True, metavar="K,H,BFILE",
                   help='e.g. "0-1,0,trivial"; members dash-joined, pairing from file')
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("action", choices=("all",))
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CapExceeded) as exc:  # --cap limits the central extensions too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAGroup, GroupTooLarge, NotACocycle, NotNormalized, IdentityViolation,
            sc.NotASubcategory, sc.DimensionMismatch, sc.UnsupportedTriple,
            AssertionError, ArithmeticError, ValueError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
