"""Command line interface.

Exit codes: 0 on success, 1 when a mathematical check fails (CheckFailure),
2 on bad input (InputError), 141 (128 + SIGPIPE) when the reader of stdout
stops early. Any other exception is a bug and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .cocycles import ThreeCocycle, builtin_cyclic, check_identities, trivial_cocycle, validate
from .cyclotomic import Cyclo
from .doubledata import TwistedDouble
from .errors import CheckFailure, InputError
from .groups import BUILTIN_GROUP_NAMES, DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, builtin_group
from . import oracle
from . import subcats as sc


# -- loading -----------------------------------------------------------------------


def _int_array(value: object, depth: int) -> bool:
    """Whether value is a list nested depth levels deep with integer leaves."""
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_int_array(v, depth - 1) for v in value)


def _read_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and int()'s digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc


def _load_group(args: argparse.Namespace) -> FiniteGroup:
    if args.cap < 1:
        raise InputError(f"--cap must be at least 1, got {args.cap}")
    if args.builtin is not None:
        return builtin_group(args.builtin, cap=args.cap)
    if args.group is None:
        raise InputError("one of --builtin or --group is required")
    data = _read_json(args.group, "group")
    if not isinstance(data, dict):
        raise InputError("group file must hold a JSON object")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise InputError('"name" must be a string')
    # element labels are the file's own, in cocycles, --triple and output
    for key, build in (("mult", FiniteGroup),
                       ("perm_gens", FiniteGroup.from_permutation_generators)):
        if key in data:
            if not _int_array(data[key], 2):
                raise InputError(f'"{key}" must be a list of lists of integers')
            return build(data[key], name=name, cap=args.cap)
    raise InputError('group file needs a "mult" table or "perm_gens" list')


def _load_cocycle(args: argparse.Namespace, G: FiniteGroup) -> ThreeCocycle:
    spec = args.cocycle
    if spec == "trivial":
        return trivial_cocycle(G)
    if spec.startswith("cyclic:"):
        try:
            n_s, q_s = spec[len("cyclic:"):].split(",")
            n, q = int(n_s), int(q_s)
        except ValueError as exc:
            raise InputError("--cocycle cyclic:N,Q needs two integers") from exc
        if n < 1:
            raise InputError(f"--cocycle cyclic:N,Q needs N >= 1, got {n}")
        # compare orders first: builtin_cyclic(n, q) tabulates n^3 exponents
        om = builtin_cyclic(n, q) if n == G.order else None
        if om is None or om.group.mult != G.mult:
            raise InputError(
                f"cyclic:{n},{q} lives on Z/{n} with the standard table; "
                "the selected group has a different table")
        return ThreeCocycle(G, om.modulus, om.dlog)
    data = _read_json(spec, "cocycle")
    if not isinstance(data, dict) or "modulus" not in data or "dlog" not in data:
        raise InputError('cocycle file needs "modulus" and "dlog"')
    m = data["modulus"]
    raw = data["dlog"]
    if not _int_array(m, 0):
        raise InputError(f'"modulus" must be an integer, got {m!r}')
    n = G.order
    if raw and _int_array(raw, 1):
        if len(raw) != n ** 3:
            raise InputError(f"flat dlog must have {n}^3 entries")
        dlog = tuple(tuple(tuple(raw[(x * n + y) * n + z] for z in range(n))
                           for y in range(n)) for x in range(n))
    elif _int_array(raw, 3):
        dlog = tuple(tuple(tuple(row) for row in plane) for plane in raw)
    else:
        raise InputError('"dlog" must be a flat list or an n x n x n array of integers')
    omega = ThreeCocycle(G, m, dlog)
    validate(omega)
    return omega


def _double(args: argparse.Namespace) -> TwistedDouble:
    G = _load_group(args)
    return TwistedDouble(G, _load_cocycle(args, G))


def _parse_members(text: str, order: int) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split("-"))
    except ValueError as exc:
        raise InputError(f"bad element list {text!r}; use dash-joined indices") from exc
    if any(not (0 <= v < order) for v in vals):
        raise InputError(f"element out of range in {text!r}")
    return vals


def _parse_triple(dd: TwistedDouble, spec: str) -> sc.Triple:
    parts = spec.split(",")
    if len(parts) != 3:
        raise InputError('--triple takes "K,H,Bfile" (members dash-joined)')
    G = dd.group
    K = G.subgroup(_parse_members(parts[0], G.order))
    H = G.subgroup(_parse_members(parts[1], G.order))
    if parts[2] == "trivial":
        B = ((0,) * len(H),) * len(K)
    else:
        data = _read_json(parts[2], "pairing")
        if not isinstance(data, dict) or "dlog" not in data:
            raise InputError('pairing file needs a "dlog" table over K x H members')
        if not _int_array(data["dlog"], 2):
            raise InputError('"dlog" must be a list of lists of integers')
        B = tuple(tuple(v % dd.ctx.N for v in row) for row in data["dlog"])
    return sc.build_subcat(dd, K, H, B)


# -- serialization ------------------------------------------------------------------


def _json_list(items: Iterable[str], pad: str) -> str:
    """json.dumps(indent=2)'s layout of a list of rendered, non-empty items; pad
    precedes its ']'."""
    inner = pad + "  "
    body = ("," + inner).join(items)
    return f"[{inner}{body}{pad}]" if body else "[]"


def _cyclo_json(z: Cyclo) -> dict:
    approx = z.to_complex()
    return {"N": z.ctx.N, "coeffs": list(z.num), "den": z.den,
            "approx": {"re": approx.real, "im": approx.imag}}


def _triple_json(dd: TwistedDouble, t: sc.Triple) -> dict:
    return {"K": list(t.K.members), "H": list(t.H.members),
            "B": [list(r) for r in t.B], "N": dd.ctx.N,
            "dim": t.dim,
            "flags": sc.classify(dd, t).names()}


def _triples_json(dd: TwistedDouble, pad: str) -> str:
    """json.dumps(indent=2) of [dict(_triple_json(dd, t), index=i) for i, t in
    enumerate(triples)], triples = sc.enumerate_all(dd), at the indent pad, rendered
    one (K, H) block at a time: the texts of K, H, N and dim once per block, each
    flags list once and each row of B once per block, so a triple adds only the
    join of its row texts."""
    inner = pad + "  "          # a triple's braces
    field = inner + "  "        # its keys
    row = field + "  "          # the rows of B
    flag_text = functools.cache(lambda f: _json_list(map(json.dumps, f.names()), field))
    flags = iter(sc.all_flags(dd))
    out: list[str] = []
    for K, H, block in sc.blocks(dd):
        head = (f'{{{field}"K": {_json_list(map(str, K.members), field)},'
                f'{field}"H": {_json_list(map(str, H.members), field)},{field}"B": [{row}')
        mid = f'{field}],{field}"N": {dd.ctx.N},{field}"dim": {block[0].dim},{field}"flags": '
        row_text = functools.cache(lambda r: _json_list(map(str, r), row))
        for t, f in zip(block, flags):
            out.append(f'{head}{("," + row).join(map(row_text, t.B))}{mid}{flag_text(f)}'
                       f',{field}"index": {len(out)}{inner}}}')
    return _json_list(out, pad)


def _label(t: sc.Triple, flags: sc.TripleFlags) -> str:
    return "K=%s;H=%s;dim=%d;flags=%s" % (
        "-".join(map(str, t.K.members)), "-".join(map(str, t.H.members)),
        t.dim, flags.short())


def _hasse_edges(triples: Sequence[sc.Triple]) -> list[tuple[int, int]]:
    """Covering pairs (i, j): S(triples[i]) is maximal in S(triples[j]), by j then i.

    triples must be all of sc.enumerate_all(dd), in any order, as the covers
    are read off the lattice of normal subgroups. S(K1, H1, B1) <= S(K2, H2,
    B2) iff K1 <= K2, H2 <= H1 and B1 = B2 on K1 x H2 (subcats.contains).
    Let S1 < S2 in that notation.

    - A cover changes one side only. If K1 < K2 and H2 < H1, M = (K1, H2, B1
      on K1 x H2) lies strictly between: K1 and H2 are normal and commute,
      and B1 restricted is still a G-invariant bicharacter for the cocycle,
      so M is enumerated (the exactness argument of subcats._equations).
    - A one-sided cover is a cover of normal subgroups. With H1 = H2 = H, a
      normal K, K1 < K < K2, commutes with H, so (K, H, B2 on K x H) lies
      strictly between; likewise for H with K fixed. Conversely, a triple
      between S1 and S2 with K1 maximal in K2 has H, B2 restricted, and K1
      or K2, so it is S1 or S2.

    So the edges are: same H, K1 maximal in K2, B1 = B2 on K1 x H; and same
    K, H2 maximal in H1, B1 = B2 on K x H2. In a (K, H) group B determines
    the triple, so a pair of groups is matched by keying both on B over
    K1 x H2 in one dict.
    """
    normals = triples[0].K.group.normal_subgroups
    # each normal subgroup's maximal normal subgroups
    maximal: dict[Subgroup, list[Subgroup]] = {M: [] for M in normals}
    for M, found in maximal.items():
        for N in reversed(normals):   # in falling order a larger N comes first
            if N.member_set < M.member_set and \
               not any(N.member_set < C.member_set for C in found):
                found.append(N)
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(triples):
        groups.setdefault((t.K, t.H), []).append(i)
    flat = [tuple(chain.from_iterable(t.B)) for t in triples]
    below: list[list[int]] = [[] for _ in triples]

    def keyed(ids: list[int], K1: Subgroup, H2: Subgroup) -> list[tuple[object, int]]:
        # one position gives the entry, not a 1-tuple, on both sides alike
        K, H = triples[ids[0]].K, triples[ids[0]].H
        n = len(H)
        get = itemgetter(*[K.index_of[k] * n + H.index_of[h]
                           for k in K1.members for h in H2.members])
        return [(get(flat[i]), i) for i in ids]

    def match(lows: list[int], highs: list[int], K1: Subgroup, H2: Subgroup) -> None:
        table: dict[object, list[int]] = {}
        for key, i in keyed(lows, K1, H2):
            table.setdefault(key, []).append(i)
        for key, j in keyed(highs, K1, H2):
            below[j] += table.get(key, ())

    for (K, H), ids in groups.items():
        for N in maximal[K]:
            if (N, H) in groups:
                match(groups[N, H], ids, N, H)
        for N in maximal[H]:
            if (K, N) in groups:
                match(ids, groups[K, N], K, N)
    return [(i, j) for j, lows in enumerate(below) for i in sorted(lows)]


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
    for i, (t, flags) in enumerate(zip(triples, sc.all_flags(dd))):
        print(f"#{i} {_label(t, flags)} B={t.B}")
    return 0


def lattice_text(dd: TwistedDouble, fmt: str) -> str:
    """The lattice of all triples with its Hasse edges, as DOT or JSON text."""
    triples = sc.enumerate_all(dd)
    edges = _hasse_edges(triples)
    if fmt == "dot":
        lines = ["digraph lattice {", "  rankdir=BT;"]
        lines += [f'  n{i} [label="{_label(t, flags)}"];'
                  for i, (t, flags) in enumerate(zip(triples, sc.all_flags(dd)))]
        lines += [f"  n{i} -> n{j};" for i, j in edges]
        lines.append("}")
        return "\n".join(lines) + "\n"
    # json.dumps(indent=2) of the document: its three header fields, the triples,
    # then the edges, each an [i, j] pair
    pad = "\n  "
    pair, end = pad + "    ", pad + "  "
    edge_text = _json_list([f"[{pair}{i},{pair}{j}{end}]" for i, j in edges], pad)
    return (f'{{{pad}"group": {json.dumps(dd.group.name)},{pad}"order": {dd.group.order},'
            f'{pad}"cocycle_modulus": {dd.omega.modulus},'
            f'{pad}"triples": {_triples_json(dd, pad)},{pad}"edges": {edge_text}\n}}\n')


def _cmd_lattice(args: argparse.Namespace) -> int:
    dd = _double(args)
    text = lattice_text(dd, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    dd = _double(args)
    t = _parse_triple(dd, args.triple)
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
    *flags, _ = sc.flag_counts(dd).items()   # the flag names, then "proper nondegenerate"
    print(f"flags: {', '.join(f'{n} {name}' for name, n in flags)}; "
          f"prime: {'yes' if sc.is_prime(dd) else 'no'}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdouble",
        description="Fusion subcategory lattices of twisted doubles of finite groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group and simple object summary")
    p.add_argument("action", choices=("info",))
    _add_common(p)

    p = sub.add_parser("subcats", help="enumerate fusion subcategories")
    p.add_argument("action", choices=("list",))
    _add_common(p)

    p = sub.add_parser("lattice", help="export the subcategory lattice")
    p.add_argument("action", choices=("export",))
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", metavar="FILE")
    _add_common(p)

    p = sub.add_parser("invariants", help="invariants of one subcategory")
    p.add_argument("--triple", required=True, metavar="K,H,BFILE",
                   help='e.g. "0-1,0,trivial"; members dash-joined, pairing from file')
    _add_common(p)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("action", choices=("all",))
    _add_common(p)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a handler patched on the module is the one that runs
    handlers = {"group": _cmd_group, "subcats": _cmd_subcats, "lattice": _cmd_lattice,
                "invariants": _cmd_invariants, "verify": _cmd_verify}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout now writes to devnull, so the interpreter's final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
