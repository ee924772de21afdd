#!/usr/bin/env python3
"""Enumerate and certify the subcategory lattice for a batch of groups.

For each group this prints the triple count, the closed-set count from the
closure oracle (intersections of Müger centralizer rows, each checked to be
fusion-closed), flag statistics, primality, and timing. Optionally dumps
each lattice as DOT or JSON next to the chosen output directory.

    python3 scripts/enumerate_lattices.py
    python3 scripts/enumerate_lattices.py --groups S3 D4 Q8 --export dot --outdir out
"""

import argparse
import pathlib
import sys
import time

from qdouble import TwistedDouble, builtin_group, oracle, subcats as sc
from qdouble.cli import lattice_text
from qdouble.groups import BUILTIN_GROUP_NAMES


def summarize(name: str, export: str | None, outdir: pathlib.Path | None) -> dict:
    G = builtin_group(name)
    dd = TwistedDouble(G)
    t0 = time.monotonic()
    triples = sc.enumerate_all(dd)
    t_enum = time.monotonic() - t0

    t0 = time.monotonic()
    report = oracle.certify(dd)
    t_certify = time.monotonic() - t0

    flags = [sc.classify(dd, t) for t in triples]
    # as in sc.nondegenerate_count: the whole and the trivial triple do not count
    proper_nondeg = sum(f.nondegenerate for t, f in zip(triples, flags)
                        if not (sc.is_whole(dd, t) or sc.is_trivial_triple(dd, t)))
    row = {
        "group": name,
        "order": G.order,
        "simples": len(dd.gamma),
        "triples": len(triples),
        "closed_sets": report["closed_sets"],
        "symmetric": sum(f.symmetric for f in flags),
        "isotropic": sum(f.isotropic for f in flags),
        "lagrangian": sum(f.lagrangian for f in flags),
        "nondegenerate": sum(f.nondegenerate for f in flags),
        "prime": proper_nondeg == 0,
        "enum_s": round(t_enum, 3),
        "certify_s": round(t_certify, 3),
    }

    if export and outdir:
        (outdir / f"{name}.{export}").write_text(lattice_text(dd, triples, export))
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", nargs="+", default=list(BUILTIN_GROUP_NAMES),
                    choices=BUILTIN_GROUP_NAMES, metavar="NAME")
    ap.add_argument("--export", choices=("dot", "json"))
    ap.add_argument("--outdir", type=pathlib.Path)
    args = ap.parse_args()
    if args.export and not args.outdir:
        ap.error("--export needs --outdir")
    if args.outdir:
        args.outdir.mkdir(parents=True, exist_ok=True)

    cols = ("group", "order", "simples", "triples", "closed_sets", "symmetric",
            "isotropic", "lagrangian", "nondegenerate", "prime", "enum_s",
            "certify_s")
    print("\t".join(cols))
    for name in args.groups:
        row = summarize(name, args.export, args.outdir)
        print("\t".join(str(row[c]) for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
