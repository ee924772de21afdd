#!/usr/bin/env python3
"""Scan cyclic 3-cocycle classes and compare the resulting lattices.

For Z/n with n in the requested range, every cocycle class omega_q
(q = 0..n-1) is built, the twisted double is certified, and the lattice
statistics are printed side by side. Cohomologous twists give the same
counts, so the table exposes exactly how the lattice depends on q.

    python3 scripts/twisted_scan.py
    python3 scripts/twisted_scan.py --max-n 6 --gauss
"""

import argparse
import sys
import time

from qdouble import TwistedDouble, builtin_cyclic, oracle, subcats as sc


def scan_one(n: int, q: int, show_gauss: bool) -> dict:
    om = builtin_cyclic(n, q)
    dd = TwistedDouble(om.group, om)
    t0 = time.monotonic()
    triples = sc.enumerate_all(dd)
    oracle.certify(dd)
    elapsed = time.monotonic() - t0
    flags = [sc.classify(dd, t) for t in triples]
    # as in sc.nondegenerate_count: the whole and the trivial triple do not count
    proper_nondeg = sum(f.nondegenerate for t, f in zip(triples, flags)
                        if not (sc.is_whole(dd, t) or sc.is_trivial_triple(dd, t)))
    row = {
        "n": n, "q": q,
        "triples": len(triples),
        "lagrangian": sum(f.lagrangian for f in flags),
        "nondegenerate": sum(f.nondegenerate for f in flags),
        "proper_nondeg": proper_nondeg,
        "prime": proper_nondeg == 0,
        "time_s": round(elapsed, 3),
    }
    if show_gauss:
        zeta = sc.central_charge(dd, sc.whole_triple(dd))
        row["zeta_whole"] = f"{zeta.real:+.4f}{zeta.imag:+.4f}j"
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--gauss", action="store_true",
                    help="also print the central charge of the whole category")
    args = ap.parse_args()
    if args.min_n < 2 or args.max_n < args.min_n:
        ap.error("need 2 <= min-n <= max-n")

    first = scan_one(args.min_n, 0, args.gauss)
    cols = list(first)
    print("\t".join(cols))
    print("\t".join(str(first[c]) for c in cols))
    for n in range(args.min_n, args.max_n + 1):
        for q in range(n):
            if n == args.min_n and q == 0:
                continue
            row = scan_one(n, q, args.gauss)
            print("\t".join(str(row[c]) for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
