"""Seeded inputs, command lists and pinned outputs of the three workloads.

Every job is one ``qdouble`` CLI command on a group given by its
multiplication table (``--group FILE``).  The seed relabels each table by a
random permutation that fixes the identity; twisted jobs also multiply the
standard cocycle omega_q on Z/n by the coboundary of a random normalized
2-cochain and pass the product with ``--cocycle FILE``.  Untwisted jobs get no
coboundary: a nonzero one would send them down the twisted branch, which is a
different program.  Every pinned count is invariant under both changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from qdouble.groups import (FiniteGroup, builtin_group, cyclic_group, direct_product,
                            symmetric_group)

# closed sets = triples of the untwisted double, pinned at the seed commit
CERTIFY_UNTWISTED = (("Z2", 5), ("Z3", 6), ("Z4", 15), ("S3", 8), ("D4", 45), ("S4", 9))

# triples of D^omega_q(Z/n) for every q != 0, n = 2..5, plus (6, 1), (6, 3), (7, 1)
TWISTED_SCAN = (((2, 1), 5),
                ((3, 1), 3), ((3, 2), 3),
                ((4, 1), 11), ((4, 2), 15), ((4, 3), 11),
                ((5, 1), 3), ((5, 2), 3), ((5, 3), 3), ((5, 4), 3),
                ((6, 1), 15), ((6, 3), 30),
                ((7, 1), 3))

# (triples, Hasse edges, digest of the sorted (|K|, |H|, dim, flags) list and
# the sorted (dim below, dim above) edge list); all relabeling-invariant
LATTICE_EXPORT = (("Z8", 37, 66, "2f8a1dde8982ed5c"),
                  ("Z9", 23, 40, "5ee24ec8faa11c26"),
                  ("Z10", 40, 108, "0e635b23a3fbcce1"),
                  ("Z2xZ4", 249, 1002, "c492548a417de87d"),
                  ("Z3xZ3", 212, 1120, "4430f482c392e0cc"),
                  ("S3xZ3", 48, 124, "037b30e80a641ee9"))

_GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "Z9": lambda: cyclic_group(9),
    "Z10": lambda: cyclic_group(10),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "Z3xZ3": lambda: direct_product(cyclic_group(3), cyclic_group(3)),
    "S3xZ3": lambda: direct_product(symmetric_group(3), cyclic_group(3)),
}


def standard_group(name: str) -> FiniteGroup:
    factory = _GROUPS.get(name)
    return factory() if factory is not None else builtin_group(name)


# -- seeded inputs ------------------------------------------------------------------


def relabeling(rng: random.Random, n: int) -> list[int]:
    """A uniformly random permutation of range(n) that fixes the identity 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel_table(mult, perm: list[int]) -> list[list[int]]:
    n = len(mult)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mult[a][b]]
    return out


def twisted_dlog(n: int, q: int, perm: list[int], mult: list[list[int]],
                 rng: random.Random) -> list[list[list[int]]]:
    """omega_q(a, b, c) = q a floor((b + c) / n), relabeled by perm, times the
    coboundary of a random normalized 2-cochain on the relabeled table."""
    d = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                d[perm[a]][perm[b]][perm[c]] = (q * a * ((b + c) // n)) % n
    mu = [[0 if x == 0 or y == 0 else rng.randrange(n) for y in range(n)]
          for x in range(n)]
    for x in range(n):
        for y in range(n):
            xy = mult[x][y]
            for z in range(n):
                d[x][y][z] = (d[x][y][z] + mu[y][z] - mu[xy][z]
                              + mu[x][mult[y][z]] - mu[x][y]) % n
    return d


# -- jobs ---------------------------------------------------------------------------


@dataclass
class Job:
    """One CLI command and the check of what it printed or wrote."""

    label: str
    argv: list[str]
    check: Callable[[str], str | None]   # stdout -> None, or what went wrong
    out: str | None = None               # file the command writes, removed before it runs


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _expect_lines(*expected: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        missing = [e for e in expected if e not in lines]
        return f"missing output {missing!r}" if missing else None
    return check


def lattice_digest(doc: dict) -> str:
    triples = doc["triples"]
    dims = [t["dim"] for t in triples]
    sig = sorted((len(t["K"]), len(t["H"]), t["dim"], t["flags"]) for t in triples)
    edges = sorted((dims[i], dims[j]) for i, j in doc["edges"])
    text = json.dumps([sig, edges], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _lattice_check(path: str, order: int, n_triples: int, n_edges: int,
                   digest: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        if f"wrote {path}" not in stdout.splitlines():
            return "no 'wrote' line"
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"unreadable export: {exc}"
        got = (doc.get("order"), len(doc.get("triples", ())), len(doc.get("edges", ())))
        if got != (order, n_triples, n_edges):
            return f"(order, triples, edges) = {got}, expected {(order, n_triples, n_edges)}"
        dims = [t["dim"] for t in doc["triples"]]
        if any(dims[i] >= dims[j] for i, j in doc["edges"]):
            return "a Hasse edge does not go up in dimension"
        if lattice_digest(doc) != digest:
            return f"lattice digest {lattice_digest(doc)} != pinned {digest}"
        return None
    return check


def _group_file(workdir: str, tag: str, G: FiniteGroup, rng: random.Random
                ) -> tuple[str, list[int], list[list[int]]]:
    perm = relabeling(rng, G.order)
    mult = relabel_table(G.mult, perm)
    path = os.path.join(workdir, f"{tag}.group.json")
    _write_json(path, {"name": G.name, "mult": mult})
    return path, perm, mult


def _certify_untwisted(workdir: str, rng: random.Random) -> list[Job]:
    jobs = []
    for name, count in CERTIFY_UNTWISTED:
        gpath, _, _ = _group_file(workdir, name, standard_group(name), rng)
        jobs.append(Job(name, ["verify", "all", "--group", gpath],
                        _expect_lines(f"triples: {count}",
                                      f"closure oracle: {count} closed sets, bijection ok",
                                      "verified")))
    return jobs


def _twisted_scan(workdir: str, rng: random.Random) -> list[Job]:
    jobs = []
    for (n, q), count in TWISTED_SCAN:
        tag = f"Z{n}_q{q}"
        gpath, perm, mult = _group_file(workdir, tag, cyclic_group(n), rng)
        cpath = os.path.join(workdir, f"{tag}.cocycle.json")
        _write_json(cpath, {"modulus": n, "dlog": twisted_dlog(n, q, perm, mult, rng)})
        jobs.append(Job(f"({n},{q})",
                        ["verify", "all", "--group", gpath, "--cocycle", cpath],
                        _expect_lines(f"triples: {count}",
                                      "closure oracle: skipped (nontrivial cocycle); "
                                      "double-centralizer and dimension laws ok",
                                      "verified")))
    return jobs


def _lattice_export(workdir: str, rng: random.Random) -> list[Job]:
    jobs = []
    for name, n_triples, n_edges, digest in LATTICE_EXPORT:
        G = standard_group(name)
        gpath, _, _ = _group_file(workdir, name, G, rng)
        out = os.path.join(workdir, f"{name}.lattice.json")
        jobs.append(Job(name, ["lattice", "export", "--format", "json", "--out", out,
                               "--group", gpath],
                        _lattice_check(out, G.order, n_triples, n_edges, digest),
                        out=out))
    return jobs


WORKLOADS: dict[str, Callable[[str, random.Random], list[Job]]] = {
    "certify-untwisted": _certify_untwisted,
    "twisted-scan": _twisted_scan,
    "lattice-export": _lattice_export,
}


def make_jobs(workload: str, seed: int, workdir: str, labeling: int = 0) -> list[Job]:
    """Generate and write the inputs of one workload; same seed, same files.

    Labeling 0 is the seed's first relabeling (and coboundary) of every group;
    labeling i > 0 draws fresh ones from its own stream of the same seed.
    """
    os.makedirs(workdir, exist_ok=True)
    stream = f"{workload}:{seed}" if labeling == 0 else f"{workload}:{seed}:{labeling}"
    return WORKLOADS[workload](workdir, random.Random(stream))
