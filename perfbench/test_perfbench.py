"""Tests of the benchmark's input generator, checks and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
The last test runs every workload once on three seeds (about a minute).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qdouble.oracle  # noqa: E402
import qdouble.subcats  # noqa: E402
from qdouble.cocycles import ThreeCocycle, validate  # noqa: E402
from qdouble.doubledata import TwistedDouble  # noqa: E402
from qdouble.groups import FiniteGroup, cyclic_group  # noqa: E402

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (Job, WORKLOADS, make_jobs, relabel_table, relabeling,  # noqa: E402
                       standard_group, twisted_dlog)


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    make_jobs(workload, 7, str(tmp_path / "a"))
    make_jobs(workload, 7, str(tmp_path / "b"))
    make_jobs(workload, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_labeling_has_its_own_inputs(workload, tmp_path):
    first = make_jobs(workload, 7, str(tmp_path / "0"), 0)
    make_jobs(workload, 7, str(tmp_path / "j"))
    again = make_jobs(workload, 7, str(tmp_path / "1"), 1)
    make_jobs(workload, 7, str(tmp_path / "1b"), 1)
    make_jobs(workload, 7, str(tmp_path / "2"), 2)
    assert _files(tmp_path / "0") == _files(tmp_path / "j")
    assert _files(tmp_path / "1") == _files(tmp_path / "1b")
    assert _files(tmp_path / "1") != _files(tmp_path / "2") != _files(tmp_path / "0")
    assert [j.label for j in again] == [j.label for j in first]


@pytest.mark.parametrize("name", ["S3", "Q8", "Z2xZ4"])
def test_relabeling_is_an_isomorphism_fixing_the_identity(name):
    G = standard_group(name)
    perm = relabeling(random.Random(3), G.order)
    assert perm[0] == 0 and sorted(perm) == list(range(G.order))
    H = FiniteGroup(relabel_table(G.mult, perm))   # validates the group axioms
    assert all(H.mul(perm[a], perm[b]) == perm[G.mul(a, b)]
               for a in range(G.order) for b in range(G.order))


def test_twisted_input_is_a_normalized_cocycle_off_the_standard_one():
    n, q = 6, 1
    rng = random.Random(5)
    perm = relabeling(rng, n)
    mult = relabel_table(cyclic_group(n).mult, perm)
    d = twisted_dlog(n, q, perm, mult, rng)
    G = FiniteGroup(mult)
    validate(ThreeCocycle(G, n, tuple(tuple(tuple(r) for r in p) for p in d)))
    plain = twisted_dlog(n, q, perm, mult, random.Random(0))
    assert d != plain   # the coboundary factor is not trivial


def test_a_wrong_result_counts_as_failed(tmp_path):
    job = make_jobs("certify-untwisted", 1, str(tmp_path))[0]
    wrong = Job(job.label, job.argv, lambda out: None if "triples: 6" in out else "wrong")
    times, failures = run.run_pass([job, wrong])
    assert len(times) == 2 and failures == [f"{job.label}: wrong"]


def test_a_bad_input_counts_as_failed(tmp_path):
    job = make_jobs("certify-untwisted", 1, str(tmp_path))[0]
    broken = Job("missing", ["verify", "all", "--group", str(tmp_path / "nope.json")],
                 job.check)
    _, failures = run.run_pass([broken])
    assert len(failures) == 1 and "exit code 2" in failures[0]


def test_reference_blocks_bracket_every_command(tmp_path):
    jobs = make_jobs("twisted-scan", 1, str(tmp_path))[:4]
    refs: list[float] = []
    times, failures = run.run_pass(jobs, refs=refs)
    assert not failures and len(times) == 4
    assert len(refs) == 5 and all(r > 0 for r in refs)


def test_tracer_restores_what_it_wraps(tmp_path):
    before = (qdouble.subcats.solve_mod, qdouble.oracle.all_closed_sets,
              TwistedDouble.__dict__["fusion"], TwistedDouble.centralize)
    jobs = make_jobs("certify-untwisted", 2, str(tmp_path))[:3]
    tracer = Tracer()
    tracer.install()
    try:
        times, failures = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    after = (qdouble.subcats.solve_mod, qdouble.oracle.all_closed_sets,
             TwistedDouble.__dict__["fusion"], TwistedDouble.centralize)
    assert before == after and not failures
    self_s, calls = tracer.layer_totals()
    assert calls["cli.verify"] == 3 and calls["doubledata.fusion"] == 3
    assert tracer.counts["oracle.all_closed_sets.closed_sets"] == 5 + 6 + 15
    assert all(t >= 0 for t in self_s.values())
    assert sum(self_s.values()) <= sum(times)
    tracer.write(str(tmp_path / "spans.json"), [" ".join(j.argv) for j in jobs])
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert len(doc["spans"]) == sum(n for k, n in calls.items()
                                    if k not in ("doubledata.centralize",
                                                 "subcats.contains"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "twisted-scan",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pinned_counts_hold_on_three_seeds(workload, tmp_path):
    for seed in (1, 2, 3):
        jobs = make_jobs(workload, seed, str(tmp_path / str(seed)))
        _, failures = run.run_pass(jobs)
        assert failures == [], (seed, failures)
