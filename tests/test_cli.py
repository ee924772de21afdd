"""Command line interface: formats, schemas, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qdouble
from qdouble import CheckFailure, InputError, builtin_cyclic, oracle, subcats as sc
from qdouble import cli
from qdouble.cli import _dumps, _hasse_edges, lattice_text, main
from qdouble.groups import BUILTIN_GROUP_NAMES, builtin_group

from conftest import (braiding_doubles, twisted_cyclic, twisted_quotient, twisted_z2_cubed,
                      untwisted, untwisted_product)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info(capsys):
    code, out, err = run(capsys, "group", "info", "--builtin", "S3")
    assert code == 0
    assert "order 6" in out and "simple objects: 8" in out


def test_subcats_list(capsys):
    code, out, err = run(capsys, "subcats", "list", "--builtin", "Z2")
    assert code == 0
    assert out.startswith("5 fusion subcategories")
    assert out.count("\n") == 6


def test_lattice_dot(capsys):
    code, out, err = run(capsys, "lattice", "export", "--builtin", "Z2",
                         "--format", "dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert 'label="K=0-1;H=0;dim=4;flags=nondeg"' in out
    # Hasse diagram of the 5-element lattice has 6 covering edges
    assert out.count("->") == 6


def test_lattice_json_schema(capsys):
    code, out, err = run(capsys, "lattice", "export", "--builtin", "S3",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6 and len(doc["triples"]) == 8
    for node in doc["triples"]:
        assert set(node) >= {"K", "H", "B", "N", "dim", "flags", "index"}
    for a, b in doc["edges"]:
        assert 0 <= a < 8 and 0 <= b < 8


def test_lattice_out_file(tmp_path, capsys):
    target = tmp_path / "lat.json"
    code, out, err = run(capsys, "lattice", "export", "--builtin", "Z4",
                         "--format", "json", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc["triples"]) == 15


def test_invariants_semion(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"dlog": [[0, 0], [0, 1]]}))
    code, out, err = run(capsys, "invariants", "--builtin", "Z2",
                         "--cocycle", "cyclic:2,1",
                         "--triple", f"0-1,0-1,{bfile}")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["flags"] == ["nondegenerate"]
    assert doc["gauss_sum"]["approx"] == {"re": 1.0, "im": 1.0}
    assert abs(doc["central_charge"]["re"] - 2 ** -0.5) < 1e-9


def test_invariants_trivial_pairing(capsys):
    code, out, err = run(capsys, "invariants", "--builtin", "S3",
                         "--triple", "0,0-1-2-3-4-5,trivial")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1 and doc["members"] == [0]


def test_verify_all(capsys):
    code, out, err = run(capsys, "verify", "all", "--builtin", "Z2xZ2")
    assert code == 0
    assert "bijection ok" in out and "verified" in out


def test_verify_all_counts_vanishing_identities(capsys):
    # the trivial cocycle's identity suite is counted, not looped, with the same total
    code, out, err = run(capsys, "verify", "all", "--builtin", "S4")
    assert code == 0
    assert "cocycle identities: 1003944 instances across 7 families" in out


def test_verify_twisted(capsys):
    code, out, err = run(capsys, "verify", "all", "--builtin", "Z4",
                         "--cocycle", "cyclic:4,1")
    assert code == 0
    assert "skipped (nontrivial cocycle)" in out


def test_cap_reaches_derived_groups(capsys):
    # omega_1 on Z4 needs central extensions of order 16: --cap limits them too
    code, out, err = run(capsys, "verify", "all", "--builtin", "Z4",
                         "--cocycle", "cyclic:4,1", "--cap", "8")
    assert code == 2
    assert "extension order 16 exceeds cap 8" in err
    code, out, err = run(capsys, "verify", "all", "--builtin", "Z4",
                         "--cocycle", "cyclic:4,1", "--cap", "16")
    assert code == 0
    assert "triples: 11" in out and "verified" in out


def test_cap_bounds_field_degree(tmp_path, capsys):
    # N = m |G| = 200000 is refused before Q(zeta_N) is built, not after it fills memory
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"modulus": 100000, "dlog": [0] * 8}))
    start = time.monotonic()
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2", "--cocycle", str(huge))
    assert time.monotonic() - start < 1
    assert code == 2 and "phi(200000) = 80000, above cap 512" in err, err
    # phi(N) >= sqrt(N / 2), so a 31-digit N is refused without being factored
    huge.write_text(json.dumps({"modulus": 10 ** 30 + 1, "dlog": [0] * 8}))
    start = time.monotonic()
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2", "--cocycle", str(huge))
    assert time.monotonic() - start < 1
    assert code == 2 and "above cap 512" in err, err
    # phi(512) = 256 is within the default cap
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"modulus": 256, "dlog": [0] * 8}))
    code, out, err = run(capsys, "group", "info", "--builtin", "Z2", "--cocycle", str(edge))
    assert code == 0 and "Q(zeta_512)" in out


def test_field_degree_error_names_a_long_modulus_by_digits(tmp_path, capsys):
    # past int()'s digit limit N = 2 m has 5,000 digits; the message stays one short line
    huge = tmp_path / "huge.json"
    huge.write_text('{"modulus": %s, "dlog": %s}' % ("1" * 5000, [0] * 8))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, _, err = run(capsys, "verify", "all", "--builtin", "Z2", "--cocycle", str(huge))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and "N of 5000 digits" in err, err[:300]
    assert max(map(len, err.splitlines())) < 200


def test_verify_s3_counts(capsys):
    # its 8 simples are checked by test_group_info
    code, out, err = run(capsys, "verify", "all", "--builtin", "S3")
    assert code == 0
    assert "triples: 8" in out and "closure oracle: 8 closed sets, bijection ok" in out



@pytest.mark.parametrize("builtin", ("S3", "Z3"))
def test_verify_does_not_depend_on_the_field(tmp_path, capsys, builtin):
    # a zero cocycle of modulus 35 moves the untwisted double into Q(zeta_{35 |G|}):
    # Q(zeta_210) for S3 and Q(zeta_105) for Z3, whose Phi_N has coefficients +-2
    n = builtin_group(builtin).order
    zero = tmp_path / "zero35.json"
    zero.write_text(json.dumps({"modulus": 35, "dlog": [0] * n ** 3}))
    code, out, err = run(capsys, "verify", "all", "--builtin", builtin, "--cocycle", str(zero))
    assert (code, err) == (0, "")
    assert (0, out, "") == run(capsys, "verify", "all", "--builtin", builtin)
    _, info, _ = run(capsys, "group", "info", "--builtin", builtin, "--cocycle", str(zero))
    assert f"field Q(zeta_{35 * n})" in info


def test_consecutive_calls_share_no_state(monkeypatch, capsys):
    default = run(capsys, "group", "info", "--builtin", "Z2")
    assert default[0] == 0 and "cocycle modulus 1 (trivial)" in default[1]
    code, out, _ = run(capsys, "group", "info", "--builtin", "Z2", "--cocycle", "cyclic:2,1")
    assert code == 0 and "cocycle modulus 2;" in out
    assert run(capsys, "group", "info", "--builtin", "Z2") == default
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2", "--cap", "1")
    assert code == 2 and "exceeds cap 1" in err
    assert run(capsys, "group", "info", "--builtin", "Z2") == default
    with pytest.raises(SystemExit) as exc:
        main(["group", "info", "--builtin", "Z2", "--format", "dot"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert run(capsys, "group", "info", "--builtin", "Z2") == default
    # the handler is looked up per call, not kept by the parser built once
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: print("patched") or 0)
    assert run(capsys, "verify", "all", "--builtin", "Z2") == (0, "patched\n", "")
    assert cli.build_parser() is cli.build_parser()


def test_verify_cyclic_triple_counts(capsys):
    counts = []
    for n in (2, 3):
        for q in range(n):
            code, out, err = run(capsys, "verify", "all", "--builtin", f"Z{n}",
                                 "--cocycle", f"cyclic:{n},{q}")
            assert code == 0
            counts.append(int(out.split("triples: ")[1].split()[0]))
    assert counts == [5, 5, 6, 3, 3]


FLAG_NAMES = {"sym": "symmetric", "iso": "isotropic", "lag": "lagrangian",
              "nondeg": "nondegenerate"}


def test_verify_flags_match_subcats_list(capsys):
    doubles = [(["--builtin", name], untwisted(name)) for name in BUILTIN_GROUP_NAMES]
    doubles += [(["--builtin", f"Z{n}", "--cocycle", f"cyclic:{n},{q}"], twisted_cyclic(n, q))
                for n in (2, 3, 4) for q in range(1, n)]
    lines = {}
    for where, dd in doubles:
        code, listing, _ = run(capsys, "subcats", "list", *where)
        assert code == 0
        # the flags= labels of the listing, read independently of flag_counts
        seen = Counter(FLAG_NAMES[abbr] for label in re.findall(r";flags=(\S+)", listing)
                       for abbr in label.split(",") if abbr != "-")
        counts = ", ".join(f"{seen[name]} {name}" for name in FLAG_NAMES.values())
        prime = "yes" if sc.is_prime(dd) else "no"
        code, out, _ = run(capsys, "verify", "all", *where)
        assert code == 0
        line, = (x for x in out.splitlines() if x.startswith("flags: "))
        assert line == f"flags: {counts}; prime: {prime}", where
        lines[" ".join(where)] = line
    assert lines["--builtin S3"] == \
        "flags: 4 symmetric, 4 isotropic, 2 lagrangian, 2 nondegenerate; prime: yes"
    assert lines["--builtin D4"] == \
        "flags: 28 symmetric, 22 isotropic, 7 lagrangian, 2 nondegenerate; prime: yes"
    assert lines["--builtin Z3"] == \
        "flags: 3 symmetric, 3 isotropic, 2 lagrangian, 4 nondegenerate; prime: no"
    assert lines["--builtin Z2 --cocycle cyclic:2,1"] == \
        "flags: 2 symmetric, 2 isotropic, 1 lagrangian, 4 nondegenerate; prime: no"


def test_verify_classifies_each_triple_once(monkeypatch, capsys):
    calls = []
    real = sc.classify
    monkeypatch.setattr(sc, "classify", lambda dd, t: calls.append(t) or real(dd, t))
    code, out, err = run(capsys, "verify", "all", "--builtin", "D4")
    assert code == 0 and "triples: 45" in out
    assert len(calls) == 45


def test_group_file_mult(tmp_path, capsys):
    G = builtin_group("S3")
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"name": "S3copy", "mult": [list(r) for r in G.mult]}))
    code, out, err = run(capsys, "group", "info", "--group", str(gf))
    assert code == 0
    assert "S3copy" in out and "order 6" in out


def test_group_file_perm_gens(tmp_path, capsys):
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"perm_gens": [[1, 2, 3, 0]]}))
    code, out, err = run(capsys, "subcats", "list", "--group", str(gf))
    assert code == 0
    assert out.startswith("15 fusion subcategories")


def test_cocycle_file_flat(tmp_path, capsys):
    flat = [0] * 8
    flat[7] = 1  # omega(1,1,1) = -1 on Z2
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps({"modulus": 2, "dlog": flat}))
    code, out, err = run(capsys, "subcats", "list", "--builtin", "Z2",
                         "--cocycle", str(cf))
    assert code == 0
    assert out.startswith("5 fusion subcategories")


def test_cocycle_file_invalid(tmp_path, capsys):
    flat = [0] * 27
    flat[26] = 1  # not a cocycle on Z3
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps({"modulus": 3, "dlog": flat}))
    code, out, err = run(capsys, "subcats", "list", "--builtin", "Z3",
                         "--cocycle", str(cf))
    assert code == 1
    assert "verification failure" in err


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "group", "info", "--builtin", "NOPE")
    assert code == 2 and "unknown builtin" in err
    code, _, err = run(capsys, "group", "info")
    assert code == 2
    code, _, err = run(capsys, "invariants", "--builtin", "Z2",
                       "--triple", "0-1")
    assert code == 2
    # --triple needs a centralizing pair (K, H) and a bicharacter on it
    nonbich = tmp_path / "nonbich.json"
    nonbich.write_text(json.dumps({"dlog": [[0, 0, 0], [0, 1, 0], [0, 0, 0]]}))
    # malformed pairing files: a float, strings, a scalar, a null, not an object
    malformed = []
    for k, doc in enumerate(({"dlog": [[0, 0], [0, 1.7]]}, {"dlog": [["0", "0"], ["0", "1"]]},
                             {"dlog": 5}, {"dlog": [[None]]}, "dlog")):
        f = tmp_path / f"pairing{k}.json"
        f.write_text(json.dumps(doc))
        msg = '"dlog" must be a list' if isinstance(doc, dict) else 'needs a "dlog" table'
        malformed.append(("Z2", "cyclic:2,1", f"0-1,0-1,{f}", msg))
    # integer tables of the wrong shape for K x H = Z2 x Z2
    for k, dlog in enumerate(([[0, 0], [0]], [[0, 0]], [], [[0, 0, 0], [0, 1, 0]])):
        f = tmp_path / f"shape{k}.json"
        f.write_text(json.dumps({"dlog": dlog}))
        malformed.append(("Z2", "cyclic:2,1", f"0-1,0-1,{f}", "pairing table shape mismatch"))
    for builtin, cocycle, triple, msg in (
            ("S3", "trivial", "0-1,0-1,trivial", "must be normal"),
            ("S3", "trivial", "0-2-5,0-1-2-3-4-5,trivial", "must commute"),
            ("Z3", "trivial", f"0-1-2,0-1-2,{nonbich}", "not a G-invariant bicharacter"),
            ("Z2", "cyclic:2,1", "0-1,0-1,trivial", "not a G-invariant bicharacter"),
            *malformed):
        code, _, err = run(capsys, "invariants", "--builtin", builtin,
                           "--cocycle", cocycle, "--triple", triple)
        assert code == 2 and err.startswith("error:") and msg in err, (triple, err)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "group", "info", "--group", str(bad))
    assert code == 2
    code, _, err = run(capsys, "group", "info", "--builtin", "Z4",
                       "--cocycle", "cyclic:2,1")
    assert code == 2  # cocycle lives on a different group
    # the order is compared before the N^3 cocycle table is built
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2",
                       "--cocycle", "cyclic:3000,1")
    assert code == 2 and "lives on Z/3000" in err
    # malformed JSON shapes and values: exit 2 with a message, no traceback
    cases = (("group", {"mult": 5}), ("group", {"mult": [[0, 1], [1, "a"]]}),
             ("group", [1, 2]), ("group", {"perm_gens": []}),
             ("group", {"perm_gens": [[1, 0], [0, 2, 1]]}),
             ("group", {"perm_gens": [[1, 0], 1]}), ("group", {"perm_gens": [[0, 0]]}),
             ("group", {"perm_gens": [[1, 2]]}),
             ("group", {"mult": [[0, 1], [1]]}), ("group", {"mult": []}),
             ("group", {"mult": [[0, 1], [1, -1]]}), ("group", {"mult": [[0, 2], [2, 0]]}),
             ("group", {"mult": [[0, 1], [1, 0]], "name": [1]}),
             ("cocycle", {"modulus": "2", "dlog": [0] * 8}),
             ("cocycle", {"modulus": 0, "dlog": [0] * 8}),
             ("cocycle", {"modulus": 2, "dlog": [[[0]]]}),
             ("cocycle", {"modulus": 2, "dlog": [[[0, 0], [0, 0]], [[0, 0], [0, "1"]]]}),
             # bytes that are not UTF-8, and arrays nested past the recursion limit
             *((kind, raw) for kind in ("group", "cocycle", "pairing")
               for raw in (b"\xff\xfe{}", b"[" * 100_000)))
    # integers past int()'s default limit of 4,300 digits
    digits = b"1" * 5000
    oversized = (("group", b'{"mult": [[0, 1], [1, ' + digits + b"]]}"),
                 ("cocycle", b'{"modulus": ' + digits + b', "dlog": [0, 0, 0, 0, 0, 0, 0, 0]}'),
                 ("pairing", b'{"dlog": [[0, ' + digits + b"], [0, 0]]}"))

    def rejected(kind, doc):
        f = tmp_path / f"{kind}.json"
        if isinstance(doc, bytes):
            f.write_bytes(doc)
        else:
            f.write_text(json.dumps(doc))
        argv = {"group": ["group", "info", "--group", str(f)],
                "cocycle": ["group", "info", "--builtin", "Z2", "--cocycle", str(f)],
                "pairing": ["invariants", "--builtin", "Z2", "--triple", f"0-1,0-1,{f}"]}[kind]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (kind, err)
        return err

    for kind, doc in cases + oversized:
        err = rejected(kind, doc)
        if isinstance(doc, bytes):
            assert err.startswith(f"error: cannot read {kind} file: "), err
    # with the limit off the same files parse, and the loaders reject their values
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for kind, doc in oversized:
            assert not rejected(kind, doc).startswith("error: cannot read"), kind
    finally:
        sys.set_int_max_str_digits(limit)
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2",
                       "--cocycle", "cyclic:0,1")
    assert code == 2 and "N >= 1" in err
    code, _, err = run(capsys, "group", "info", "--builtin", "Z2", "--cap", "0")
    assert code == 2 and "--cap" in err
    # an unwritable --out path is bad input, reported without a traceback
    out = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "lattice", "export", "--builtin", "Z2", "--out", str(out))
    assert code == 2 and err.startswith("error: cannot write") and not out.exists()
    # --cap limits the input: an over-cap group is bad input, builtin or from a file
    G = builtin_group("S4")
    gf = tmp_path / "s4.json"
    gf.write_text(json.dumps({"mult": [list(r) for r in G.mult]}))
    for where in (["--builtin", "S4"], ["--group", str(gf)]):
        code, _, err = run(capsys, "group", "info", *where, "--cap", "4")
        assert code == 2 and "order 24 exceeds cap 4" in err, where
    pf = tmp_path / "s4_perm.json"
    pf.write_text(json.dumps({"perm_gens": [[1, 0, 2, 3], [1, 2, 3, 0]]}))
    code, _, err = run(capsys, "group", "info", "--group", str(pf), "--cap", "4")
    assert code == 2 and "exceeds cap 4" in err
    # Z3 with its identity at index 2 and omega_1 in the file's labels: the
    # labels are the file's own everywhere, so the table is bad input
    lab = [2, 0, 1]   # Z3 element x has file label lab[x]
    inv = [lab.index(y) for y in range(3)]
    zf = tmp_path / "z3.json"
    zf.write_text(json.dumps({"mult": [[lab[(inv[a] + inv[b]) % 3] for b in range(3)]
                                       for a in range(3)]}))
    om = builtin_cyclic(3, 1)
    cf = tmp_path / "z3_omega.json"
    cf.write_text(json.dumps({"modulus": om.modulus, "dlog": [
        [[om.dlog[inv[x]][inv[y]][inv[z]] for z in range(3)] for y in range(3)]
        for x in range(3)]}))
    code, _, err = run(capsys, "verify", "all", "--group", str(zf), "--cocycle", str(cf))
    assert code == 2 and "identity at index 0" in err, err


@pytest.mark.parametrize("argv, doc, msg", [
    (["group", "info", "--group", "{f}"], {"name": "G"},
     'group file needs a "mult" table or "perm_gens" list'),
    (["group", "info", "--builtin", "Z2", "--cocycle", "cyclic:4"], None,
     "--cocycle cyclic:N,Q needs two integers"),
    (["group", "info", "--builtin", "Z2", "--cocycle", "cyclic:a,b"], None,
     "--cocycle cyclic:N,Q needs two integers"),
    (["group", "info", "--builtin", "Z2", "--cocycle", "{f}"], {"modulus": 2},
     'cocycle file needs "modulus" and "dlog"'),
    (["group", "info", "--builtin", "Z2", "--cocycle", "{f}"], {"modulus": 2, "dlog": [0] * 7},
     "flat dlog must have 2^3 entries"),
    (["invariants", "--builtin", "S3", "--triple", "0-x,0,trivial"], None,
     "bad element list '0-x'; use dash-joined indices"),
    (["invariants", "--builtin", "S3", "--triple", "0-9,0,trivial"], None,
     "element out of range in '0-9'"),
], ids=["no-table", "cyclic-one-int", "cyclic-not-ints", "no-dlog", "flat-dlog-length",
        "bad-element-list", "element-out-of-range"])
def test_bad_input_exits_2_with_its_message(tmp_path, capsys, argv, doc, msg):
    f = tmp_path / "input.json"
    if doc is not None:
        f.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.replace("{f}", str(f)) for a in argv))
    assert (code, out, err) == (2, "", f"error: {msg}\n")


def test_non_group_table_fails(tmp_path, capsys):
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"mult": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, "group", "info", "--group", str(gf))
    assert code == 1
    assert "verification failure" in err


def test_certify_failure_names_group_and_simple(monkeypatch, capsys):
    # a centralizer oracle that drops simple 7 fails at a named triple, naming 7
    real = oracle.centralizing_simples
    monkeypatch.setattr(oracle, "centralizing_simples", lambda dd, ms: real(dd, ms) - {7})
    code, _, err = run(capsys, "verify", "all", "--builtin", "S3")
    assert code == 1 and err.startswith("verification failure: S3 (cocycle mod 1) at K = ")
    assert "differ first at simple 7" in err, err


def test_unexpected_exception_escapes(monkeypatch):
    # only InputError and CheckFailure are exit codes; a bug keeps its traceback
    def boom(dd):
        raise ValueError("boom")

    monkeypatch.setattr(sc, "enumerate_all", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["subcats", "list", "--builtin", "Z2"])


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_broken_pipe_exits_141(unbuffered):
    # the read end is closed before the process prints, so its first write or
    # its flush fails with EPIPE, whether stdout is block-buffered or not
    env = dict(os.environ, PYTHONPATH=str(Path(qdouble.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qdouble.cli", "group", "info", "--builtin", "S3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == "", proc.stderr


def test_every_exported_exception_has_one_root():
    exported = [v for v in vars(qdouble).values()
                if isinstance(v, type) and issubclass(v, BaseException)]
    assert {InputError, CheckFailure} < set(exported)
    for cls in exported:
        assert issubclass(cls, InputError) != issubclass(cls, CheckFailure), cls


def _pairwise_hasse_edges(dd, triples):
    """Covering pairs from contains() on every pair, reduced transitively."""
    below = [[i for i, a in enumerate(triples)
              if a != b and sc.contains(dd, a, b)] for b in triples]
    edges = []
    for j, bs in enumerate(below):
        bset = set(bs)
        for i in bs:
            if not any(i in below[k] for k in bset if k != i):
                edges.append((i, j))
    return edges


# lattice export --format json: sha256 prefix, triples and covering edges
LATTICES = {
    ("Z2", "Z4"): ("1568d8e5c7aae8c7", 249, 1002),
    ("D4",): ("269b161839b58dd2", 45, 98),
    ("S3", "Z3"): ("ed9c489b786fca31", 48, 124),
    ("Z4", "Z4"): ("f18b15d837b2f180", 1983, 9540),
    ("Z2", "Z2", "Z2"): ("dd32ad485b1f7f06", 2825, 23562),
    ("Q8", "Z2"): ("ece66cedee3dd82e", 1023, 5380),
    ("D4", "Z2"): ("cb20c613b9157df7", 1023, 5380),
}


def _hasse_doubles():
    """Z2xZ4, Z3xZ3, S3xZ3, omega_2 on Z4, every braiding double and twisted Z2^3:
    non-abelian and twisted doubles, each small enough for the pairwise oracle."""
    return (untwisted_product("Z2", "Z4"), untwisted_product("Z3", "Z3"),
            untwisted_product("S3", "Z3"), twisted_cyclic(4, 2),
            *braiding_doubles(), twisted_z2_cubed())


def test_hasse_edges_match_pairwise():
    for dd in _hasse_doubles():
        triples = sc.enumerate_all(dd)
        assert _hasse_edges(triples) == _pairwise_hasse_edges(dd, triples), dd.where


def test_hasse_edges_are_one_sided_normal_covers():
    # each edge moves K up or H down by a cover of the normal-subgroup lattice, never both
    for dd in (*_hasse_doubles(), untwisted_product("D4", "Z2")):
        normals = [N.member_set for N in dd.group.normal_subgroups]
        covers = {(A, B) for A in normals for B in normals
                  if A < B and not any(A < C < B for C in normals)}
        triples = sc.enumerate_all(dd)
        edges = _hasse_edges(triples)
        assert edges == sorted(edges, key=lambda e: (e[1], e[0])), dd.where
        assert len(set(edges)) == len(edges), dd.where
        for i, j in edges:
            lo, hi = triples[i], triples[j]
            K = (lo.K.member_set, hi.K.member_set)
            H = (hi.H.member_set, lo.H.member_set)
            assert (K in covers and H[0] == H[1]) != (H in covers and K[0] == K[1]), \
                (dd.where, i, j)
            assert sc.contains(dd, lo, hi), (dd.where, i, j)


@pytest.mark.parametrize("names", list(LATTICES), ids="x".join)
def test_lattice_export_pinned(names):
    digest, n_triples, n_edges = LATTICES[names]
    dd = untwisted_product(*names)
    text = lattice_text(dd, "json")
    doc = json.loads(text)
    assert (len(doc["triples"]), len(doc["edges"])) == (n_triples, n_edges)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# JSON values of every kind the writer meets or falls back on
json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 100, 2 ** 100)
               | st.floats(allow_nan=False, allow_infinity=False) | st.text())
json_values = st.recursive(
    json_leaves | st.lists(st.integers() | st.booleans())
    | st.lists(st.lists(st.integers(), max_size=4)) | st.lists(st.lists(st.nothing())),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_matches_json_dumps_on_cli_docs(monkeypatch, capsys):
    docs = []

    def recording(x, pad="\n"):
        if pad == "\n":   # a document, not one of the writer's own recursive calls
            docs.append(x)
        return _dumps(x, pad)

    monkeypatch.setattr(cli, "_dumps", recording)
    for dd in (untwisted("D4"), twisted_quotient("S3", 3), untwisted_product("Z3", "Z3")):
        lattice_text(dd, "json")
    # the invariants doc holds floats: the Gauss sum and central charge approximations
    code, _, _ = run(capsys, "invariants", "--builtin", "S3", "--triple", "0,0-1-2-3-4-5,trivial")
    assert code == 0 and len(docs) == 4
    assert isinstance(docs[3]["central_charge"]["re"], float)
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2)
