"""Command line interface: formats, schemas, exit codes."""

import hashlib
import json

import pytest

from qdouble import builtin_cyclic, oracle, subcats as sc
from qdouble.cli import _hasse_edges, lattice_text, main
from qdouble.groups import builtin_group

from conftest import twisted_cyclic, untwisted, untwisted_product


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
                         "--cocycle", "cyclic:4,1", "--cap", "4")
    assert code == 2
    assert "extension order 16 exceeds cap 4" in err
    code, out, err = run(capsys, "verify", "all", "--builtin", "Z4",
                         "--cocycle", "cyclic:4,1", "--cap", "16")
    assert code == 0
    assert "triples: 11" in out and "verified" in out


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
             ("cocycle", {"modulus": 2, "dlog": [[[0, 0], [0, 0]], [[0, 0], [0, "1"]]]}))
    for kind, doc in cases:
        f = tmp_path / f"{kind}.json"
        f.write_text(json.dumps(doc))
        where = (["--group", str(f)] if kind == "group"
                 else ["--builtin", "Z2", "--cocycle", str(f)])
        code, _, err = run(capsys, "group", "info", *where)
        assert code == 2 and err.startswith("error:"), (doc, err)
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


def test_hasse_edges_match_pairwise():
    for dd in (untwisted_product("Z2", "Z4"), untwisted("D4"),
               untwisted_product("S3", "Z3"), twisted_cyclic(4, 1), twisted_cyclic(4, 2)):
        triples = sc.enumerate_all(dd)
        assert _hasse_edges(triples) == _pairwise_hasse_edges(dd, triples)


@pytest.mark.parametrize("names", list(LATTICES), ids="x".join)
def test_lattice_export_pinned(names):
    digest, n_triples, n_edges = LATTICES[names]
    dd = untwisted_product(*names)
    triples = sc.enumerate_all(dd)
    text = lattice_text(dd, triples, "json")
    doc = json.loads(text)
    assert (len(doc["triples"]), len(doc["edges"])) == (n_triples, n_edges)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
