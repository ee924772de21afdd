"""Pinned CLI outputs: one short digest per command, over stdout, stderr and exit code.

A refactor that must not change behaviour keeps every digest. After a
deliberate change of output, print the new table with

    PYTHONPATH=src python3 tests/test_cli_pinned.py

and replace PINNED with it.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from qdouble.cli import main

BUILTINS = ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8", "Z8", "S4")
PER_DOUBLE = (("group", "info"), ("verify", "all"), ("subcats", "list"),
              ("lattice", "export", "--format", "json"))


def commands(tmp: Path) -> list[list[str]]:
    """The pinned command lines; their input files are written under tmp."""
    z5 = tmp / "z5.json"
    z5.write_text(json.dumps({"name": "Z5", "mult": [[(a + b) % 5 for b in range(5)]
                                                     for a in range(5)]}))
    semion = tmp / "semion.json"
    semion.write_text(json.dumps({"dlog": [[0, 0], [0, 1]]}))
    unreduced = tmp / "unreduced.json"
    unreduced.write_text(json.dumps({"dlog": [[0, 0], [0, 3]]}))

    cmds = [[*action, "--builtin", name] for name in BUILTINS
            for action in (*PER_DOUBLE, ("lattice", "export", "--format", "dot"))]
    for n in range(2, 6):
        source = ["--group", str(z5)] if n == 5 else ["--builtin", f"Z{n}"]
        cmds += [[*action, *source, "--cocycle", f"cyclic:{n},{q}"]
                 for q in range(1, n) for action in PER_DOUBLE]
    cmds += [["invariants", "--builtin", "Z2", "--cocycle", "cyclic:2,1",
              "--triple", f"0-1,0-1,{semion}"]]
    # pairing files are read mod N: 3 is 1 mod 2 on the untwisted double
    cmds += [["invariants", "--builtin", "Z2", "--triple", f"0-1,0-1,{unreduced}"]]
    cmds += [["invariants", "--builtin", "S3", "--triple", "0,0-1-2-3-4-5,trivial"]]
    cmds += [["invariants", "--builtin", name, "--triple", "0-1,0-1,trivial"]
             for name in ("S3", "D4")]
    return cmds


def digests(tmp: Path) -> dict[str, str]:
    """Command line (tmp written as <tmp>) -> first 12 hex digits of its sha256."""
    table = {}
    for argv in commands(tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        blob = "\0".join((out.getvalue(), err.getvalue(), str(code))).replace(str(tmp), "<tmp>")
        table[" ".join(argv).replace(str(tmp), "<tmp>")] = \
            hashlib.sha256(blob.encode()).hexdigest()[:12]
    return table


PINNED = {
    'group info --builtin Z2': '0f945c861abf',
    'verify all --builtin Z2': 'd934f33d0f6a',
    'subcats list --builtin Z2': 'd609dbc58cdb',
    'lattice export --format json --builtin Z2': '735801d5fffb',
    'lattice export --format dot --builtin Z2': '41db777dc3bf',
    'group info --builtin Z3': 'f73512e3592b',
    'verify all --builtin Z3': '0c26509edebd',
    'subcats list --builtin Z3': 'f4d3b0a6c28d',
    'lattice export --format json --builtin Z3': '0595df3f855d',
    'lattice export --format dot --builtin Z3': '5b6d6445ffa2',
    'group info --builtin Z4': '91968bcce560',
    'verify all --builtin Z4': '1f7321eb740f',
    'subcats list --builtin Z4': '13ea8c94d7a7',
    'lattice export --format json --builtin Z4': 'f4321e6e23fc',
    'lattice export --format dot --builtin Z4': '80b2f8a5531f',
    'group info --builtin Z2xZ2': 'cf3a7ea1ef47',
    'verify all --builtin Z2xZ2': '7dabc293ee73',
    'subcats list --builtin Z2xZ2': '5298baa81698',
    'lattice export --format json --builtin Z2xZ2': '0037abe9ff99',
    'lattice export --format dot --builtin Z2xZ2': '159248aa9f6c',
    'group info --builtin S3': '3da5676fc696',
    'verify all --builtin S3': '0267976049d1',
    'subcats list --builtin S3': '880522393888',
    'lattice export --format json --builtin S3': '353f63183c8c',
    'lattice export --format dot --builtin S3': '4a30981ce962',
    'group info --builtin D4': 'afac814404ff',
    'verify all --builtin D4': '29dc5d2a10a9',
    'subcats list --builtin D4': '0713b6187036',
    'lattice export --format json --builtin D4': '9227bcd9e764',
    'lattice export --format dot --builtin D4': '2e80a79d6f4a',
    'group info --builtin Q8': '98f8c4c21465',
    'verify all --builtin Q8': '6f92511ed728',
    'subcats list --builtin Q8': 'd7e9f212f3c3',
    'lattice export --format json --builtin Q8': '48875f71b482',
    'lattice export --format dot --builtin Q8': 'f9371ba48a7a',
    'group info --builtin Z8': '4cdaf229b265',
    'verify all --builtin Z8': '8c07b36aa1e2',
    'subcats list --builtin Z8': '7e9ea9501b00',
    'lattice export --format json --builtin Z8': '4360b4467b5a',
    'lattice export --format dot --builtin Z8': 'b06891257ca3',
    'group info --builtin S4': 'f9bbd3e5b4b5',
    'verify all --builtin S4': '41c539b1a552',
    'subcats list --builtin S4': 'b95cccb24647',
    'lattice export --format json --builtin S4': '8bcfb178d6b2',
    'lattice export --format dot --builtin S4': 'b078975f3f7c',
    'group info --builtin Z2 --cocycle cyclic:2,1': '656d84697ef5',
    'verify all --builtin Z2 --cocycle cyclic:2,1': '7ae1f3505c20',
    'subcats list --builtin Z2 --cocycle cyclic:2,1': '66860c81bd06',
    'lattice export --format json --builtin Z2 --cocycle cyclic:2,1': '6657c268bdf7',
    'group info --builtin Z3 --cocycle cyclic:3,1': '4135236a882e',
    'verify all --builtin Z3 --cocycle cyclic:3,1': '1ff46be3d754',
    'subcats list --builtin Z3 --cocycle cyclic:3,1': 'c5f20de54922',
    'lattice export --format json --builtin Z3 --cocycle cyclic:3,1': 'fc93636b8181',
    'group info --builtin Z3 --cocycle cyclic:3,2': '4135236a882e',
    'verify all --builtin Z3 --cocycle cyclic:3,2': '1ff46be3d754',
    'subcats list --builtin Z3 --cocycle cyclic:3,2': 'c5f20de54922',
    'lattice export --format json --builtin Z3 --cocycle cyclic:3,2': 'fc93636b8181',
    'group info --builtin Z4 --cocycle cyclic:4,1': '904e0505765a',
    'verify all --builtin Z4 --cocycle cyclic:4,1': '1839a2a32a2a',
    'subcats list --builtin Z4 --cocycle cyclic:4,1': 'ee5b6971f848',
    'lattice export --format json --builtin Z4 --cocycle cyclic:4,1': '619aab53b197',
    'group info --builtin Z4 --cocycle cyclic:4,2': '904e0505765a',
    'verify all --builtin Z4 --cocycle cyclic:4,2': '0851ab661799',
    'subcats list --builtin Z4 --cocycle cyclic:4,2': '78f49cae9ed0',
    'lattice export --format json --builtin Z4 --cocycle cyclic:4,2': 'edbf976596a0',
    'group info --builtin Z4 --cocycle cyclic:4,3': '904e0505765a',
    'verify all --builtin Z4 --cocycle cyclic:4,3': '1839a2a32a2a',
    'subcats list --builtin Z4 --cocycle cyclic:4,3': 'e41d656c81a8',
    'lattice export --format json --builtin Z4 --cocycle cyclic:4,3': 'cfc87e72a5cd',
    'group info --group <tmp>/z5.json --cocycle cyclic:5,1': 'd8a0175b0c20',
    'verify all --group <tmp>/z5.json --cocycle cyclic:5,1': '5ac18f06dfed',
    'subcats list --group <tmp>/z5.json --cocycle cyclic:5,1': 'b6d16d3fe589',
    'lattice export --format json --group <tmp>/z5.json --cocycle cyclic:5,1': 'c07f2867d873',
    'group info --group <tmp>/z5.json --cocycle cyclic:5,2': 'd8a0175b0c20',
    'verify all --group <tmp>/z5.json --cocycle cyclic:5,2': '5ac18f06dfed',
    'subcats list --group <tmp>/z5.json --cocycle cyclic:5,2': 'b6d16d3fe589',
    'lattice export --format json --group <tmp>/z5.json --cocycle cyclic:5,2': 'c07f2867d873',
    'group info --group <tmp>/z5.json --cocycle cyclic:5,3': 'd8a0175b0c20',
    'verify all --group <tmp>/z5.json --cocycle cyclic:5,3': '5ac18f06dfed',
    'subcats list --group <tmp>/z5.json --cocycle cyclic:5,3': 'b6d16d3fe589',
    'lattice export --format json --group <tmp>/z5.json --cocycle cyclic:5,3': 'c07f2867d873',
    'group info --group <tmp>/z5.json --cocycle cyclic:5,4': 'd8a0175b0c20',
    'verify all --group <tmp>/z5.json --cocycle cyclic:5,4': '5ac18f06dfed',
    'subcats list --group <tmp>/z5.json --cocycle cyclic:5,4': 'b6d16d3fe589',
    'lattice export --format json --group <tmp>/z5.json --cocycle cyclic:5,4': 'c07f2867d873',
    'invariants --builtin Z2 --cocycle cyclic:2,1 --triple 0-1,0-1,<tmp>/semion.json': '88a91553a62f',
    'invariants --builtin Z2 --triple 0-1,0-1,<tmp>/unreduced.json': '7a335cc4fb8d',
    'invariants --builtin S3 --triple 0,0-1-2-3-4-5,trivial': 'fbe366abe20f',
    'invariants --builtin S3 --triple 0-1,0-1,trivial': '5e22e21de6e5',
    'invariants --builtin D4 --triple 0-1,0-1,trivial': '5e22e21de6e5',
}


def test_cli_outputs_pinned(tmp_path):
    got = digests(tmp_path)
    assert len(got) == 90
    changed = [cmd for cmd in got.keys() | PINNED.keys() if got.get(cmd) != PINNED.get(cmd)]
    assert not changed, f"{len(changed)} command outputs changed: {sorted(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    sys.stdout.write("".join(f"    {cmd!r}: {d!r},\n" for cmd, d in table.items()))
