"""The batch scripts under scripts/: they write the CLI's documents."""

import importlib.util
import json
import pathlib
import sys

from qdouble.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumerate_lattices_export_matches_cli(tmp_path, monkeypatch, capsys):
    script = load_script("enumerate_lattices")
    monkeypatch.setattr(sys, "argv", ["enumerate_lattices.py", "--groups", "S3",
                                      "--export", "json", "--outdir", str(tmp_path)])
    assert script.main() == 0
    table = capsys.readouterr().out.splitlines()
    assert table[1].split("\t")[:5] == ["S3", "6", "8", "8", "8"]

    assert main(["lattice", "export", "--builtin", "S3", "--format", "json"]) == 0
    expected = capsys.readouterr().out
    written = (tmp_path / "S3.json").read_text()
    assert written == expected
    assert json.loads(written)["cocycle_modulus"] == 1


def test_twisted_scan_triple_counts(monkeypatch, capsys):
    script = load_script("twisted_scan")
    monkeypatch.setattr(sys, "argv", ["twisted_scan.py", "--max-n", "3"])
    assert script.main() == 0
    header, *rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    cells = [dict(zip(header, row)) for row in rows]
    assert [(c["n"], c["q"], c["triples"]) for c in cells] == [
        ("2", "0", "5"), ("2", "1", "5"), ("3", "0", "6"), ("3", "1", "3"), ("3", "2", "3")]
