"""Smoke tests for the experiment drivers in scripts/, run in process at small
sizes and checked against the published values."""

import importlib.util
import sys
from pathlib import Path

from matchconn.checks import PUBLISHED

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    """Call the script's main(argv) in process; return its output rows split
    into fields, header dropped."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()[1:]]


def test_spectrum_table_certifies_order_6(monkeypatch, capsys):
    rows = run_script("spectrum_table", ["3"], monkeypatch, capsys)
    assert rows[-1] == ["certified"]
    table = rows[:-1]
    assert [(int(r[1]), int(r[2])) for r in table] == list(PUBLISHED["spectrum_n_3"])
    # measured eigenspace dimensions equal the predicted multiplicities
    assert [r[3] for r in table] == [r[2] for r in table]


def test_spectrum_table_predicts_order_8(monkeypatch, capsys):
    rows = run_script("spectrum_table", ["4", "--skip-measure"], monkeypatch, capsys)
    assert [(int(r[1]), int(r[2])) for r in rows] == list(PUBLISHED["spectrum_n_4"])
    assert tuple(int(r[3]) for r in rows) == PUBLISHED["sphere_sizes_n_4"]


def test_rank_sweep_small_orders(monkeypatch, capsys):
    argv = ["--orders", "2", "4", "6", "8", "--mods", "2", "3", "5"]
    rows = run_script("rank_sweep", argv, monkeypatch, capsys)
    assert [int(r[0]) for r in rows] == [2, 4, 6, 8]
    for order, _dim, mod2, _mod3, _mod5, rational, formula in rows:
        k = int(order)
        assert int(mod2) == PUBLISHED["ranks_mod_2"][k]
        assert rational == formula
        if k >= 4:
            assert int(rational) == PUBLISHED["rank_formula_by_n"][k // 2]
