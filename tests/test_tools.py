"""The paired A/B engine of tools/ab.py and its three front ends: the statistic, the
round order, the loaded copies, a shrunk run of each front end on this tree's src/,
and workload_ab's exit code on a tree with a planted kernel fault."""

import gc
import itertools
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import spinorspace

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"
# One ratio column: median [CI low, CI high] won/rounds.
FIGURES = re.compile(r"(\d+\.\d{3}) \[ *(\d+\.\d{3}), *(\d+\.\d{3})\] +(\d+)/(\d+)")


@pytest.fixture(autouse=True)
def ab(monkeypatch):
    """tools/ab.py, with tools/ on the import path; the sys.path entries a test adds and
    the packages it loads leave with it."""
    monkeypatch.syspath_prepend(str(TOOLS))
    before = set(sys.modules)
    import ab

    yield ab
    for name in set(sys.modules) - before:
        if name.startswith(("spinorspace_", "workloads_spinorspace_")):
            del sys.modules[name]


def _figures(line):
    """(median, low, high, won) of each ratio column of a printed line."""
    return [tuple(float(x) for x in group[:3]) + (int(group[3]),)
            for group in FIGURES.findall(line)]


def test_figures_on_fixed_ratios(ab):
    parent = [2.0] * 12
    # parent/change ratios: 2.0 seven times, 1.0 twice (ties), 2/3 three times.
    change = [1.0] * 7 + [2.0] * 2 + [3.0] * 3
    (median, low, high, won), control = ab.figures("seed 2", [parent, change, parent])
    assert median == 2.0 and won == 7
    assert 2.0 / 3.0 <= low <= median <= high <= 2.0
    assert control == (1.0, 1.0, 1.0, 0)  # all ties: neither side won a round
    # The CI of a row does not depend on the rows figured before it.
    first = ab.figures("seed 2", [parent, [1.0, 3.0] * 6, parent])
    ab.figures("seed 1", [parent, change, parent])
    assert ab.figures("seed 2", [parent, [1.0, 3.0] * 6, parent]) == first


def test_table_prints_each_side_and_both_pairs(ab, capsys):
    costs = [{"row": [2.0] * 6}, {"row": [1.0] * 6}, {"row": [2.0] * 6}]
    figures = ab.table("label", costs)
    lines = capsys.readouterr().out.splitlines()
    assert "parent/change" in lines[0] and "parent/control" in lines[0]
    assert lines[1].startswith("row") and _figures(lines[1]) == figures["row"]
    assert figures["row"] == [(2.0, 2.0, 2.0, 6), (1.0, 1.0, 1.0, 0)]
    assert [rounds for *_, rounds in FIGURES.findall(lines[1])] == ["6", "6"]


def test_every_order_runs_equally_often_with_gc_off(ab):
    assert ab.ROUNDS % 6 == 0
    calls = []

    def unit(side):
        calls.append((side, gc.isenabled()))
        return {"row": float(side)}

    costs = ab.measure([lambda side=side: unit(side) for side in range(3)], ab.ROUNDS)
    assert not any(enabled for _, enabled in calls) and gc.isenabled()
    orders = Counter(tuple(side for side, _ in calls[i:i + 3]) for i in range(0, len(calls), 3))
    assert set(orders) == set(itertools.permutations(range(3)))
    assert set(orders.values()) == {ab.ROUNDS // 6}
    assert costs == [{"row": [float(side)] * ab.ROUNDS} for side in range(3)]


def test_load_gives_copies_that_share_no_module_objects(ab, tmp_path):
    packages = ab.sides([SRC, SRC], tmp_path)
    assert [p.__name__ for p in packages] == [f"spinorspace_{side}" for side in ab.SIDES]
    copies = [{name[len(p.__name__):]: module for name, module in sys.modules.items()
               if name.split(".")[0] == p.__name__} for p in packages]
    assert copies[0].keys() == copies[1].keys() == copies[2].keys()
    assert {"", ".core", ".spinor_maps", ".verify"} <= copies[0].keys()
    for name in copies[0]:
        assert len({id(copy[name]) for copy in copies}) == 3
    for package, copy in zip(packages, copies):
        assert Path(package.__file__).parent == tmp_path / package.__name__
        for module in copy.values():  # every spinorspace module it refers to is its own
            for value in vars(module).values():
                home = getattr(value, "__module__", None) or getattr(value, "__name__", "")
                if isinstance(home, str) and home.startswith("spinorspace"):
                    assert home.split(".")[0] == package.__name__, (module, value)
    assert packages[0].Spinor is not packages[2].Spinor


def _rows(out):
    return [line for line in out.splitlines() if FIGURES.search(line)]


def test_scalar_ab_smoke(ab, monkeypatch, capsys):
    import scalar_ab

    monkeypatch.setattr(ab, "ROUNDS", 6)
    monkeypatch.setattr(scalar_ab, "NUMBER", 35)
    assert scalar_ab.main([str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "parent/control" in out.splitlines()[0]
    rows = _rows(out)
    assert [row[:50].rstrip() for row in rows] == [name for name, _ in scalar_ab.calls(spinorspace)]
    assert all(len(FIGURES.findall(row)) == 2 for row in rows)
    assert all(rounds == "6" for row in rows for *_, rounds in FIGURES.findall(row))


def test_check_times_smoke(ab, monkeypatch, capsys):
    import check_times

    monkeypatch.setattr(ab, "ROUNDS", 6)
    monkeypatch.setattr(check_times, "ACCEPTANCE", dict.fromkeys(check_times.ACCEPTANCE, 60))
    assert check_times.main([str(SRC), str(SRC)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(_rows("\n".join(lines))) == 29 + 5 + 1 + 5 + 2 + 1  # checks ... battery
    assert all(len(FIGURES.findall(line)) == 2 for line in _rows("\n".join(lines)))
    assert lines[-2].startswith("battery") and "not attributable" in lines[-1]
    # One tree: each row's median [min, max] alone, then the RSS growth.
    assert check_times.main([str(SRC)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "parent/change" not in lines[1] and not _rows("\n".join(lines))
    assert lines[-1].startswith("peak RSS") and lines[-1].endswith(" MB")
    assert check_times.main(["a", "b", "c"]) == 2


def test_workload_ab_smoke(ab, capsys):
    import workload_ab

    assert workload_ab.main([str(SRC), "--workload", "points", "--seeds", "4", "--rounds", "6"]) == 0
    out = capsys.readouterr().out
    (row,) = _rows(out)
    assert row.startswith("seed 4") and len(_figures(row)) == 2
    assert out.splitlines()[-1] == "claim rule over 1 seeds: not met"
    # fixtures: the pass row, then its four stages in us a record, from the workload's
    # last_stages; the claim rule reads the pass rows alone.
    assert workload_ab.main([str(SRC), "--workload", "fixtures", "--seeds", "4",
                             "--rounds", "6"]) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert [row[:50].rstrip() for row in rows] == ["seed 4"] + [
        f"seed 4 {stage} us/record" for stage in ("generate", "write", "load", "replay")]
    assert all(len(_figures(row)) == 2 for row in rows)
    assert out.splitlines()[-1] == "claim rule over 1 seeds: not met"


def test_workload_ab_fails_on_a_planted_kernel_fault(ab, tmp_path, capsys):
    import workload_ab

    shutil.copytree(SRC / "spinorspace", tmp_path / "spinorspace")
    maps = tmp_path / "spinorspace" / "spinor_maps.py"
    text = maps.read_text()
    # eta_of_xi with the last part's sign turned.
    good = "return _over_sqrt2(c1r - c2r, c1i + c2i, c2r + c1r, c2i - c1i)"
    assert text.count(good) == 1
    maps.write_text(text.replace(good, good.replace("c2i - c1i", "c1i - c2i")))
    argv = [str(SRC), str(tmp_path), "--workload", "points", "--seeds", "4", "--rounds", "1"]
    assert workload_ab.main(argv) == 1
    (failed,) = capsys.readouterr().err.splitlines()
    assert failed.startswith("FAILED seed 4 change: ")


def test_workload_ab_battery_smoke(ab, monkeypatch, capsys):
    import workload_ab

    monkeypatch.setattr(workload_ab, "BATTERY_SAMPLES", dict.fromkeys(
        ("hopf", "covariance", "so4", "ks", "gauge"), 60))
    argv = [str(SRC), "--workload", "battery", "--seeds", "4", "--rounds", "6"]
    assert workload_ab.main(argv) == 0
    out = capsys.readouterr().out
    (row,) = _rows(out)
    assert out.startswith("workload battery") and row.startswith("seed 4")
    assert len(_figures(row)) == 2 and out.splitlines()[-1] == "claim rule over 1 seeds: not met"


def test_same_bits_rows_digest_moves_with_a_written_out_dot(ab, monkeypatch, capsys):
    # The rows line hashes every residual row run_all scores, so a change of the bits of
    # one route moves it where the pinned worst residuals may not.
    import hashlib

    import same_bits

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("run_all_text", "help_text"):
        monkeypatch.setattr(same_bits, name, lambda *_: "")
    monkeypatch.setattr(same_bits, "fixtures_bytes", lambda *_: b"")
    monkeypatch.setattr(same_bits, "edge_rows", lambda *_: [])
    rows_bytes = same_bits.residual_rows_bytes
    monkeypatch.setattr(same_bits, "residual_rows_bytes", lambda ss: rows_bytes(ss, samples=500))
    assert same_bits.main([str(SRC)]) == 0
    digests = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert digests["rows"] == hashlib.sha256(rows_bytes(spinorspace, samples=500)).hexdigest()
    data = rows_bytes(spinorspace, samples=500)
    assert all(f"{suite} {name} ".encode() in data
               for suite, checks in spinorspace.verify._SUITES.items() for name, *_ in checks)

    def written_out(a, b):
        total = 0.0
        for i in range(a.shape[-1]):
            total = total + a[..., i] * b[..., i]
        return total

    monkeypatch.setattr(spinorspace.verify, "_dot", written_out)
    assert hashlib.sha256(rows_bytes(spinorspace, samples=500)).hexdigest() != digests["rows"]
