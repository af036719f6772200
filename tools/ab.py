"""The paired A/B engine of tools/scalar_ab.py, check_times.py and workload_ab.py.

`sides` loads each tree's package under its side's name: parent, change, and
control, the parent tree again, so that parent/control is an A/A comparison.
`measure` runs rounds of one unit of work per side with garbage collection off,
cycling through all six orders of the sides (ROUNDS is a multiple of 6).
`table` prints a line a row: each side's median [min, max] cost; the median of
the rounds' parent/change ratios (above 1: the change is faster), its 95%
bootstrap CI, seeded by the row's name, and the rounds the change won (ties
count for neither); the same three figures for parent/control. Claim rule: a
change is faster only if, on each of 3 seeds, the lower end of its
parent/change CI lies above the upper end of the parent/control CI.
"""

import gc
import importlib
import itertools
import shutil
import sys
import zlib
from pathlib import Path

import numpy as np

ROUNDS = 60
SIDES = ("parent", "change", "control")
BOOTSTRAP = 10_000


def load(src: Path, name: str, into: Path):
    """The package under src/spinorspace, copied into `into` and imported as `name`."""
    shutil.copytree(src / "spinorspace", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def sides(trees: list, into: Path) -> list:
    """Each side's package, loaded into `into`: the one tree's, or parent, change and control."""
    sys.path.insert(0, str(into))
    trees = [*trees, trees[0]] if len(trees) == 2 else trees
    return [load(Path(tree).resolve(), f"spinorspace_{side}", into)
            for side, tree in zip(SIDES, trees)]


def measure(units: list, rounds: int) -> list:
    """Per side, {row: [its cost in each round]}: each round calls each side's unit,
    a zero-argument callable returning {row: cost}, in the next order of the sides."""
    costs = [{} for _ in units]
    orders = itertools.cycle(itertools.permutations(range(len(units))))
    for order in itertools.islice(orders, rounds):
        for side in order:
            gc.disable()
            try:
                result = units[side]()
            finally:
                gc.enable()
            for row, cost in result.items():
                costs[side].setdefault(row, []).append(cost)
    return costs


def figures(name: str, costs: list) -> list:
    """Per side after the parent: median parent/side ratio, its 95% CI's ends, rounds won."""
    parent = np.asarray(costs[0])
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    draws = rng.integers(0, parent.size, (BOOTSTRAP, parent.size))
    rows = []
    for other in costs[1:]:
        ratios = parent / np.asarray(other)
        low, high = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
        rows.append((float(np.median(ratios)), float(low), float(high), int(np.sum(ratios > 1.0))))
    return rows


def table(label: str, costs: list, shown: dict | None = None) -> dict:
    """Print a line for each row of costs, after a header; shown maps a row to the
    per-side values it shows in place of its costs. Returns each row's figures."""
    count = len(costs)
    print(f"{label:50s}" + "".join(f" {side + ' median [min, max]':>29s}" for side in SIDES[:count])
          + "".join(f" {'parent/' + side + ' [95% CI] won':>32s}" for side in SIDES[1:count]))
    rows = {}
    for row in costs[0]:
        values = [side[row] for side in costs]
        rows[row] = figures(row, values)
        print(f"{row:50s}" + "".join(f" {np.median(v):9.2f} [{min(v):8.2f},{max(v):8.2f}]"
                                     for v in (shown or {}).get(row, values))
              + "".join(f"   {median:6.3f} [{low:6.3f},{high:6.3f}] {won:3d}/{len(values[0]):<3d}"
                        for median, low, high, won in rows[row]))
    return rows
