"""Time a perfbench workload's op list in one process on two source trees.

Copies each tree's spinorspace package into a temporary directory under its
own name, as tools/scalar_ab.py does, and loads perfbench/workloads.py (read,
never changed) once per tree with `spinorspace` bound to that tree's copy, so
each side runs the benchmark's own op list and its own output check. A third
side, the control, is the parent tree loaded a second time under another
name: parent against control is an A/A comparison of identical code.

For each seed, every round runs one pass of the workload on each side, with
garbage collection off during the pass as in perfbench; the order of the
three sides cycles through all six permutations from round to round. A pass's
time is the sum of its ops' latencies, as perfbench measures them. Each pass's
outputs are scored with the workload's own check, outside the timed region;
if any op of any side fails it, the tool exits 1. Per seed it prints the
median of the rounds' parent/change time ratios (above 1: the change is
faster), a 95% bootstrap confidence interval of that median, and the rounds
the change won, with the same three figures for parent/control beneath.

`fixtures` covers the in-process batches only: the cold `python -m
spinorspace convert` spawns stay with perfbench, so each side's in-process
convert output is its own reference. The calibration probes of perfbench's
timed runs are not run; times are raw wall time. It needs the standard
library, numpy and the package.

usage: python tools/workload_ab.py PARENT_SRC [CHANGE_SRC] --workload points|frames|fixtures
                                   [--seeds 1 2 3] [--rounds 40]
       (default CHANGE_SRC: the src/ beside tools/)
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

from scalar_ab import load

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change", "control")
BOOTSTRAP = 10_000


def workloads_for(package):
    """perfbench/workloads.py as a module of its own whose `spinorspace` is package."""
    saved = {name: sys.modules.get(name) for name in ("spinorspace", "spinorspace.cli")}
    sys.modules["spinorspace"] = package
    sys.modules["spinorspace.cli"] = importlib.import_module(f"{package.__name__}.cli")
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{package.__name__}", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses looks its module up there
        spec.loader.exec_module(module)
    finally:
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    return module


def timed_pass(workload, tally) -> float:
    """One pass of workload: its ops' time in seconds; its outputs are then scored into tally."""
    gc.disable()
    try:
        latency_ns, outputs = workload.run_pass(workload.chain())
    finally:
        gc.enable()
    workload.check(outputs, tally)
    # A fixtures sample is a batch's time per record; scaled, every workload's sum is its ops'.
    return float(np.sum(latency_ns)) * workload.ops_per_pass / len(latency_ns) / 1e9


def ratio_row(numerator, denominator, rng) -> tuple:
    """Median of numerator/denominator per round, its 95% bootstrap CI, and the rounds
    in which the denominator's side was faster."""
    ratios = np.asarray(numerator) / np.asarray(denominator)
    draws = rng.integers(0, ratios.size, (BOOTSTRAP, ratios.size))
    low, high = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high), int(np.sum(ratios > 1.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--workload", required=True, choices=("points", "frames", "fixtures"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports bands, speed and reference
    rng = np.random.default_rng(0)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (args.parent_src, args.change_src, args.parent_src)
        modules = [workloads_for(load(src.resolve(), f"spinorspace_{side}", Path(tmp)))
                   for side, src in zip(SIDES, trees)]
        print(f"workload {args.workload}, {args.rounds} rounds a seed; time ratio median "
              f"[95% bootstrap CI], rounds the second side won")
        for seed in args.seeds:
            workloads, tallies = [], []
            for side, module in zip(SIDES, modules):
                workdir = Path(tmp) / f"{side}-{seed}"
                workdir.mkdir()
                workload = module.WORKLOADS[args.workload](seed, workdir)
                if args.workload == "fixtures":
                    workload.cold_stdout.add(workload._convert_in_process()[1])
                workloads.append(workload)
                tallies.append(module.Tally())
            seconds = [[] for _ in SIDES]
            orders = list(itertools.permutations(range(len(SIDES))))
            for round_ in range(args.rounds):
                for i in orders[round_ % len(orders)]:
                    seconds[i].append(timed_pass(workloads[i], tallies[i]))
            for side, workload, tally in zip(SIDES, workloads, tallies):
                workload.close()
                if tally.unexpected or tally.known:
                    failed.append(f"seed {seed} {side}: {tally.unexpected + tally.known} of "
                                  f"{tally.attempted} ops failed the check")
            for name, other in (("parent/change", seconds[1]), ("parent/control", seconds[2])):
                median, low, high, won = ratio_row(seconds[0], other, rng)
                print(f"seed {seed:3d}  {name:15s} {median:.3f} [{low:.3f}, {high:.3f}]  "
                      f"{won}/{args.rounds}   pass ms {1e3 * np.median(seconds[0]):.1f} / "
                      f"{1e3 * np.median(other):.1f}")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
