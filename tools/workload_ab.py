"""Time a perfbench workload's op list in one process on two source trees.

Loads perfbench/workloads.py (read, never changed) once per side with
`spinorspace` bound to that side's copy. A round's unit of work on a side is
one pass of a seed's workload, its cost the sum of its ops' latencies in ms;
each pass is then scored with the workload's own check, and if any op of any
side fails it, the tool exits 1. tools/ab.py runs the rounds and prints a row
a seed; the last line applies its claim rule. `fixtures` covers the in-process
batches only: the cold CLI spawns stay with perfbench.

usage: python tools/workload_ab.py PARENT_SRC [CHANGE_SRC] --workload points|frames|fixtures
                                   [--seeds 1 2 3] [--rounds 60]
       (default CHANGE_SRC: the src/ beside tools/)
"""

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path

import ab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    """One pass of workload: its ops' time in ms; its outputs are then scored into tally."""
    latency_ns, outputs = workload.run_pass(workload.chain())
    workload.check(outputs, tally)
    # A fixtures sample is a batch's time per record; scaled, every workload's sum is its ops'.
    return float(latency_ns.sum()) * workload.ops_per_pass / len(latency_ns) / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=PERFBENCH.parent / "src")
    parser.add_argument("--workload", required=True, choices=("points", "frames", "fixtures"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=ab.ROUNDS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports bands, speed and reference
    costs, tallies = [{} for _ in ab.SIDES], {}
    with tempfile.TemporaryDirectory() as tmp:  # it also holds the workloads' files
        modules = [workloads_for(package)
                   for package in ab.sides([args.parent_src, args.change_src], Path(tmp))]
        for seed in args.seeds:
            units = []
            for side, module in zip(ab.SIDES, modules):
                workload = module.WORKLOADS[args.workload](seed, Path(tempfile.mkdtemp(dir=tmp)))
                if args.workload == "fixtures":
                    workload.cold_stdout.add(workload._convert_in_process()[1])
                tally = tallies[f"seed {seed} {side}"] = module.Tally()
                units.append(lambda w=workload, t=tally: {f"seed {seed}": timed_pass(w, t)})
            for side, seed_costs in zip(costs, ab.measure(units, args.rounds)):
                side.update(seed_costs)
    print(f"workload {args.workload}, {args.rounds} rounds a seed")
    seeds = ab.table("pass ms", costs)
    met = len(seeds) >= 3 and all(change[1] > control[2] for change, control in seeds.values())
    print(f"claim rule over {len(seeds)} seeds: {'met' if met else 'not met'}")
    failed = [f"FAILED {name}: {tally.unexpected + tally.known} of {tally.attempted} ops failed"
              " the check" for name, tally in tallies.items() if tally.unexpected or tally.known]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
