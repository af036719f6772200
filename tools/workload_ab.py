"""Time a perfbench workload's op list in one process on two source trees.

Loads perfbench/workloads.py (read, never changed) once per side with
`spinorspace` bound to that side's copy. A round's unit of work on a side is
one pass of a seed's workload, its cost the sum of its ops' latencies in ms;
each pass is then scored with the workload's own check, and if any op of any
side fails it, the tool exits 1. tools/ab.py runs the rounds and prints a row
a seed; the last line applies its claim rule over those rows. `fixtures` covers
the in-process batches only: the cold CLI spawns stay with perfbench. Beside its
seed row it prints the pass's generate, write, load and replay times in us a
record, read from the workload's own last_stages. A `battery` unit is one
run_pass of perfbench's own Battery at BATTERY_SAMPLES, its cost the sum of
that pass's raw_times (each suite's wall time, calibration probes left out).

usage: python tools/workload_ab.py PARENT_SRC [CHANGE_SRC]
                                   --workload points|frames|fixtures|battery
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
BATTERY_SAMPLES = None  # suite -> samples of a battery pass; None: the acceptance counts
STAGES = ("generate", "write", "load", "replay")  # a fixtures pass's, in last_stages' order


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


def pass_costs(workload, tally, row) -> dict:
    """One pass: {row: timed_pass}, and for fixtures each stage's us a record, from last_stages."""
    costs = {row: timed_pass(workload, tally)}
    for stage, ns in zip(STAGES, getattr(workload, "last_stages", ())):
        costs[f"{row} {stage} us/record"] = float(ns) / workload.ops_per_pass / 1e3
    return costs


def battery_pass(battery, tally) -> float:
    """One Battery.run_pass: the sum of its suites' raw times in ms; it scores into tally."""
    battery.run_pass(tally)
    return sum(times[-1] for times in battery.raw_times.values()) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=PERFBENCH.parent / "src")
    parser.add_argument("--workload", required=True,
                        choices=("points", "frames", "fixtures", "battery"))
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
                tally = tallies[f"seed {seed} {side}"] = module.Tally()
                if args.workload == "battery":
                    battery = module.Battery(seed, BATTERY_SAMPLES)
                    units.append(lambda b=battery, t=tally: {f"seed {seed}": battery_pass(b, t)})
                else:
                    workload = module.WORKLOADS[args.workload](
                        seed, Path(tempfile.mkdtemp(dir=tmp)))
                    if args.workload == "fixtures":
                        workload.cold_stdout.add(workload._convert_in_process()[1])
                    units.append(lambda w=workload, t=tally, row=f"seed {seed}":
                                 pass_costs(w, t, row))
            for side, seed_costs in zip(costs, ab.measure(units, args.rounds)):
                side.update(seed_costs)
    print(f"workload {args.workload}, {args.rounds} rounds a seed")
    rows = ab.table("pass ms", costs)
    seeds = [rows[f"seed {seed}"] for seed in args.seeds]
    met = len(seeds) >= 3 and all(change[1] > control[2] for change, control in seeds)
    print(f"claim rule over {len(seeds)} seeds: {'met' if met else 'not met'}")
    failed = [f"FAILED {name}: {tally.unexpected + tally.known} of {tally.attempted} ops failed"
              " the check" for name, tally in tallies.items() if tally.unexpected or tally.known]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
