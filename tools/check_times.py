"""Print the time of each verification check at the acceptance sample counts.

A round's unit of work runs the five suites at the sample counts of
tests/test_acceptance.py, seed 42. Its rows: each check's and each suite's
time in ms, and the suites' sum; each suite's us per nominal sample, with
their median (p50) and largest (p99), the figures behind perfbench `battery`'s
latency_p50_us and latency_p99_us; and the battery figure, the suites' 41,000
samples over the sum in thousands a second (its ratios are the sum's). Given
one tree, the last row is the growth of the process's peak RSS over the
rounds. tools/ab.py runs the rounds and prints the rows.

usage: python tools/check_times.py [SRC_DIR]   (default: the src/ beside tools/)
       python tools/check_times.py PARENT_SRC CHANGE_SRC
"""

import resource
import statistics
import sys
import tempfile
from pathlib import Path

import ab

ACCEPTANCE = {"hopf": 10_000, "covariance": 1_000, "so4": 10_000, "ks": 10_000, "gauge": 10_000}
TOTAL, BATTERY = "total", "battery    k samples / s over the suite sum"


def unit(package):
    """One round's unit of work on package: {row: cost} of every check, suite and sum."""
    def run():
        checks, suites = {}, {}
        for suite, samples in ACCEPTANCE.items():
            report = package.run_suite(suite, samples, seed=42)
            suites[f"{'suite':10s} {suite:32s} {samples:6d}"] = report.elapsed * 1e3
            for c in report.checks:
                checks[f"{suite:10s} {c.name:32s} {c.samples:6d}"] = c.elapsed * 1e3
        per_sample = {f"{'us/sample':10s} {suite:32s} {n:6d}": ms / n * 1e3
                      for (suite, n), ms in zip(ACCEPTANCE.items(), suites.values())}
        total = sum(suites.values())
        return {**checks, **suites, TOTAL: total, **per_sample,
                "us/sample  p50: median of the suites": statistics.median(per_sample.values()),
                "us/sample  p99: max of the suites": max(per_sample.values()), BATTERY: total}
    return run


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 2:
        print("usage: python tools/check_times.py [SRC_DIR | PARENT_SRC CHANGE_SRC]",
              file=sys.stderr)
        return 2
    trees = args or [Path(__file__).resolve().parents[1] / "src"]
    with tempfile.TemporaryDirectory() as tmp:
        units = [unit(package) for package in ab.sides(trees, Path(tmp))]
        start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        costs = ab.measure(units, ab.ROUNDS)
        growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start) / 1024
    for tree in trees:
        print(f"package  {Path(tree).resolve() / 'spinorspace'}")
    ab.table("ms, or us a sample", costs,
             {BATTERY: [[sum(ACCEPTANCE.values()) / ms for ms in side[TOTAL]] for side in costs]})
    rss = f"{growth:9.2f} MB" if len(costs) == 1 else "not attributable to one side"
    print(f"{'peak RSS':10s} {'growth over the rounds':32s} {'':6s} {rss}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
