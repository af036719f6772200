"""Print the time of each verification check at the acceptance sample counts.

Runs the five suites at the sample counts of tests/test_acceptance.py (10^3
for covariance, 10^4 for the others) with seed 42, REPEATS times, and prints
the median CheckResult.elapsed of each check in ms, then each suite's median
report time, and the median over the repeats of the five suites' summed time.
Then each suite's time per nominal sample in us, and per repeat the median and
the largest of these over the five suites: the figures behind perfbench
`battery`'s latency_p50_us and latency_p99_us, which take them over each suite's
median time.
Each row shows its fastest and slowest repeat beside the median, so the spread
of the host's speed is on the page: a change smaller than that spread is not
resolved. Then comes the battery figure: the 41,000 samples of the five
suites over the median sum, in samples per second, which sizes the `battery`
workload's throughput in-process. The last row is the growth of the process's
peak RSS (ru_maxrss) from before the first repeat to after the last, in MB:
the memory the suites' arrays take at their largest, beside their time.

Given two trees, it copies each tree's package into a temporary directory
under its own name, as tools/scalar_ab.py does, imports both, and runs them
in turn within each repeat, the side that goes first alternating from repeat
to repeat. Each row then shows the parent's median, the change's median and
the speedup: parent over change, and change over parent for the battery
figure. Both trees share one process and one heap there, so the last row
says that RSS cannot be attributed to either tree. It needs only the
standard library and the package (and numpy, which the package imports).
Timings are raw wall time.

usage: python tools/check_times.py [SRC_DIR]   (default: the src/ beside tools/)
       python tools/check_times.py PARENT_SRC CHANGE_SRC
"""

from __future__ import annotations

import resource
import statistics
import sys
import tempfile
from pathlib import Path

from scalar_ab import load

ACCEPTANCE = {"hopf": 10_000, "covariance": 1_000, "so4": 10_000, "ks": 10_000, "gauge": 10_000}
REPEATS = 5


def timings(packages) -> tuple:
    """Per package, {row: [seconds per repeat]} for each check and each suite;
    and the growth of the process's peak RSS over the repeats, in MB."""
    start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [{} for _ in packages]
    for repeat in range(REPEATS):
        order = range(len(packages)) if repeat % 2 == 0 else reversed(range(len(packages)))
        for side in order:
            for suite, samples in ACCEPTANCE.items():
                report = packages[side].run_suite(suite, samples, seed=42)
                times[side].setdefault(("suite", suite, samples), []).append(report.elapsed)
                for c in report.checks:
                    times[side].setdefault((suite, c.name, c.samples), []).append(c.elapsed)
    return times, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start) / 1024


def report(times, rss_growth) -> None:
    """Print each check, then each suite, then the suite sum, each suite's us per
    sample with their p50 and p99, the battery figure and the peak-RSS growth; each
    time as its median [fastest, slowest] over the repeats."""
    for side in times:
        suites = [t for row, t in side.items() if row[0] == "suite"]
        side[("total", "", "")] = [sum(repeat) for repeat in zip(*suites)]
    rows = sorted(times[0], key=lambda row: ("suite", "total").index(row[0]) + 1
                  if row[0] in ("suite", "total") else 0)
    if len(times) == 2:
        print(f"{'':50s} {'parent ms [min, max]':>27s} {'change ms [min, max]':>27s}"
              f" {'speedup':>7s}")
    for group, name, samples in rows:
        _row(group, name, samples, [[t * 1e3 for t in side[(group, name, samples)]]
                                    for side in times])
    per_sample = [{suite: [t / n * 1e6 for t in side[("suite", suite, n)]]
                   for suite, n in ACCEPTANCE.items()} for side in times]
    for suite, n in ACCEPTANCE.items():
        _row("us/sample", suite, n, [side[suite] for side in per_sample])
    for label, pick in (("p50", statistics.median), ("p99", max)):
        _row("us/sample", f"{label}: {pick.__name__} of the suites", "",
             [[pick(repeat) for repeat in zip(*side.values())] for side in per_sample])
    battery = [sum(ACCEPTANCE.values()) / statistics.median(side[("total", "", "")])
               for side in times]
    ratio = f" {battery[1] / battery[0]:6.2f}x" if len(battery) == 2 else ""
    print(f"{'battery':10s} {'samples / median suite sum':32s} {'':6s}"
          + "".join(f" {b:17,.0f} /s    " for b in battery) + ratio)
    rss = (f"{rss_growth:17.2f} MB" if len(times) == 1
           else "not attributable: both trees share one process")
    print(f"{'peak RSS':10s} {'growth over the repeats':32s} {'':6s} {rss}")


def _row(group, name, samples, values) -> None:
    """Print one row: each side's median [fastest, slowest] of values, then the speedup."""
    medians = [statistics.median(v) for v in values]
    cells = "".join(f" {m:9.2f} [{min(v):7.2f},{max(v):7.2f}]" for m, v in zip(medians, values))
    ratio = f" {medians[0] / medians[1]:6.2f}x" if len(medians) == 2 else ""
    print(f"{group:10s} {name:32s} {samples!s:>6s}{cells}{ratio}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 2:
        print("usage: python tools/check_times.py [SRC_DIR | PARENT_SRC CHANGE_SRC]",
              file=sys.stderr)
        return 2
    trees = [Path(a) for a in args] or [Path(__file__).resolve().parents[1] / "src"]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        names = ["spinorspace_parent", "spinorspace_change"] if len(trees) == 2 else ["spinorspace"]
        packages = [load(tree.resolve(), name, Path(tmp)) for tree, name in zip(trees, names)]
        for tree in trees:
            print(f"package  {tree.resolve() / 'spinorspace'}")
        report(*timings(packages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
