"""Print the time of each verification check at the acceptance sample counts.

Runs the five suites at the sample counts of tests/test_acceptance.py (10^3
for covariance, 10^4 for the others) with seed 42, REPEATS times, and prints
the median CheckResult.elapsed of each check in ms, then each suite's median
report time and their sum. It needs only the standard library and the
package (and numpy, which the package imports). Timings are raw wall time,
so compare trees with alternating runs on one host.

usage: python tools/check_times.py [SRC_DIR]   (default: the src/ beside tools/)
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ACCEPTANCE = {"hopf": 10_000, "covariance": 1_000, "so4": 10_000, "ks": 10_000, "gauge": 10_000}
REPEATS = 5


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import spinorspace

    checks, suites = {}, {}
    for _ in range(REPEATS):
        for suite, samples in ACCEPTANCE.items():
            report = spinorspace.run_suite(suite, samples, seed=42)
            suites.setdefault(suite, []).append(report.elapsed)
            for c in report.checks:
                checks.setdefault((suite, c.name, c.samples), []).append(c.elapsed)
    print(f"package  {Path(spinorspace.__file__).parent}")
    for (suite, name, samples), times in checks.items():
        print(f"{suite:10s} {name:32s} {samples:6d} {statistics.median(times) * 1e3:9.2f} ms")
    for suite, times in suites.items():
        ms = statistics.median(times) * 1e3
        print(f"{'suite':10s} {suite:32s} {ACCEPTANCE[suite]:6d} {ms:9.2f} ms")
    total = sum(statistics.median(times) for times in suites.values())
    print(f"{'total':10s} {'':32s} {'':6s} {total * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
