#!/usr/bin/env python3
"""spinorspace benchmark.

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
`--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are the
ones BENCHMARK.json declares. A fuller record, environment included, is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HOST_NOTE = ("Effective CPU speed on this kind of shared host drifts between repeats, "
             "with process CPU time tracking wall time; compare medians over repeated "
             "runs, never single runs.")

# The traced phase records every span in memory; cap its ops so a run stays
# within a few tens of MB.
TRACED_OPS_CAP = 40_000
# Battery suites in the traced run, at a tenth of the acceptance counts.
TRACED_BATTERY = {"hopf": 1000, "covariance": 100, "so4": 1000, "ks": 1000, "gauge": 1000}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=("points", "frames", "battery", "fixtures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment(seed, traced):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "traced": bool(traced), "note": HOST_NOTE}


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "spinorspace").glob("*.py")))


def outcome(tally):
    figures = {"outcome.failed_share": tally.failed_share(),
               "outcome.worst_residual": tally.worst}
    for band, share in tally.band_shares().items():
        figures[f"outcome.band.{band}.failed_share"] = share
    return figures


def battery_timing(battery):
    import workloads
    nominal = sum(n for n, _ in workloads.BATTERY.values())
    best = battery.suite_seconds()
    wall = battery.suite_seconds(raw=True)
    per_sample = [best[s] / n * 1e6 for s, (n, _) in workloads.BATTERY.items()]
    figures = {f"verify.{s}.s": t for s, t in wall.items()}
    figures["verify.gate_use"] = battery.gate_use()
    timing = {
        "passes": min(len(t) for t in battery.times.values()),
        "throughput_per_s": nominal / sum(best.values()),
        "latency_p50_us": statistics.median(per_sample),
        "latency_p99_us": max(per_sample),
        "latency_ops": len(per_sample),
        "raw_throughput_per_s": nominal / sum(wall.values()),
    }
    return timing, figures


def untraced(name, seed, seconds, work):
    import workloads
    tally = workloads.Tally()
    setup, raw_setup = workloads.setup_probe_seconds(ROOT, name, work)
    if name == "battery":
        battery = workloads.Battery(seed)
        start = time.perf_counter()
        while True:
            battery.run_pass(tally)
            if time.perf_counter() - start >= seconds:
                break
        timing, figures = battery_timing(battery)
    else:
        workload = workloads.WORKLOADS[name](seed, work)
        try:
            if name == "fixtures":
                workload.cold_start(ROOT, tally)
            timing = workloads.timed_run(workload, seconds, tally)
            figures = workload.figures()
        finally:
            workload.close()
    figures.update(outcome(tally))
    timing["raw_setup_s"] = raw_setup
    metrics = {
        "setup_s": setup,
        "throughput_per_s": timing["throughput_per_s"],
        "latency_p50_us": timing["latency_p50_us"],
        "latency_p99_us": timing["latency_p99_us"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, figures, timing, tally


def traced(name, seed, seconds, work):
    import spans
    import workloads
    tally = workloads.Tally()
    tracer = spans.Tracer()
    figures = {"cli.import_numpy_ms": workloads.import_numpy_ms(ROOT),
               "src_lines": src_lines()}
    if name == "battery":
        acceptance = workloads.Battery(seed)
        acceptance.run_pass(tally)
        _, battery_figures = battery_timing(acceptance)
        figures.update(battery_figures)
        figures.update({f"verify.{check}.worst_residual": r
                        for check, r in acceptance.check_residuals().items()})
        walls = []
        for wrap in (None, tracer.root):
            small = workloads.Battery(seed, samples=TRACED_BATTERY)
            if wrap:
                tracer.install()
            try:
                small.run_pass(tally, wrap)
            finally:
                tracer.uninstall()
            walls.append(sum(sum(t) for t in small.times.values()))
        timing = {"passes": 1}
    else:
        workload = workloads.WORKLOADS[name](seed, work)
        try:
            if name == "fixtures":
                workload.cold_start(ROOT, tally)
            start = time.perf_counter()
            workloads.timed_run(workload, None, tally, passes=1)
            one_pass = time.perf_counter() - start
            passes = max(1, min(TRACED_OPS_CAP // workload.ops_per_pass,
                                int(0.25 * seconds / one_pass)))
            plain = workloads.timed_run(workload, None, tally, passes=passes)
            figures.update(workload.figures())
            tracer.install()
            try:
                chain = tracer.root(workload.chain())
                spanned = workloads.timed_run(workload, None, tally, chain=chain, passes=passes)
            finally:
                tracer.uninstall()
        finally:
            workload.close()
        walls = [plain["timed_s"], spanned["timed_s"]]
        timing = {"passes": passes}
    figures["trace_overhead_share"] = walls[1] / walls[0] - 1.0
    figures.update(outcome(tally))
    metrics = tracer.summary()
    metrics.update(figures)
    span_file = OUT / f"spans-{name}-seed{seed}.npz"
    tracer.save(span_file)
    timing["spans"] = len(tracer.start)
    timing["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, {}, timing, tally


def declared(group):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[group]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spinorspace" / "__init__.py").is_file():
        print(f"error: no spinorspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spinorspace
    if Path(spinorspace.__file__).resolve().parent != (SRC / "spinorspace").resolve():
        print(f"error: imported spinorspace from {spinorspace.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import bands
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = traced if args.trace else untraced
        values, figures, timing, tally = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, unit in declared(group):
        value = values.get(name, 0.0) if args.trace else values[name]
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.unexpected, "metrics": metrics}
    record = {"workload": args.workload, "environment": environment(args.seed, args.trace),
              "timing": timing, "figures": figures, "known_defects": tally.known,
              "known_defect_register": bands.KNOWN_DEFECTS, "result": result}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed {args.seed} {'traced' if args.trace else 'untraced'}")
    print("environment: " + json.dumps(record["environment"]))
    print("timing: " + json.dumps(timing))
    for name, m in list(metrics.items()) + [(k, {"value": v, "unit": ""})
                                             for k, v in figures.items()]:
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"check: correct={result['correct']} attempted={tally.attempted} "
          f"unexpected failures={tally.unexpected} known defects={tally.known} "
          f"failed_share={tally.failed_share():.4g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
