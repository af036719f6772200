"""Set-up probe: a fresh interpreter imports spinorspace and completes one op.

Usage: python probe.py <workload> <scratch dir>, with the checkout's `src`
on PYTHONPATH. The parent times the whole process, interpreter start
included; that wall time is one sample of `setup_s`. After the op the probe
runs the calibration kernel and prints its time and its own run time, so the
parent can state the sample at the reference speed of the CPU it ran on.
"""

import sys
import time
from pathlib import Path

import spinorspace as ss


def points():
    xi = ss.xi_from_cartesian((1.0, -2.0, 0.5), -1)
    ss.project_xi(ss.rotate_spinor(ss.SpinorRotation(0.5, 0.5, 0.5, 0.5), xi))
    ss.project_eta(ss.eta_from_xi(xi))


def frames():
    psi = ss.psi_from_direction((0.6, 0.0, 0.8), 0.3)
    ss.stabilizer_check(psi, 1)
    ss.canonical_phase_plus(psi)
    ss.build_frame(ss.KSQuadruple(0.3, 0.5, -0.4, 0.2), (0.0, 0.6, 0.8), 0.1)


def battery():
    ss.run_suite("hopf", 1)


def fixtures(scratch):
    path = Path(scratch) / "probe.jsonl"
    ss.write_fixtures(ss.generate_fixtures(1), path)
    ss.replay_fixtures(ss.load_fixtures(path))
    path.unlink()


if __name__ == "__main__":
    workload = sys.argv[1]
    if workload == "fixtures":
        fixtures(sys.argv[2])
    else:
        {"points": points, "frames": frames, "battery": battery}[workload]()
    start = time.perf_counter()
    import speed
    kernel_ns = speed.kernel_ns()
    print(kernel_ns, time.perf_counter() - start)
