"""The four workloads: what one op is, how a pass runs, how outputs are checked.

Load model: one process, one thread, a closed loop with a single caller that
waits for each result. Every library call goes through an attribute of the
`spinorspace` package at call time, so the traced run sees it once the
tracer has rebound the package's names.

A pass runs a workload's fixed op list once, in about a quarter of a second.
Calibration probes run during each pass (speed.py), and its times are stated
at the reference speed. Output checks run after each pass, outside the timed
region, and cover every pass.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import spinorspace as ss
import spinorspace.cli  # binds ss.cli, which the package does not import

import bands
import speed
from reference import (
    CONTRACT,
    apply,
    b_matrices,
    column,
    dagger,
    eta_bilinears,
    eta_of_xi,
    hat,
    inf_norm,
    pauli_vectors,
    residual,
    so3_matrices,
    storage,
    unit_spinors,
    xi_bilinears,
)

# Chart weights around the 1e-12 guard of the canonical gauges where either
# outcome (raise or a valid gauge) is accepted: the weight the library sees
# is rounded, and near a pole it carries the known cancellation error.
SINGULAR_WINDOW = (0.5e-12, 2e-12)

# Acceptance battery: suite -> (nominal samples, gate in seconds or None),
# as in tests/test_acceptance.py. The five-suite sum has its own gate.
BATTERY = {"hopf": (10_000, 1.0), "covariance": (1_000, 1.0), "so4": (10_000, None),
           "ks": (10_000, 2.0), "gauge": (10_000, 2.0)}
BATTERY_SUM_GATE = 10.0
# Criterion thresholds beyond the 1e-12 contract (criteria 3 and 6).
TIGHT_CHECKS = {"bridge_involution": 1e-14, "bridge_quadruple_route": 1e-14,
                "double_cover_sign": 1e-13}


@dataclass
class Tally:
    """Outcome counts over every op a run attempted."""

    attempted: int = 0
    unexpected: int = 0
    known: int = 0
    worst: float = 0.0
    band_attempted: np.ndarray = field(default_factory=lambda: np.zeros(len(bands.BANDS)))
    band_failed: np.ndarray = field(default_factory=lambda: np.zeros(len(bands.BANDS)))

    def add(self, failed, known, worst_passing, band=None):
        failed = np.asarray(failed, dtype=bool)
        known = np.asarray(known, dtype=bool) & failed
        self.attempted += failed.size
        self.known += int(known.sum())
        self.unexpected += int((failed & ~known).sum())
        self.worst = max(self.worst, worst_passing)
        if band is not None:
            self.band_attempted += np.bincount(band, minlength=len(bands.BANDS))
            self.band_failed += np.bincount(band[failed], minlength=len(bands.BANDS))

    def fail(self, count=1):
        self.attempted += count
        self.unexpected += count

    def ok(self, count=1, worst=0.0):
        self.attempted += count
        self.worst = max(self.worst, worst)

    def failed_share(self):
        return (self.known + self.unexpected) / max(self.attempted, 1)

    def band_shares(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(self.band_attempted > 0,
                             self.band_failed / np.maximum(self.band_attempted, 1), 0.0)
        return {b: float(s) for b, s in zip(bands.BANDS, share)}


def _verdict(worst, failed, defect, tally, band=None):
    worst = np.where(failed, 0.0, worst)
    tally.add(failed, defect, float(np.max(worst, initial=0.0)), band)


class PassWorkload:
    """A fixed op list run in passes; subclasses define the pass and its check."""

    ops_per_pass = 0

    def run_pass(self, chain):
        """Returns (latency in ns of each op, the ops' outputs)."""
        raise NotImplementedError

    def check(self, outputs, tally):
        raise NotImplementedError

    def chain(self):
        """The callable one op (or batch) of the pass loop runs."""
        raise NotImplementedError

    def record(self, factor):
        """Take the speed factor of the pass that just ran."""

    def figures(self):
        """Workload-specific figures measured beside the op loop."""
        return {}

    def close(self):
        pass


# Untimed ops run at the start of every pass: the check between passes leaves
# the caches cold, which would otherwise put the first ops into the tail.
WARMUP_OPS = 16


def _op_loop(ops, chain):
    for op in ops[:WARMUP_OPS]:
        try:
            chain(op)
        except Exception:  # scored when the op runs timed
            pass
    clock = time.perf_counter_ns
    samples = np.empty(len(ops), dtype=np.int64)
    outputs = [None] * len(ops)
    for i, op in enumerate(ops):
        start = clock()
        try:
            outputs[i] = chain(op)
        except Exception as exc:  # the check scores it; the loop must go on
            outputs[i] = exc.with_traceback(None)
        samples[i] = clock() - start
    return samples, outputs


# --------------------------------------------------------------------- points

def point_chain(op):
    """construct -> project_xi/project_eta -> eta_from_xi/u_to_v -> rotate_spinor."""
    system, values, sheet, rotation, point = op
    if system == 0:
        xi = ss.xi_from_cartesian(values, sheet)
        eta = ss.eta_from_cartesian(values, sheet)
    elif system == 1:
        where = ss.SphericalPoint(*values)
        xi = ss.xi_from_spherical(where)
        eta = ss.eta_from_spherical(where)
    else:
        where = ss.ParabolicPoint(*values)
        xi = ss.xi_from_parabolic(where)
        eta = ss.eta_from_parabolic(where)
    r, x = ss.project_xi(xi)
    eta_projection = ss.project_eta(eta)
    bridged = ss.eta_from_xi(xi)
    v = ss.u_to_v(ss.quadruple_from_spinor(xi))
    turned = ss.rotate_spinor(rotation, xi)
    _, x_turned = ss.project_xi(turned)
    vector_path = ss.so3_from_rotation(rotation) @ point
    return xi, eta, r, x, eta_projection, bridged, v, turned, x_turned, vector_path


class Points(PassWorkload):
    ops_per_pass = 5000

    def __init__(self, seed, workdir):
        self.data = d = bands.points_inputs(seed, self.ops_per_pass)
        self.ops = [(int(s), tuple(float(v) for v in vals), int(sh), ss.SpinorRotation(*rot), p)
                    for s, vals, sh, rot, p in zip(d["system"], d["values"], d["sheet"],
                                                   d["rotation"], d["point"])]
        point = d["point"]
        self.scale_x = inf_norm(point)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.radius = self.scale_x * np.linalg.norm(point / self.scale_x[:, None], axis=1)
        self.scale_xi = np.sqrt(2.0 * self.radius)
        self.rotated = np.einsum("nkl,nl->nk", so3_matrices(d["rotation"]), point)
        self.b = b_matrices(d["rotation"])

    def chain(self):
        return point_chain

    def run_pass(self, chain):
        return _op_loop(self.ops, chain)

    def check(self, outputs, tally):
        n = len(outputs)
        raised = np.zeros(n, dtype=bool)
        xi = np.zeros((n, 2), dtype=complex)
        eta = np.zeros((n, 2), dtype=complex)
        bridged = np.zeros((n, 2), dtype=complex)
        turned = np.zeros((n, 2), dtype=complex)
        r = np.zeros(n)
        vecs = np.zeros((n, 5, 3))  # x, eta x, eta a, x of turned, O x
        v = np.zeros((n, 4))
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                raised[i] = True
                continue
            s_xi, s_eta, r[i], x, p, s_br, q_v, s_tu, x_tu, ox = out
            xi[i] = s_xi.c1, s_xi.c2
            eta[i] = s_eta.c1, s_eta.c2
            bridged[i] = s_br.c1, s_br.c2
            turned[i] = s_tu.c1, s_tu.c2
            vecs[i] = x, p.x, p.a, x_tu, ox
            v[i] = q_v.as_tuple()
        d = self.data
        sx, sxi = self.scale_x, self.scale_xi
        eta_a, _ = eta_bilinears(eta)
        bridge_ref = eta_of_xi(xi)
        worst = np.max(np.stack([
            residual(vecs[:, 0], d["point"], sx),
            residual(r[:, None], self.radius[:, None], self.radius),
            residual(vecs[:, 1], d["point"], sx),
            residual(vecs[:, 2], eta_a, sx),
            residual(bridged, bridge_ref, sxi),
            residual(v, storage(bridge_ref), sxi),
            residual(turned, apply(self.b, xi), sxi),
            residual(vecs[:, 3], self.rotated, sx),
            residual(vecs[:, 4], self.rotated, sx),
        ]), axis=0)
        failed = raised | (worst > CONTRACT)
        _verdict(worst, failed, d["defect"], tally, d["band"])


# --------------------------------------------------------------------- frames

# Exceptions kept as outputs drop their tracebacks: a traceback holds frames in
# a reference cycle, and cycles wait for the collector, paused during a pass.
def _gauge_or_singular(make, psi):
    try:
        return make(psi)
    except ss.SingularGaugeError as exc:
        return exc.with_traceback(None)


def frame_chain(op):
    """Unit spinor: psi -> canonical gauges -> gauges -> rotation_between ->
    stabilizer; KS quadruple: direction -> frame -> symmetry -> transport ->
    rotated direction."""
    n, gamma, phase, other, sign, q, partner, axis, delta, rotation = op
    psi = ss.psi_from_direction(n, gamma)
    plus = _gauge_or_singular(ss.canonical_phase_plus, psi)
    minus = _gauge_or_singular(ss.canonical_phase_minus, psi)
    g_plus = ss.gauge_plus(psi, phase)
    g_minus = ss.gauge_minus(psi, phase)
    between = ss.rotation_between(psi, other)
    stabilizer = ss.stabilizer_check(psi, sign)
    direction = ss.direction_from_ks(q)
    try:
        frame = ss.build_frame(q, axis, delta)
    except ss.SingularGaugeError as exc:
        frame = exc.with_traceback(None)
    symmetry = ss.frame_symmetry(q, partner, delta)
    moved = ss.left_transport(rotation, q)
    turned = None
    if not isinstance(frame, Exception):
        turned = ss.rotated_direction(frame.w, rotation, n)
    return (psi, plus, minus, g_plus, g_minus, between, stabilizer, direction,
            frame, symmetry, moved, turned)


def _wrap_4pi(a):
    a = np.mod(a, 4.0 * math.pi)
    return np.where(a > 2.0 * math.pi, a - 4.0 * math.pi, a)


def _raise_expected(weight, raised):
    """Score a singular-chart outcome: 0 when correct, inf when not."""
    must = weight < SINGULAR_WINDOW[0]
    may = weight <= SINGULAR_WINDOW[1]
    return np.where((raised & ~may) | (~raised & must), np.inf, 0.0)


class Frames(PassWorkload):
    ops_per_pass = 1000

    def __init__(self, seed, workdir):
        self.data = d = bands.frames_inputs(seed, self.ops_per_pass)
        self.ops = []
        for i in range(self.ops_per_pass):
            other = d["other"][i]
            self.ops.append((
                tuple(float(v) for v in d["direction"][i]), float(d["gamma"][i]),
                float(d["phase"][i]), ss.Spinor(complex(other[0]), complex(other[1])),
                int(d["sign"][i]), ss.KSQuadruple(*d["quadruple"][i]),
                ss.KSQuadruple(*d["partner"][i]), tuple(float(v) for v in d["axis"][i]),
                float(d["delta"][i]), ss.SpinorRotation(*d["rotation"][i])))
        self._references()

    def _references(self):
        d = self.data
        n = d["direction"]
        on_axis = (n[:, 0] == 0.0) & (n[:, 1] == 0.0)
        gamma = _wrap_4pi(d["gamma"])
        principal = d["azimuth"]
        partner = _wrap_4pi(principal + 2.0 * math.pi)
        gap = np.abs(_wrap_4pi(partner - gamma)) - np.abs(_wrap_4pi(principal - gamma))
        self.psi_ref = unit_spinors(d["theta"], np.where(on_axis, gamma, principal))
        # The lift closer to the requested phase wins; the partner lift is the
        # same spinor negated. Near a tie either is accepted.
        self.lift_sign = np.where(on_axis | (gap > 1e-9), 1.0, np.where(gap < -1e-9, -1.0, 0.0))
        unit = d["quadruple"] / np.linalg.norm(d["quadruple"], axis=1, keepdims=True)
        partner_unit = d["partner"] / np.linalg.norm(d["partner"], axis=1, keepdims=True)
        turn = np.stack([np.cos(d["delta"]), np.zeros(len(unit)), np.zeros(len(unit)),
                         np.sin(d["delta"])], axis=1)
        self.sym_right = b_matrices(hat(unit)) @ b_matrices(turn)
        self.sym_target = b_matrices(hat(partner_unit))
        self.moved_ref = storage(apply(b_matrices(d["rotation"]), column(d["quadruple"])))
        self.scale_q = inf_norm(d["quadruple"])
        self.o_rot = so3_matrices(d["rotation"])
        self.axis_sigma = pauli_vectors(d["axis"])
        self.minus_n_sigma = -pauli_vectors(n)

    def chain(self):
        return frame_chain

    def run_pass(self, chain):
        return _op_loop(self.ops, chain)

    def check(self, outputs, tally):
        d = self.data
        count = len(outputs)
        raised = np.zeros(count, dtype=bool)
        psi = np.zeros((count, 2), dtype=complex)
        gauges = np.zeros((count, 2, 4))  # plus, minus rotation
        gamma = np.zeros((count, 2))
        cvec = np.zeros((count, 2, 3))
        singular = np.zeros((count, 3), dtype=bool)  # plus, minus, frame
        rots = np.zeros((count, 5, 4))  # g_plus, g_minus, between, stabilizer, symmetry
        direction = np.zeros((count, 2, 3))  # direction_from_ks, frame.direction
        w = np.zeros((count, 4))
        moved = np.zeros((count, 4))
        turned = np.zeros((count, 3))
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                raised[i] = True
                continue
            s, plus, minus, g_p, g_m, btw, stab, dirn, frame, sym, mv, tu = out
            psi[i] = s.c1, s.c2
            for k, gauge in enumerate((plus, minus)):
                if isinstance(gauge, Exception):
                    singular[i, k] = True
                else:
                    gauges[i, k] = gauge.rotation.as_tuple()
                    gamma[i, k] = gauge.gamma
                    cvec[i, k] = gauge.vector_parameter
            rots[i] = (g_p.as_tuple(), g_m.as_tuple(), btw.as_tuple(), stab.as_tuple(),
                       sym.as_tuple())
            direction[i, 0] = dirn
            if isinstance(frame, Exception):
                singular[i, 2] = True
            else:
                direction[i, 1] = frame.direction
                w[i] = frame.w.as_tuple()
                turned[i] = tu
            moved[i] = mv.as_tuple()

        psi_fit = np.minimum(residual(psi, self.psi_ref), residual(psi, -self.psi_ref))
        psi_res = np.where(self.lift_sign == 0.0, psi_fit,
                           residual(psi, self.lift_sign[:, None] * self.psi_ref))
        zero = np.zeros(count)
        half = 0.5 * d["phase"]
        scores = [psi_res]
        for k, (weight, slot) in enumerate(((d["plus_weight"], 0), (d["minus_weight"], 1))):
            ok = ~singular[:, k]
            h = 0.5 * gamma[:, k]
            want = (np.stack([np.exp(-1.0j * h), zero], axis=1) if slot == 0
                    else np.stack([zero, np.exp(1.0j * h)], axis=1))
            got = apply(b_matrices(gauges[:, k]), psi)
            chart = np.maximum.reduce([
                residual(got, want), np.abs(gauges[:, k, 3]),
                residual(cvec[:, k] * gauges[:, k, :1], gauges[:, k, 1:])])
            scores.append(np.maximum(_raise_expected(weight, singular[:, k]),
                                     np.where(ok, chart, 0.0)))
        scores.append(residual(apply(b_matrices(rots[:, 0]), psi),
                               np.stack([np.exp(-1.0j * half), zero], axis=1)))
        scores.append(residual(apply(b_matrices(rots[:, 1]), psi),
                               np.stack([zero, np.exp(1.0j * half)], axis=1)))
        scores.append(residual(apply(b_matrices(rots[:, 2]), psi), d["other"]))
        exact = np.zeros((count, 4))
        exact[:, 0] = d["sign"]
        scores.append(np.where(np.all(rots[:, 3] == exact, axis=1), 0.0, np.inf))
        scores.append(residual(direction[:, 0], d["direction"]))

        framed = ~singular[:, 2]
        w_unit = w / np.where(framed, np.linalg.norm(w, axis=1), 1.0)[:, None]
        b_w = b_matrices(hat(w_unit))
        conj = b_w @ self.axis_sigma @ dagger(b_w)
        o_w = so3_matrices(hat(w_unit))
        turned_ref = np.einsum("nij,njk,nlk,nl->ni", o_w, self.o_rot, o_w, d["direction"])
        frame_score = np.maximum.reduce([
            residual(direction[:, 1], d["direction"]),
            residual(conj, self.minus_n_sigma),
            residual(turned, turned_ref)])
        scores.append(np.maximum(_raise_expected(d["axis_weight"], singular[:, 2]),
                                 np.where(framed, frame_score, 0.0)))
        scores.append(residual(b_matrices(rots[:, 4]) @ self.sym_right, self.sym_target))
        scores.append(residual(moved, self.moved_ref, self.scale_q))
        worst = np.max(np.stack(scores), axis=0)
        failed = raised | (worst > CONTRACT)
        _verdict(worst, failed, d["defect"], tally, d["band"])


# ------------------------------------------------------------------- fixtures

# generate_fixtures cycles through seven record kinds by index, so a batch of
# 35 holds five records of each kind. Batches this size keep the per-file
# open/close cost, the noisiest part of a write, a small share of a record.
RECORDS_PER_BATCH = 35
BATCHES_PER_PASS = 36
COLD_SPAWNS = 6


class Fixtures(PassWorkload):
    """Record round trips: generate -> write -> load -> replay, 35 records a batch.

    The latency sample of a batch is its time over its record count. The first
    batch of a pass also runs one in-process `convert`, untimed, whose stdout
    must match the cold `python -m spinorspace convert` spawns byte for byte.
    """

    ops_per_pass = RECORDS_PER_BATCH * BATCHES_PER_PASS

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, BATCHES_PER_PASS)]
        self.paths = [workdir / f"batch{b}.jsonl" for b in range(BATCHES_PER_PASS)]
        point = rng.uniform(-2.0, 2.0, 3)
        self.convert_args = (["convert", "spherical"]
                             + [repr(float(abs(point[0]))), repr(float(rng.uniform(0.0, math.pi))),
                                repr(float(point[2]))]
                             + ["--model", "eta" if seed % 2 else "xi"])
        self.first_bytes = None
        self.stage_ns = np.zeros(4)
        self.last_stages = np.zeros(4)
        self.stage_records = 0
        self.cold = []
        self.cold_stdout = set()

    def chain(self):
        return self.batch

    def _convert_in_process(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = ss.cli.main(list(self.convert_args))
        return code, buffer.getvalue().encode()

    def cold_start(self, root, tally):
        """Time cold `convert` spawns; their stdout must be identical."""
        cmd = [sys.executable, "-m", "spinorspace"] + self.convert_args
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for _ in range(COLD_SPAWNS):
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
            self.cold.append(time.perf_counter() - start)
            self.cold_stdout.add(done.stdout if done.returncode == 0 else b"exit %d" % done.returncode)
        code, stdout = self._convert_in_process()
        self.cold_stdout.add(stdout if code == 0 else b"exit %d" % code)
        if len(self.cold_stdout) == 1:
            tally.ok(COLD_SPAWNS)
        else:
            tally.fail(COLD_SPAWNS)

    def batch(self, seed, path, convert):
        """One batch round trip; returns the four stage times and the outputs."""
        clock = time.perf_counter_ns
        t0 = clock()
        records = ss.generate_fixtures(RECORDS_PER_BATCH, seed)
        t1 = clock()
        ss.write_fixtures(records, path)
        t2 = clock()
        loaded = ss.load_fixtures(path)
        t3 = clock()
        report = ss.replay_fixtures(loaded)
        t4 = clock()
        return ((t1 - t0, t2 - t1, t3 - t2, t4 - t3), records, loaded, report,
                path.read_bytes(), self._convert_in_process() if convert else None)

    def run_pass(self, chain):
        samples = np.empty(BATCHES_PER_PASS, dtype=np.int64)
        stages = np.zeros(4, dtype=np.int64)
        outputs = []
        chain(self.seeds[-1], self.paths[-1], False)  # untimed warm-up, as in _op_loop
        for b, (seed, path) in enumerate(zip(self.seeds, self.paths)):
            stage, *out = chain(seed, path, b == 0)
            stages += stage
            samples[b] = sum(stage) // RECORDS_PER_BATCH
            outputs.append(out)
        self.last_stages = stages
        return samples, outputs

    def record(self, factor):
        self.stage_ns += self.last_stages * factor
        self.stage_records += self.ops_per_pass

    def check(self, outputs, tally):
        if self.first_bytes is None:
            self.first_bytes = [o[3] for o in outputs]
        records = [r for o in outputs for r in o[0]]
        failed = np.zeros(len(records), dtype=bool)
        for b, (recs, loaded, report, data, convert) in enumerate(outputs):
            code, stdout = convert or (0, None)
            # Equal seeds must give equal bytes; load must give the records back.
            bad = (data != self.first_bytes[b] or loaded != recs or not report.passed
                   or report.max_residual > CONTRACT or code != 0
                   or (convert is not None and stdout not in self.cold_stdout))
            if bad:
                failed[b * RECORDS_PER_BATCH:(b + 1) * RECORDS_PER_BATCH] = True
        worst = _record_residuals(records)
        failed |= worst > CONTRACT
        _verdict(worst, failed, np.zeros(len(records), dtype=bool), tally)

    def figures(self):
        per = self.stage_ns / max(self.stage_records, 1) / 1e3
        return {
            "fixtures.generate.us_per_record": float(per[0]),
            "fixtures.write.us_per_record": float(per[1]),
            "fixtures.load.us_per_record": float(per[2]),
            "fixtures.replay.us_per_record": float(per[3]),
            "fixtures.write_records_per_s": float(1e6 / (per[0] + per[1])),
            "fixtures.replay_records_per_s": float(1e6 / (per[2] + per[3])),
            "cli.cold_start_ms": float(statistics.median(self.cold) * 1e3) if self.cold else 0.0,
        }

    def close(self):
        for path in self.paths:
            path.unlink(missing_ok=True)


def _record_point(record):
    system, (a, b, c) = record["system"], record["values"]
    if system == "cartesian":
        return np.array([a, b, c])
    if system == "spherical":
        return a * np.array([math.sin(b) * math.cos(c), math.sin(b) * math.sin(c), math.cos(b)])
    if system == "parabolic":
        return np.array([a * b * math.cos(c), a * b * math.sin(c), 0.5 * (a - b) * (a + b)])
    return None


def _record_residuals(records):
    """Each record against its own input: the point, or the direction."""
    worst = np.zeros(len(records))
    for i, rec in enumerate(records):
        (a, b), (c, e) = rec["spinor"]
        col = np.array([[complex(a, b), complex(c, e)]])
        r, x = xi_bilinears(col)
        quad = storage(col)
        stored_x = np.array([rec["projection"]["x"]])
        scores = [residual(np.array([rec["quadruple"]]), quad),
                  residual(np.array([[rec["projection"]["r"]]]), r[:, None])]
        if rec["system"] == "direction":
            n = np.array([rec["values"][:3]])
            scores += [residual(2.0 * x, n), residual(stored_x, x)]
        else:
            point = _record_point(rec)[None, :]
            scale = inf_norm(point)
            if rec["model"] == "eta":
                a_ref, x_ref = eta_bilinears(col)
                scores += [residual(np.array([rec["projection"]["a"]]), a_ref, scale)]
            else:
                x_ref = x
            scores += [residual(x_ref, point, scale), residual(stored_x, point, scale)]
        worst[i] = max(float(s[0]) for s in scores)
    return worst


# -------------------------------------------------------------------- battery

class Battery:
    """run_suite for all five suites at acceptance counts, plus the certificates.

    A pass calls each suite once, in a fixed order, with calibration probes
    during each call (speed.Sampled); a suite's time is the median of its
    calls. The suites draw from the benchmark seed.
    """

    def __init__(self, seed, samples=None):
        self.seed = seed
        self.samples = samples or {s: n for s, (n, _) in BATTERY.items()}
        self.times = {s: [] for s in BATTERY}
        self.raw_times = {s: [] for s in BATTERY}
        self.reports = {}

    def run_pass(self, tally, wrap=None):
        for suite in BATTERY:
            call = (lambda s=suite: ss.run_suite(s, self.samples[s], self.seed, CONTRACT))
            with speed.Sampled() as sampled:
                report = wrap(call)() if wrap else call()
            at_reference, raw = sampled.seconds()
            self.raw_times[suite].append(raw)
            self.times[suite].append(at_reference)
            self._check(suite, report, tally)
        scan = ss.s_factorization_check()
        cert = ss.s_outside_su2_image()
        quarter = math.pi / 4.0
        ok = (scan.best_angles == (quarter, quarter) and scan.best_residual <= 1e-15
              and abs(cert.residual - math.sqrt(2.0)) <= CONTRACT and cert.residual > 0.1)
        if ok:
            tally.ok(2)
        else:
            tally.fail(2)

    def _check(self, suite, report, tally):
        first = self.reports.setdefault(suite, report)
        for check, again in zip(first.checks, report.checks):
            bound = min(check.threshold, TIGHT_CHECKS.get(check.name, CONTRACT))
            same = (check.name, check.max_residual) == (again.name, again.max_residual)
            if again.passed and again.max_residual <= bound and same:
                tally.ok(worst=again.max_residual)
            else:
                tally.fail()

    def suite_seconds(self, raw=False):
        """Median time of each suite's calls, at the reference speed or raw."""
        times = self.raw_times if raw else self.times
        return {s: statistics.median(t) for s, t in times.items() if t}

    def gate_use(self):
        """Largest share of a gate in tests/test_acceptance.py, in raw wall time."""
        wall = self.suite_seconds(raw=True)
        ratios = [wall[s] / gate for s, (_, gate) in BATTERY.items() if gate]
        return max(ratios + [sum(wall.values()) / BATTERY_SUM_GATE])

    def check_residuals(self):
        return {c.name: c.max_residual for r in self.reports.values() for c in r.checks}


def setup_probe_seconds(root, workload, workdir, spawns=9):
    """Median wall time of fresh interpreters that import spinorspace and
    complete the workload's first op: (at the reference speed, raw).

    The probe runs the calibration kernel after its op, on whichever CPU it
    got, and reports the kernel's time; the kernel's own run time is taken
    off the spawn's wall time.
    """
    probe = Path(__file__).with_name("probe.py")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, raw = [], []
    for _ in range(spawns):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(probe), workload, str(workdir)], cwd=root,
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        kernel_ns, kernel_s = done.stdout.split()
        raw.append(wall - float(kernel_s))
        times.append(raw[-1] * speed.REFERENCE_NS / float(kernel_ns))
    return statistics.median(times), statistics.median(raw)


def import_numpy_ms(root, spawns=5):
    code = ("import time; t = time.perf_counter(); import numpy; "
            "print((time.perf_counter() - t) * 1e3)")
    times = []
    for _ in range(spawns):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def timed_run(workload, seconds, tally, chain=None, passes=None):
    """Run passes for `seconds` (or exactly `passes`), with calibration probes
    during each, and summarize their times at the reference speed.

    An op's latency is the median of its times over the passes, so a host
    stall (or a probe) during one pass cannot reach the figures; throughput
    and the percentiles are taken over these per-op latencies.
    """
    pass_s, samples, raw_samples = [], [], []
    count = 0
    start = time.perf_counter()
    while True:
        # The harness holds every output of a pass for its check; the cyclic
        # collector would bill that to whichever op it interrupts.
        gc.disable()
        try:
            with speed.Sampled() as sampled:
                latency_ns, outputs = workload.run_pass(chain or workload.chain())
        finally:
            gc.enable()
        factor = sampled.factor()
        at_reference, raw = sampled.seconds()
        workload.record(factor)
        count += 1
        pass_s.append(at_reference)
        samples.append((latency_ns * factor / 1e3).astype(np.float32))
        raw_samples.append((latency_ns / 1e3).astype(np.float32))
        workload.check(outputs, tally)
        if passes is not None:
            if count >= passes:
                break
        elif time.perf_counter() - start >= seconds and count >= 3:
            break
    per_op = np.median(np.stack(samples), axis=0).astype(float)
    return {
        "passes": count,
        "throughput_per_s": 1e6 / float(per_op.mean()),
        "latency_p50_us": float(np.percentile(per_op, 50)),
        "latency_p99_us": float(np.percentile(per_op, 99)),
        "latency_ops": int(per_op.size),
        "raw_throughput_per_s": 1e6 / float(np.median(np.stack(raw_samples), axis=0).mean()),
        "timed_s": sum(pass_s),
    }


WORKLOADS = {"points": Points, "frames": Frames, "fixtures": Fixtures}
