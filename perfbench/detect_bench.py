"""The two online workloads: ``gripwatch detect`` as a subprocess.

detect_c10   closed loop over a file: the criterion-10 stream, 4 fingertips x
             9000 frames, each fingertip's frames in one block, --tau 0.5.
detect_live  open loop on stdin: 16 fingertips interleaved by timestamp and
             written at their real timestamps (16 x 150 Hz), tau calibrated
             by the detector, about 1% extra faulty lines on two fingertips.

Every emitted line is checked against a reference computed with the batch
path (aggregate_series -> batch_features -> predict_score_batch, gated by
tau), and every faulty line must be reported on stderr with its own line
number.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracing
from common import Outcome, median, percentile
from gripwatch.evaluate import dataset_feature_matrix
from gripwatch.features import DwtConfig, batch_features
from gripwatch.models import TrainConfig, predict_score_batch, save_model, train
from gripwatch.simulate import EpisodeConfig, PhaseDurations, generate_dataset, generate_episode
from gripwatch.tactile import FingertipGeometry, aggregate_series, save_geometry

N_W = 14
CALIBRATION_FRAMES = 50  # tau = 3 * std(f_a) over a fingertip's first 50 valid frames
TAU_MULTIPLIER = 3.0
TAU_FLOOR = 1e-9
TIE = 1e-9  # |score| or |f_a - tau| below this: a state flip is a tie, not an error
TOL = 1e-9  # sigma and p_stable agreement
SETUP_REPEATS = 9
PROCESS_TIMEOUT_S = 150.0
# The live writer must start each tick within this long (p99) of the later
# of its due time and the end of the previous write. A pass where it did not
# is discarded and repeated; when every attempt is late the run is invalid.
GEN_LAG_BOUND_MS = 10.0
LIVE_ATTEMPTS = 2
# p99 latency is the median of the p99 of each quarter-second window (about
# 72 in a 20 s run): a noisy neighbour on the shared host that stalls the
# detector for a while then moves a minority of windows, not the result.
LIVE_WINDOW_S = 0.25
LIVE_LEAD_S = 0.5  # the schedule starts this long after the detector is spawned
HEADER = json.dumps({"format": "gripwatch-episode", "version": 1}) + "\n"
FAULT_KINDS = ("invalid_json", "missing_key", "nan_taxel", "wrong_taxel_count", "stale_timestamp")


def pinned_env() -> dict:
    """Environment of the process under test: source tree on the path, and
    stdout left block-buffered as it is in production (no PYTHONUNBUFFERED)."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = "src"
    return env


class Run:
    """One finished detect process: timings, output chunks and rusage."""

    def __init__(self, start, end, returncode, chunks, stderr, rusage, gen_lags=()):
        self.wall_s = end - start
        self.start = start
        self.returncode = returncode
        self.chunks = chunks  # [(arrival perf_counter, bytes)]
        self.stdout = b"".join(c for _, c in chunks)
        self.stderr = stderr
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.gen_lags = list(gen_lags)

    def lines(self):
        """(arrival time, line bytes) for every complete stdout line."""
        out, tail = [], b""
        for arrival, chunk in self.chunks:
            parts = (tail + chunk).split(b"\n")
            tail = parts.pop()
            out.extend((arrival, p) for p in parts)
        return out


def _drain(fd, sink):
    while True:
        data = os.read(fd, 1 << 16)
        if not data:
            return
        sink.append((time.perf_counter(), data))


def run_process(argv, feed=None) -> Run:
    """Spawn ``argv``, optionally feed its stdin with ``feed(fd, start)``,
    collect stdout with arrival times, and reap it with wait4 (its own rusage,
    not the high-water mark over all children)."""
    chunks, err = [], []
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if feed else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=pinned_env(),
    )
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout.fileno(), chunks)),
        threading.Thread(target=_drain, args=(proc.stderr.fileno(), err)),
    ]
    for r in readers:
        r.start()
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    gen_lags = []
    try:
        if feed:
            try:
                gen_lags = feed(proc.stdin.fileno(), start)
            finally:
                proc.stdin.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
    return Run(start, end, proc.returncode, chunks, b"".join(c for _, c in err), rusage, gen_lags)


# --- inputs ---


def prepare_model(seed: int, work: Path):
    """Train the model and write the geometry that detect loads."""
    episodes = generate_dataset(2, 2, EpisodeConfig(seed=seed))
    X, y, _ = dataset_feature_matrix(episodes, DwtConfig(n_w=N_W))
    model = train((X, y), TrainConfig())
    geometry = FingertipGeometry.identity(episodes[0].frames[0].n_s)
    save_model(model, work / "model.json")
    save_geometry(geometry, work / "geometry.json")
    (work / "header.jsonl").write_text(HEADER)
    return model, geometry


def frame_line(frame) -> str:
    return json.dumps(
        {"t": frame.timestamp, "fingertip": frame.fingertip_id, "taxels": frame.taxels.tolist()}
    )


def detect_argv(work: Path, tau=None, source=None, trace_out=None) -> list:
    if trace_out is None:
        argv = [sys.executable, "-m", "gripwatch.cli"]
    else:
        argv = [sys.executable, str(Path(__file__).with_name("traced_detect.py")), str(trace_out)]
    argv += ["detect", "--model", str(work / "model.json"), "--geometry", str(work / "geometry.json")]
    if tau is not None:
        argv += ["--tau", repr(tau)]
    if source is not None:
        argv += ["--in", str(source)]
    return argv


# --- reference ---


def reference(frames_by_tip, model, geometry, tau):
    """Expected detections per fingertip, in emission order.

    Each entry is a dict with the expected line fields, the reference score
    and f_a - tau (to recognise ties), and the index of the fingertip frame whose
    arrival releases it (with calibrated tau, the first detections wait for
    the end of the calibration prefix).
    """
    config = DwtConfig(n_w=N_W)
    expected = {}
    for tip, frames in frames_by_tip.items():
        t, f_tip, f_a = aggregate_series(frames, geometry)
        X, _, t_out = batch_features(t, f_tip, f_a, config)
        score = predict_score_batch(model, X)
        tip_tau = tau
        if tip_tau is None:
            tip_tau = max(TAU_MULTIPLIER * float(np.std(f_a[:CALIBRATION_FRAMES])), TAU_FLOOR)
        rows = []
        for j in range(len(X)):
            contact = X[j, 0] >= tip_tau
            if not contact:
                state, p = "no_contact", None
            else:
                state = "stable" if score[j] > 0.0 else "unstable"
                p = 0.5 * (1.0 + math.tanh(0.5 * score[j]))
            release = j + N_W - 1
            if tau is None:
                release = max(release, CALIBRATION_FRAMES - 1)
            rows.append(
                {
                    "t": float(t_out[j]),
                    "state": state,
                    "p_stable": p,
                    "sigma": float(X[j, 5]),
                    "score": float(score[j]),
                    "gap": float(X[j, 0] - tip_tau),
                    "release": release,
                }
            )
        expected[tip] = rows
    return expected


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def check_output(run: Run, expected, faults, outcome: Outcome, what: str, due=None):
    """Compare every stdout line with the reference and every stderr error
    line with the injected faults. Returns the latencies (ms) of matched
    detections when ``due`` (tip -> due time per frame index) is given."""
    index = {(tip, row["t"]): (tip, row) for tip, rows in expected.items() for row in rows}
    n_expected = len(index)
    seen = set()
    bad = ties = 0
    max_sigma_gap = 0.0
    last_t = {}
    latencies = []
    for arrival, raw in run.lines():
        try:
            got = json.loads(raw)
            key = (got["fingertip"], got["t"])
        except (ValueError, KeyError, TypeError):
            bad += 1
            continue
        hit = index.get(key)
        if hit is None or key in seen or got["t"] <= last_t.get(key[0], -math.inf):
            bad += 1
            continue
        seen.add(key)
        last_t[key[0]] = got["t"]
        tip, row = hit
        if not _close(got.get("sigma"), row["sigma"]):
            bad += 1
            continue
        if got.get("state") != row["state"]:
            gate_flip = "no_contact" in (got.get("state"), row["state"])
            if abs(row["gap"] if gate_flip else row["score"]) >= TIE:
                bad += 1
                continue
            ties += 1
        elif not _close(got.get("p_stable"), row["p_stable"]):
            bad += 1
            continue
        max_sigma_gap = max(max_sigma_gap, abs(got["sigma"] - row["sigma"]))
        if due is not None and row["release"] < len(due[tip]):
            latencies.append((arrival - due[tip][row["release"]]) * 1e3)
    missing = n_expected - len(seen)

    reported = []
    for line in run.stderr.decode(errors="replace").splitlines():
        if line.startswith("error:"):
            number = re.search(r"\d+", line)
            reported.append(int(number.group()) if number else None)
    fault_lines = set(faults)
    unreported = len(fault_lines - set(reported))
    spurious = sum(1 for n in reported if n not in fault_lines)

    if run.returncode != 0:
        outcome.problems.append(f"{what}: detect exited with {run.returncode}")
    outcome.count(n_expected + len(fault_lines), bad + missing + unreported + spurious, what)
    outcome.info.append(
        f"{what}: {len(seen)}/{n_expected} detections matched, {bad} wrong, {missing} missing, "
        f"{ties} tie flips, max sigma gap {max_sigma_gap:.3g}; faults {len(fault_lines)}, "
        f"unreported {unreported}, spurious error lines {spurious}"
    )
    return latencies, len(reported)


def measure_setup(work: Path) -> float:
    """Median wall time of detect on a stream holding only a header line."""
    walls = []
    for _ in range(SETUP_REPEATS):
        run = run_process(detect_argv(work, tau=0.5, source=work / "header.jsonl"))
        if run.returncode != 0 or run.stdout:
            raise RuntimeError(f"detect on a header-only stream failed: {run.stderr!r}")
        walls.append(run.wall_s)
    return median(walls)


def traced_layers(run: Run, trace_out: Path, untraced_cost: float, traced_cost: float, extra):
    with open(trace_out) as fh:
        trace = json.load(fh)
    extra = dict(extra)
    extra["detect.detections"] = run.stdout.count(b"\n")
    extra["trace.overhead_frac"] = traced_cost / untraced_cost - 1.0
    return tracing.layer_metrics(trace, extra)


# --- detect_c10 ---

C10_PHASES = PhaseDurations(no_contact=1.5, ramp=0.3, locked=52.0, disturbance=6.0, release=0.2)
C10_TAU = 0.5


def detect_c10(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    model, geometry = prepare_model(seed, work)
    t0 = time.perf_counter()
    frames_by_tip = {}
    for i in range(4):
        config = EpisodeConfig(seed=seed * 1000 + i, phase_durations=C10_PHASES, fingertip_id=f"ft{i}")
        frames_by_tip[f"ft{i}"] = generate_episode(config).frames
    generate_s = time.perf_counter() - t0
    n_frames = sum(len(f) for f in frames_by_tip.values())
    stream = work / "c10.jsonl"
    with open(stream, "w") as fh:
        for frames in frames_by_tip.values():
            fh.writelines(frame_line(f) + "\n" for f in frames)
    expected = reference(frames_by_tip, model, geometry, C10_TAU)
    setup_s = measure_setup(work)
    argv = detect_argv(work, tau=C10_TAU, source=stream)

    runs = []
    begin = time.perf_counter()
    while not runs or (time.perf_counter() - begin) + median([r.wall_s for r in runs]) <= seconds:
        runs.append(run_process(argv))
    for k, run in enumerate(runs, start=1):
        check_output(run, expected, [], out, f"c10 run {k}")
    if any(run.stdout != runs[0].stdout for run in runs):
        out.problems.append("c10: identical runs gave different output")

    # The whole file is due when detect starts, so a frame's latency is the
    # time until its detection line reaches the reader.
    latencies = [(arrival - run.start) * 1e3 for run in runs for arrival, _ in run.lines()]
    wall = median([r.wall_s for r in runs])
    out.info.append(f"c10: {len(runs)} runs of {n_frames} frames, walls {[round(r.wall_s, 3) for r in runs]}")
    out.set_end_to_end(
        latencies,
        setup_s=setup_s,
        frames_per_s=n_frames / wall,
        wall_s=wall,
        peak_rss_mb=median([r.peak_rss_mb for r in runs]),
    )
    if trace:
        trace_out = work / "trace.json"
        traced = run_process(detect_argv(work, tau=C10_TAU, source=stream, trace_out=trace_out))
        _, rejected = check_output(traced, expected, [], out, "c10 traced run")
        out.per_layer, out.absent = traced_layers(
            traced,
            trace_out,
            wall,
            traced.wall_s,
            {"simulate.generate_s": generate_s, "cli.lines_rejected": rejected},
        )
    return out


# --- detect_live ---

LIVE_TIPS = 16
FAULT_SHARE = 0.01


def live_phases(seconds: int) -> PhaseDurations:
    """Default phases, with the locked plateau sized so the stream lasts
    about ``seconds`` - 1.9 s (the default 18.1 s stream at 20 s)."""
    base = PhaseDurations()
    fixed = base.total() - base.locked
    return replace(base, locked=max(1.0, seconds - 1.9 - fixed))


def make_fault(kind, frame, rng) -> str:
    record = {"t": frame.timestamp, "fingertip": frame.fingertip_id, "taxels": frame.taxels.tolist()}
    if kind == "invalid_json":
        text = json.dumps(record)
        return text[: len(text) // 2]
    if kind == "missing_key":
        del record[("t", "fingertip", "taxels")[int(rng.integers(3))]]
    elif kind == "nan_taxel":
        record["taxels"][int(rng.integers(len(record["taxels"])))][int(rng.integers(3))] = float("nan")
    elif kind == "wrong_taxel_count":
        record["taxels"] = record["taxels"][:-1]
    else:  # stale_timestamp: older than this fingertip's last frame
        record["t"] = frame.timestamp - 0.5 / 150.0
    return json.dumps(record)


def build_live_stream(seed: int, seconds: int):
    """Interleaved lines with their due offsets, fault line numbers, frames
    per tip, and the time spent generating the episodes."""
    rng = np.random.default_rng(seed)
    phases = live_phases(seconds)
    frames_by_tip = {}
    t0 = time.perf_counter()
    for i in range(LIVE_TIPS):
        config = EpisodeConfig(seed=seed * 1000 + i, phase_durations=phases, fingertip_id=f"ft{i:02d}")
        frames_by_tip[config.fingertip_id] = generate_episode(config).frames
    generate_s = time.perf_counter() - t0
    tips = list(frames_by_tip)
    n_per_tip = len(frames_by_tip[tips[0]])
    n_frames = n_per_tip * LIVE_TIPS
    faulty_tips = [tips[k] for k in rng.choice(LIVE_TIPS, size=2, replace=False)]
    n_faults = max(len(FAULT_KINDS), round(FAULT_SHARE * n_frames))
    kinds = [FAULT_KINDS[k % len(FAULT_KINDS)] for k in range(n_faults)]
    rng.shuffle(kinds)
    after = {}  # (tip, frame index) -> fault kinds following that frame
    for k, kind in enumerate(kinds):
        tip = faulty_tips[k % 2]
        after.setdefault((tip, int(rng.integers(n_per_tip))), []).append(kind)

    ticks = []  # (due offset s, bytes of all lines due then)
    fault_lines = []
    lineno = 0
    for i in range(n_per_tip):
        lines = []
        for tip in tips:
            frame = frames_by_tip[tip][i]
            lines.append(frame_line(frame))
            lineno += 1
            for kind in after.get((tip, i), ()):
                lines.append(make_fault(kind, frame, rng))
                lineno += 1
                fault_lines.append(lineno)
        ticks.append((frames_by_tip[tips[0]][i].timestamp, ("\n".join(lines) + "\n").encode()))
    return ticks, fault_lines, frames_by_tip, generate_s


def scheduled_writer(ticks):
    """Open-loop feed: each tick is written when due, whatever the detector
    does. Returns the generator's own lateness per tick (s): start of the
    write minus the later of its due time and the end of the previous write,
    so time blocked on a full pipe (the detector's backlog) is not counted."""

    def feed(fd, spawned):
        origin = spawned + LIVE_LEAD_S
        lags = []
        free_at = origin
        gc.disable()  # a full collection over the reference data would stall the schedule
        try:
            for offset, data in ticks:
                due = origin + offset
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                begin = time.perf_counter()
                lags.append(begin - max(due, free_at))
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                free_at = time.perf_counter()
        except BrokenPipeError:
            pass  # the detector exited early; its output is checked as it stands
        finally:
            gc.enable()
        return lags

    return feed


def detect_live(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    model, geometry = prepare_model(seed, work)
    ticks, fault_lines, frames_by_tip, generate_s = build_live_stream(seed, seconds)
    n_frames = sum(len(f) for f in frames_by_tip.values())
    expected = reference(frames_by_tip, model, geometry, None)
    setup_s = measure_setup(work)
    out.info.append(
        f"live: {LIVE_TIPS} fingertips, {n_frames} frames over {ticks[-1][0]:.2f} s, "
        f"{len(fault_lines)} faulty lines"
    )

    def one_pass(what, trace_out=None):
        run = run_process(detect_argv(work, trace_out=trace_out), feed=scheduled_writer(ticks))
        origin = run.start + LIVE_LEAD_S
        # A frame is due at its timestamp. The writer's own lateness on that
        # tick is not the detector's doing and is added to the due time; time
        # the writer spent blocked on a full pipe (a backlog) is not.
        due = {
            tip: [origin + f.timestamp + lag for f, lag in zip(frames, run.gen_lags)]
            for tip, frames in frames_by_tip.items()
        }
        latencies, rejected = check_output(run, expected, fault_lines, out, what, due=due)
        lag_p99 = percentile(run.gen_lags, 99) * 1e3
        out.info.append(
            f"{what}: writer lag p99 {lag_p99:.3f} ms, max {max(run.gen_lags) * 1e3:.3f} ms "
            f"over {len(run.gen_lags)} ticks"
        )
        last = max(t for t, _ in run.chunks) if run.chunks else origin
        return run, latencies, rejected, lag_p99, last - origin

    for attempt in range(1, LIVE_ATTEMPTS + 1):
        run, latencies, rejected, lag_p99, span_s = one_pass(f"live run {attempt}")
        if lag_p99 <= GEN_LAG_BOUND_MS:
            break
        out.info.append(f"live run {attempt} discarded: writer lag p99 above {GEN_LAG_BOUND_MS} ms")
    else:
        out.problems.append(f"live: run invalid, the writer fell behind in all {LIVE_ATTEMPTS} attempts")
    out.set_end_to_end(
        latencies,
        windows=max(1, round(ticks[-1][0] / LIVE_WINDOW_S)),
        setup_s=setup_s,
        frames_per_s=n_frames / span_s,
        wall_s=span_s,
        peak_rss_mb=run.peak_rss_mb,
    )
    if trace:
        trace_out = work / "trace.json"
        traced, _, _, _, _ = one_pass("live traced run", trace_out)
        out.per_layer, out.absent = traced_layers(
            traced,
            trace_out,
            run.cpu_s,
            traced.cpu_s,
            {
                "simulate.generate_s": generate_s,
                "cli.lines_rejected": rejected,
                "bench.gen_lag_p99_ms": lag_p99,
            },
        )
    return out
