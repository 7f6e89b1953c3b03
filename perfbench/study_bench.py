"""The offline workload: the scripts/reproduce_tables.py sequence, in process.

Held-out logreg and SVM, the six-point window sweep, the 11-row ablation and
the energy baseline, on generate_dataset(6, 5) seeded by the run's seed.
Each table row (or whole table, where the study is one call) is one
operation; its outcome is checked at acceptance level only, because exact
table values are expected to change when training changes.
"""

from __future__ import annotations

import resource
import time
import traceback

import numpy as np

import tracing
from common import Outcome, median
from gripwatch.evaluate import (
    ablation_study,
    energy_threshold_baseline,
    format_ablation_table,
    format_report,
    format_sweep_table,
    train_and_evaluate,
    window_sweep,
)
from gripwatch.features import DwtConfig
from gripwatch.models import TrainConfig
from gripwatch.simulate import EpisodeConfig, generate_dataset

SETUP_REPEATS = 5
SWEEP = (4, 6, 8, 10, 12, 14)
FULL = ("fa", "ftip", "m", "sigma")
NO_SIGMA = ("fa", "ftip", "m")
NO_FTIP = ("fa", "m", "sigma")


def _untraced(key, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_sequence(episodes, call=_untraced):
    """Run every study stage once. Returns (ops, failures, tables) where ops
    is [(name, seconds)], failures lists what raised or failed its check,
    and tables is the printed text (for the determinism check)."""
    ops, failures, tables = [], [], []
    results = {}

    def op(name, key, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            results[name] = call(key, fn, *args, **kwargs)
        except Exception:  # a stage that raises is a failed operation, not a crash
            failures.append(f"{name} raised:\n{traceback.format_exc()}")
            results[name] = None
        ops.append((name, time.perf_counter() - start))
        return results[name]

    def check(name, ok, detail):
        if not ok:
            failures.append(f"{name}: {detail}")

    dwt = DwtConfig(n_w=14)
    for kind in ("logreg", "svm"):
        res = op(f"heldout_{kind}", "evaluate.heldout", train_and_evaluate, episodes, dwt, TrainConfig(kind=kind))
        if res is not None:
            tables.append(f"{kind}: {format_report(res[2])}")
    heldout = results["heldout_logreg"]
    full_acc = None if heldout is None else heldout[2].acc
    if heldout is not None:
        test = heldout[2]
        check("heldout_logreg", test.acc >= 90.0 and test.fdr <= 10.0, f"Acc={test.acc} FDR={test.fdr}")

    sweep = {}
    for n_w in SWEEP:
        rows = op(f"sweep_{n_w}", "evaluate.sweep", window_sweep, episodes, [n_w], TrainConfig())
        if rows is not None:
            sweep.update(rows)
    if sweep:
        tables.append(format_sweep_table(sorted(sweep.items())))
    if len(sweep) == len(SWEEP):
        check("sweep_14", sweep[14].acc >= sweep[4].acc, f"Acc(14)={sweep[14].acc} < Acc(4)={sweep[4].acc}")

    rows = op("ablation", "evaluate.ablation", ablation_study, episodes, train_config=TrainConfig())
    if rows is not None:
        tables.append(format_ablation_table(rows))
        acc = {groups: report.acc for groups, report in rows}
        gap_sigma = acc[FULL] - acc[NO_SIGMA]
        gap_ftip = acc[FULL] - acc[NO_FTIP]
        check("ablation", gap_sigma >= 5.0 and gap_ftip < gap_sigma, f"-sigma gap {gap_sigma}, -ftip gap {gap_ftip}")

    base = op("baseline", "evaluate.baseline", energy_threshold_baseline, episodes)
    if base is not None:
        tables.append(f"baseline {base.threshold!r}: {format_report(base.test_report)}")
        if full_acc is not None:
            check("baseline", base.test_report.acc < full_acc, f"{base.test_report.acc} >= {full_acc}")
    return ops, failures, "\n".join(tables)


def study_tables(seed: int, seconds: int, trace: bool, work) -> Outcome:
    out = Outcome()
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        episodes = generate_dataset(6, 5, EpisodeConfig(seed=seed))
        gen_times.append(time.perf_counter() - start)
    n_frames = sum(len(e.frames) for e in episodes)

    walls, op_ms, texts = [], [], set()

    def sequence(call=_untraced):
        start = time.perf_counter()
        ops, failures, text = run_sequence(episodes, call)
        walls.append(time.perf_counter() - start)
        # Every input is ready when the sequence starts, so a result's
        # latency is the time until its stage has finished.
        op_ms.extend((np.cumsum([took for _, took in ops]) * 1e3).tolist())
        texts.add(text)
        out.count(len(ops), len(failures), f"study sequence {len(walls)}")
        out.problems.extend(failures)
        return walls[-1]

    begin = time.perf_counter()
    while not walls or (time.perf_counter() - begin) + median(walls) <= seconds:
        sequence()
    wall = median(walls)
    out.info.append(f"study: {len(walls)} sequences, walls {[round(w, 3) for w in walls]}")
    out.set_end_to_end(
        op_ms,
        setup_s=median(gen_times),
        frames_per_s=n_frames / wall,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_wall = sequence(tracer.call)
        out.per_layer, out.absent = tracing.layer_metrics(
            tracer.to_dict(),
            {"simulate.generate_s": median(gen_times), "trace.overhead_frac": traced_wall / wall - 1.0},
        )
    if len(texts) > 1:
        out.problems.append("study: repeated sequences printed different tables")
    return out
