"""Command-line frontend: simulate, extract, train, eval, the study tables,
and the online detector.

Exit codes: 0 success, 1 usage error, 2 data error. A data error prints a
single machine-parsable line on stderr:

    error: <ExceptionClass>: <message>

``detect`` does not stop at a bad input line. It reports the line and goes
on with the next one:

    error: frame <N>: <ExceptionClass>: <message>

N is the 1-based line number in the input stream, counting blank lines and
the header, and is the first number on the line. ``detect`` reads its
input in chunks of up to 64 KiB. A chunk shorter than that holds everything
written so far, so each detection of its lines is flushed as soon as its line
is handled; a full chunk is a backlog and is flushed once, after its last
line. Either way every detection is delivered before the detector waits for
more input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .detect import MultiFingerDetector
from .errors import GripwatchError, InvalidConfig, ParseError
from .features import FEATURE_NAMES, DwtConfig
from .files import (
    MALFORMED, is_integer, is_number, malformed, number_array, read_jsonl, write_json, write_jsonl
)
from .models import (
    DEFAULT_MASK,
    TrainConfig,
    load_model,
    mask_from_names,
    save_model,
    train,
)
from .simulate import EpisodeConfig, generate_dataset, load_episode_log, save_episode_log
from .tactile import FingertipGeometry, TaxelFrame, load_geometry, save_geometry

FEATURES_FORMAT = "gripwatch-features"
FEATURES_VERSION = 1
FEATURE_KEYS = ("t", *FEATURE_NAMES, "label")  # one feature file record
DETECT_READ_SIZE = 1 << 16
STUDY_N_W = (4, 6, 8, 10, 12, 14)  # the window sweep of the study
DEFAULT_OBJECTS, DEFAULT_EPISODES = 6, 5  # the dataset of simulate and study


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_features(path, rows, n_w):
    """Write (t, X, y) feature rows, one JSON line per window."""
    header = {"format": FEATURES_FORMAT, "version": FEATURES_VERSION, "n_w": n_w}
    records = (
        dict(zip(FEATURE_KEYS, (t_i, *x, label)))
        for t, X, y in rows
        for t_i, x, label in zip(t.tolist(), X.tolist(), y.tolist())
    )
    write_jsonl(path, header, records)


def _read_features(path):
    """A labeled feature file as (X (n, 6), y (n), its DwtConfig)."""
    records = read_jsonl(path, FEATURES_FORMAT, FEATURES_VERSION)
    lineno, header = next(records)
    with malformed("bad feature header", lineno):
        dwt_config = DwtConfig(n_w=header.get("n_w"))
    rows = []
    for lineno, record in records:
        with malformed("bad feature record", lineno):
            *row, label = (record[key] for key in FEATURE_KEYS)
            if label is None:
                raise ValueError("unlabeled features")
            if not (is_integer(label) and label in (0, 1)):
                raise ValueError(f"label must be 0 or 1, got {label!r}")
            if not all(map(is_number, row)):
                raise ValueError(f"{', '.join(FEATURE_KEYS[:-1])} must be numbers, got {row}")
            rows.append([*map(float, row), label])  # OverflowError past the float range
    if not rows:
        raise ParseError("no feature rows")
    table = np.array(rows)
    return table[:, 1:-1], table[:, -1], dwt_config


def _load_dataset(directory, paths=None):
    """The episode logs ``paths``, by default the directory's episode*.jsonl
    files, with their taxels in the geometry of the directory's geometry.json.
    An error in a log names the log."""
    paths = sorted(Path(directory).glob("episode*.jsonl")) if paths is None else paths
    if not paths:
        raise ParseError(f"no episode*.jsonl files in {directory}")
    geometry = load_geometry(Path(directory) / "geometry.json")
    episodes = []
    for path in paths:
        try:
            episodes.append(load_episode_log(path, geometry))
        except GripwatchError as exc:  # one line that names the log
            raise type(exc)(f"{path}: {exc}") from exc
    return episodes


# --- subcommand implementations ---


def _cmd_simulate(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = EpisodeConfig(seed=args.seed)
    episodes = generate_dataset(args.objects, args.episodes, base)
    index = 0
    for episode in episodes:
        obj = episode.metadata.object_id
        ep = index % args.episodes
        save_episode_log(episode, out / f"episode_obj{obj:02d}_ep{ep:02d}.jsonl")
        index += 1
    save_geometry(FingertipGeometry.identity(base.n_s), out / "geometry.json")
    print(f"wrote {len(episodes)} episodes to {out}")
    return 0


def _cmd_extract(args):
    src = Path(getattr(args, "in"))
    config = DwtConfig(n_w=args.n_w)
    episodes = _load_dataset(src) if src.is_dir() else _load_dataset(src.parent, [src])
    rows = []
    for episode in episodes:
        X, y, _ = ev.episode_feature_matrix(episode, config)
        rows.append((episode.t[config.n_w - 1 :], X, y))
    _write_features(args.out, rows, args.n_w)
    print(f"wrote {sum(len(X) for _, X, _ in rows)} feature vectors to {args.out}")
    return 0


def _cmd_train(args):
    X, y, dwt_config = _read_features(args.features)
    mask = DEFAULT_MASK if args.mask is None else mask_from_names(args.mask.split(","))
    config = TrainConfig(kind=args.kind, l2_lambda=args.l2)
    model = train((X, y), config, mask, dwt_config)
    save_model(model, args.out)
    print(f"trained {args.kind} model -> {args.out}")
    return 0


def _cmd_eval(args):
    model = load_model(args.model)
    X, y, dwt_config = _read_features(args.features)
    if dwt_config != model.dwt_config:
        raise InvalidConfig(
            f"features of window n_w={dwt_config.n_w} for a model of n_w={model.dwt_config.n_w}"
        )
    report = ev.evaluate_model(model, X, y)
    print(ev.format_report(report))
    if args.report:
        write_json(args.report, report.to_dict())
    return 0


def _cmd_study(args):
    """Every table of the study: held-out logreg and SVM, the window sweep,
    the feature ablation and the energy baseline, on one split (seed 0)."""
    start = time.perf_counter()
    if args.dataset is not None:
        episodes = _load_dataset(args.dataset)
        print(f"read {len(episodes)} episodes from {args.dataset}")
    else:
        print(f"generating {DEFAULT_OBJECTS} x {DEFAULT_EPISODES} synthetic episodes ...")
        episodes = generate_dataset(DEFAULT_OBJECTS, DEFAULT_EPISODES, EpisodeConfig(seed=0))

    print("\n== held-out metrics (n_w=14, 80/20 sample split) ==")
    heldout = {}
    for kind in ("logreg", "svm"):
        _, _, heldout[kind] = ev.train_and_evaluate(episodes, DwtConfig(), TrainConfig(kind=kind))
        print(f"{kind:>6}: {ev.format_report(heldout[kind])}")

    print("\n== window-length sweep (logistic regression) ==")
    sweep = ev.window_sweep(episodes, STUDY_N_W, TrainConfig())
    print(ev.format_sweep_table(sweep))

    print("\n== feature-group ablation (logistic regression, n_w=14) ==")
    ablation = ev.ablation_study(episodes, train_config=TrainConfig())
    print(ev.format_ablation_table(ablation))

    print("\n== detail-energy threshold baseline ==")
    baseline = ev.energy_threshold_baseline(episodes)
    print(f"threshold={baseline.threshold:.6g} degenerate={baseline.degenerate}")
    print(f"  test: {ev.format_report(baseline.test_report)}")

    if args.report:
        record = {
            "heldout": {kind: report.to_dict() for kind, report in heldout.items()},
            "sweep": [{"n_w": n_w, **r.to_dict()} for n_w, r in sweep],
            "ablation": [{"features": list(groups), **r.to_dict()} for groups, r in ablation],
            "baseline": {
                "threshold": baseline.threshold,
                "degenerate": baseline.degenerate,
                "train": baseline.train_report.to_dict(),
                "test": baseline.test_report.to_dict(),
            },
        }
        write_json(args.report, record)
    print(f"done in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


def _cmd_detect(args):
    model = load_model(args.model)
    geometry = load_geometry(args.geometry)
    detector = MultiFingerDetector(model, geometry, tau=args.tau)
    path = getattr(args, "in")
    lineno = 0
    tail = b""  # a line whose newline has not been read yet
    # A frame whose arithmetic overflows is reported by the finite checks as
    # that frame's error; numpy's own warning would put a line on stderr that
    # is not an error line.
    with (
        open(path, "rb") if path else nullcontext(sys.stdin.buffer)
    ) as source, np.errstate(over="ignore", invalid="ignore"):
        # read1 returns whatever input is available. A read shorter than
        # DETECT_READ_SIZE has caught up with the input, so each detection of
        # its lines is flushed as soon as its line is handled; a full read is
        # a backlog, flushed once after its last line. Either way every
        # detection is delivered before the next read can block.
        while chunk := source.read1(DETECT_READ_SIZE):
            caught_up = len(chunk) < DETECT_READ_SIZE
            *lines, tail = (tail + chunk).split(b"\n")
            for line in lines:
                lineno += 1
                if _detect_line(detector, lineno, line) and caught_up:
                    sys.stdout.flush()
            if not caught_up:
                sys.stdout.flush()
        if tail:
            _detect_line(detector, lineno + 1, tail)
        _write_detections(detector.finish())
        sys.stdout.flush()
    return 0


def _detect_line(detector, lineno, line):
    """Handle one input line; return how many detections it wrote."""
    line = line.strip()
    if not line:
        return 0
    try:
        record = json.loads(line)
        if isinstance(record, dict) and "format" in record:  # episode header line
            return 0
        frame = TaxelFrame(record["t"], record["fingertip"], number_array(record["taxels"]))
        detections = detector.process(frame)
    except MALFORMED as exc:  # invalid JSON or UTF-8 is a ValueError of json.loads
        print(f"error: frame {lineno}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 0
    _write_detections(detections)
    return len(detections)


def _write_detections(detections):
    for d in detections:
        sys.stdout.write(
            json.dumps(
                {
                    "t": d.timestamp,
                    "fingertip": d.fingertip_id,
                    "state": d.state,
                    "p_stable": d.p_stable,
                    "sigma": d.sigma,
                }
            )
            + "\n"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gripwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic labeled episodes")
    p.add_argument("--objects", type=int, default=DEFAULT_OBJECTS)
    p.add_argument("--episodes", type=int, default=DEFAULT_EPISODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract", help="extract labeled feature vectors")
    p.add_argument("--in", required=True)
    p.add_argument("--n-w", dest="n_w", type=int, default=DwtConfig().n_w)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a classifier on a feature dump")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", choices=["logreg", "svm"], default="logreg")
    p.add_argument("--mask", default=None, help="comma list from fa,fx,fy,fz,m,sigma")
    p.add_argument("--l2", type=float, default=TrainConfig().l2_lambda)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a labeled feature dump")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("study", help="print every table of the study")
    p.add_argument("--dataset", default=None, help="episode directory (default: seed 0, in memory)")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("detect", help="online detection over a frame stream")
    p.add_argument("--model", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--in", default=None, help="frame JSONL (default: stdin)")
    p.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GripwatchError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # The reader of stdout is gone: point stdout at the null device,
            # so that the flush at exit does not fail again on what is still
            # buffered.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
