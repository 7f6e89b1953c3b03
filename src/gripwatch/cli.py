"""Command-line frontend: simulate, extract, train, eval, sweep, ablate,
baseline, and the online detector.

Exit codes: 0 success, 1 usage error, 2 data error. A data error prints a
single machine-parsable line on stderr:

    error: <ExceptionClass>: <message>

``detect`` does not stop at a bad input line. It reports the line and goes
on with the next one:

    error: frame <N>: <ExceptionClass>: <message>

N is the 1-based line number in the input stream, counting blank lines and
the header, and is the first number on the line. ``detect`` flushes its
output whenever it has handled every complete line read so far, so each
detection is delivered before the detector waits for more input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .detect import MultiFingerDetector
from .errors import GripwatchError, ParseError
from .features import FEATURE_NAMES, DwtConfig
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
DETECT_READ_SIZE = 1 << 16


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_features(path, rows, n_w):
    """Write (t, X, y) feature rows, one JSON line per window."""
    with open(path, "w") as fh:
        fh.write(
            json.dumps({"format": FEATURES_FORMAT, "version": FEATURES_VERSION, "n_w": n_w})
            + "\n"
        )
        for t, X, y in rows:
            for t_i, (fa, fx, fy, fz, m, sigma), label in zip(
                t.tolist(), X.tolist(), y.tolist()
            ):
                fh.write(
                    json.dumps(
                        {
                            "t": t_i,
                            "fa": fa,
                            "fx": fx,
                            "fy": fy,
                            "fz": fz,
                            "m": m,
                            "sigma": sigma,
                            "label": label,
                        }
                    )
                    + "\n"
                )


def _read_features(path):
    """A labeled feature file as (X (n, 6), y (n)) arrays; labels are kept as
    read, so that a label other than 0 or 1 reaches the label check."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if lineno == 1:
                if not isinstance(record, dict) or record.get("format") != FEATURES_FORMAT:
                    raise ParseError(f"not a {FEATURES_FORMAT} file", line=lineno)
                continue
            try:
                if record["label"] is None:
                    raise ParseError("unlabeled features", line=lineno)
                rows.append([float(record[key]) for key in ("t", *FEATURE_NAMES, "label")])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad feature record: {exc}", line=lineno) from exc
    if not rows:
        raise ParseError("no feature rows")
    table = np.array(rows)
    return table[:, 1:-1], table[:, -1]


def _load_dataset(directory):
    paths = sorted(Path(directory).glob("episode*.jsonl"))
    if not paths:
        raise ParseError(f"no episode*.jsonl files in {directory}")
    return [load_episode_log(p) for p in paths]


def _parse_masks(spec: str):
    if spec == "builtin":
        return None  # ablation_study default
    return [tuple(part.split(",")) for part in spec.split(";") if part]


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
    episodes = _load_dataset(src) if src.is_dir() else [load_episode_log(src)]
    rows = []
    for episode in episodes:
        X, y, _ = ev.episode_feature_matrix(episode, config)
        rows.append((episode.t[config.n_w - 1 :], X, y))
    _write_features(args.out, rows, args.n_w)
    print(f"wrote {sum(len(X) for _, X, _ in rows)} feature vectors to {args.out}")
    return 0


def _cmd_train(args):
    features = _read_features(args.features)
    mask = mask_from_names(args.mask.split(",")) if args.mask else DEFAULT_MASK
    grid = tuple(float(v) for v in args.grid.split(",")) if args.grid else None
    config = TrainConfig(kind=args.kind, l2_lambda=args.l2, seed=args.seed, hyper_grid=grid)
    model = train(features, config, mask)
    save_model(model, args.out)
    print(f"trained {args.kind} model -> {args.out}")
    return 0


def _cmd_eval(args):
    model = load_model(args.model)
    X, y = _read_features(args.features)
    report = ev.evaluate_model(model, X, y)
    print(ev.format_report(report))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh)
            fh.write("\n")
    return 0


def _cmd_sweep(args):
    episodes = _load_dataset(args.dataset)
    n_w_values = [int(v) for v in args.n_w.split(",")]
    rows = ev.window_sweep(episodes, n_w_values, TrainConfig(seed=args.seed), seed=args.seed)
    print(ev.format_sweep_table(rows))
    if args.report:
        payload = {"rows": [{"n_w": n_w, **r.to_dict()} for n_w, r in rows]}
        with open(args.report, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def _cmd_ablate(args):
    episodes = _load_dataset(args.dataset)
    masks = _parse_masks(args.masks)
    rows = ev.ablation_study(episodes, masks=masks, train_config=TrainConfig(seed=args.seed), seed=args.seed)
    print(ev.format_ablation_table(rows))
    if args.report:
        payload = {"rows": [{"features": list(groups), **r.to_dict()} for groups, r in rows]}
        with open(args.report, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def _cmd_baseline(args):
    episodes = _load_dataset(args.dataset)
    result = ev.energy_threshold_baseline(episodes, seed=args.seed)
    print(f"threshold={result.threshold!r} degenerate={result.degenerate}")
    print("train:", ev.format_report(result.train_report))
    print("test: ", ev.format_report(result.test_report))
    if args.report:
        payload = {
            "threshold": result.threshold,
            "degenerate": result.degenerate,
            "train": result.train_report.to_dict(),
            "test": result.test_report.to_dict(),
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def _cmd_detect(args):
    model = load_model(args.model)
    geometry = load_geometry(args.geometry)
    detector = MultiFingerDetector(
        model, geometry, tau=args.tau, dwt_config=DwtConfig(n_w=args.n_w)
    )
    path = getattr(args, "in")
    source = open(path, "rb") if path else sys.stdin.buffer
    lineno = 0
    tail = b""  # a line whose newline has not been read yet
    try:
        # read1 returns whatever input is available, so the flush after the
        # lines of one read delivers every detection before the next read
        # can block.
        while chunk := source.read1(DETECT_READ_SIZE):
            *lines, tail = (tail + chunk).split(b"\n")
            for line in lines:
                lineno += 1
                _detect_line(detector, lineno, line)
            sys.stdout.flush()
        if tail:
            _detect_line(detector, lineno + 1, tail)
        _write_detections(detector.finish())
        sys.stdout.flush()
    finally:
        if path:
            source.close()
    return 0


def _detect_line(detector, lineno, line):
    line = line.strip()
    if not line:
        return
    try:
        record = json.loads(line)
        if "format" in record:  # episode header line
            return
        frame = TaxelFrame(
            float(record["t"]),
            str(record["fingertip"]),
            np.array(record["taxels"], dtype=float),
        )
        detections = detector.process(frame)
    # ValueError covers invalid JSON and invalid UTF-8.
    except (GripwatchError, KeyError, TypeError, ValueError) as exc:
        print(f"error: frame {lineno}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    _write_detections(detections)


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
    p.add_argument("--objects", type=int, default=6)
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract", help="extract labeled feature vectors")
    p.add_argument("--in", required=True)
    p.add_argument("--n-w", dest="n_w", type=int, default=14)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a classifier on a feature dump")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", choices=["logreg", "svm"], default="logreg")
    p.add_argument("--mask", default=None, help="comma list from fa,fx,fy,fz,m,sigma")
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--grid", default=None, help="comma list of l2 values for CV search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a labeled feature dump")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="window-size sweep")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n-w", dest="n_w", default="4,6,8,10,12,14,16,18")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", help="feature ablation study")
    p.add_argument("--dataset", required=True)
    p.add_argument("--masks", default="builtin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("baseline", help="detail-energy threshold baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("detect", help="online detection over a frame stream")
    p.add_argument("--model", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--n-w", dest="n_w", type=int, default=14)
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
        return 2


if __name__ == "__main__":
    sys.exit(main())
