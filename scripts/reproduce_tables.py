#!/usr/bin/env python3
"""Run the full study on the default synthetic dataset and print every table.

Generates the 6-object x 5-episode dataset, then reports:
  1. held-out metrics for logistic regression and linear SVM,
  2. the window-length sweep,
  3. the feature-group ablation,
  4. the detail-energy threshold baseline.

Everything is seeded, so reruns print identical output on stdout; the
elapsed time goes to stderr.

Usage: python3 scripts/reproduce_tables.py [--objects N] [--episodes N] [--seed S]
"""

import argparse
import sys
import time

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=6)
    parser.add_argument("--episodes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    print(f"generating {args.objects} x {args.episodes} synthetic episodes ...")
    episodes = generate_dataset(args.objects, args.episodes, EpisodeConfig(seed=args.seed))
    dwt = DwtConfig(n_w=14)

    print("\n== held-out metrics (n_w=14, 80/20 sample split) ==")
    for kind in ("logreg", "svm"):
        _, _, test = train_and_evaluate(episodes, dwt, TrainConfig(kind=kind))
        print(f"{kind:>6}: {format_report(test)}")

    print("\n== window-length sweep (logistic regression) ==")
    rows = window_sweep(episodes, [4, 6, 8, 10, 12, 14], TrainConfig())
    print(format_sweep_table(rows))

    print("\n== feature-group ablation (logistic regression, n_w=14) ==")
    print(format_ablation_table(ablation_study(episodes, train_config=TrainConfig())))

    print("\n== detail-energy threshold baseline ==")
    baseline = energy_threshold_baseline(episodes)
    print(f"threshold={baseline.threshold:.6g} degenerate={baseline.degenerate}")
    print(f"  test: {format_report(baseline.test_report)}")

    print(f"done in {time.perf_counter() - start:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
