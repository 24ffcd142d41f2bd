#!/usr/bin/env python3
"""Three-setting alignment grid on planted synthetic data, seeds 5/42/55.

Matching pairs should score high, independent pairs near zero, and hard
(context-sharing) pairs nearly as high as matches: the pattern that shows
global metrics cannot see fine-grained mismatch. After each seed's grid
comes the report's wall time and the process's peak RSS so far.
"""

import argparse
import resource
import time

from jam.embed_io import synth_generate
from jam.metrics import METRIC_NAMES, MetricConfig, alignment_report
from jam.presets import BENCHMARK_SEEDS, metric_screen_synth


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=lambda s: [int(t) for t in s.split(",")],
                        default=list(BENCHMARK_SEEDS))
    args = parser.parse_args()

    header = f"{'seed':>4} {'setting':>15}" + "".join(f"{m:>12}" for m in METRIC_NAMES)
    print(header)
    print("-" * len(header))
    for seed in args.seeds:
        ds, easy, _ = synth_generate(metric_screen_synth(seed))
        start = time.perf_counter()
        report = alignment_report(ds.images, ds.positives, easy, ds.negatives, MetricConfig())
        seconds = time.perf_counter() - start
        for setting in ("match", "easy_nonmatch", "hard_nonmatch"):
            row = report.scores[setting]
            cells = "".join(f"{row[m]:>12.4f}" for m in METRIC_NAMES)
            print(f"{seed:>4} {setting:>15}{cells}")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{seed:>4} {'report':>15}  {seconds:.3f} s, peak RSS {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
