"""Run a small multi-seed experiment and inspect depth robustness.

Runs the benchmark harness over a shallow and a deeper student on the same
synthetic dataset, then prints the seed-paired win/defeat/tie tallies (the
lines of summary.txt) and the deep/shallow best-objective ratio per
algorithm. The same experiment is reachable from the command line:
    layeropt benchmark demos/benchmark_experiment.json --out /tmp/report

Run from the repository root:
    python3 demos/depth_comparison.py
"""

import os

from layeropt import ExperimentConfig, depth_ratio, emit_report, run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    config = ExperimentConfig.from_json_file(
        os.path.join(HERE, "benchmark_experiment.json"))
    report = run_experiment(config, workers=1)

    print("pairwise tallies [wins; defeats; ties] on final objective, 5% rule")
    for tally in report.tallies():
        print(f"  {tally}")

    print("\ndeep/shallow best-objective ratio (lower favors the deep net)")
    ratios = depth_ratio(report, "[4x20]", "[2x20]")
    for ds, per_algo in ratios.items():
        for algo, ratio in per_algo.items():
            shown = "n/a" if ratio is None else f"{ratio:.3f}"
            print(f"  {ds} {algo}: {shown}")

    out_dir = os.path.join("/tmp", "layeropt_demo_report")
    tsv, summary = emit_report(report, out_dir)
    print(f"\nwrote {tsv}\nwrote {summary}")


if __name__ == "__main__":
    main()
