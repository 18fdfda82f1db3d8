"""Alternating benchmark pairs of this tree against a revision: does a change
win on every end-to-end metric, by the benchmark's claim rule?

    python3 tools/pairs.py REV --workload W [--pairs 10] [--first-seed 0]

REV's files are unpacked with ``git archive`` into a temporary directory, as
``tools/bitwise.py`` does, and this tree's ``bench/`` and ``BENCHMARK.json``
replace the checkout's, so both sides run the same benchmark code and only
``src/`` differs. Pair i, counted from 0, runs ``bench/run.py --workload W
--seed S+i``, S being ``--first-seed``, on both trees, one after the other,
REV first in even pairs and this tree first in odd ones, so that a drift of
the machine falls on both sides alike. A claim can so be judged on seeds
that no run made while building the change has seen. Each run lasts
``BENCHMARK.json``'s ``run_seconds``, the length a claim is judged at. Runs
are untraced and write no bytecode; the checkout is removed again.

For each end-to-end metric ``BENCHMARK.json`` declares, the verdict gives
each side's median and quartiles, the pairs in which this tree is better,
and two judgements:
- against the metric's ``bound``, a fraction of REV's median: ``regressed``
  when this tree's median is worse than REV's by more than the bound,
  ``within bound`` when it is not, and ``unresolved`` when REV's
  interquartile range is wider than the bound, so that the runs cannot
  tell, unless every run of this tree beats every run of REV;
- whether a claim of a gain holds: this tree better in at least 9 of 10
  pairs, and its median better than REV's by more than REV's
  interquartile range. With fewer than 10 pairs the claim reads n/a: the
  rule needs ten.
It also gives each side's failed operations.

Exit status: 0 when every run completed, 2 when one failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bitwise import TREE, unpack


def bench_run(root, workload, seed, seconds):
    """The result line of one untraced ``bench/run.py`` run in `root`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"bench/run.py in {root} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


CLAIM_PAIRS = 10


def quartiles(values):
    """(Q1, median, Q3) of `values`, as ``statistics.quantiles`` cuts them;
    `values` holds at least one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def regression(metric, parent, change):
    """`metric`'s judgement against its bound from the values of REV
    (`parent`) and of this tree (`change`): ``regressed``, ``within
    bound`` or ``unresolved``, as the module says."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    allowed = metric["bound"] * abs(pm)
    if p3 - p1 > allowed and not all(sign * (p - c) > 0
                                     for p in parent for c in change):
        return "unresolved"
    return "regressed" if sign * (quartiles(change)[1] - pm) > allowed \
        else "within bound"


def verdict(metric, parent, change):
    """One line for `metric`, a ``BENCHMARK.json`` end-to-end entry, from
    the paired values of REV (`parent`) and of this tree (`change`), one
    or more pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if len(parent) < CLAIM_PAIRS:
        claim = "n/a"
    elif wins * 10 >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        claim = "holds"
    else:
        claim = "fails"
    gap = (cm - pm) / pm if pm else float("nan")
    return (f"{metric['name']:>20} ({metric['better']} is better): "
            f"REV {pm:.6g} [{p1:.6g}, {p3:.6g}]  this tree {cm:.6g} "
            f"[{c1:.6g}, {c3:.6g}]  {gap:+.2%}  wins {wins}/{len(parent)}  "
            f"{regression(metric, parent, change)}  claim {claim}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare this tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="seed of the first pair; pair i runs seed "
                        "FIRST_SEED + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.first_seed < 0:
        parser.error("--first-seed must be at least 0")
    spec = json.loads((TREE / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkout = Path(tmp) / "rev"
        unpack(args.rev, checkout)
        shutil.rmtree(checkout / "bench", ignore_errors=True)
        shutil.copytree(TREE / "bench", checkout / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(TREE / "BENCHMARK.json", checkout / "BENCHMARK.json")
        sides = {"rev": checkout, "tree": TREE}
        results = {side: [] for side in sides}
        try:
            for i in range(args.pairs):
                order = ("rev", "tree") if i % 2 == 0 else ("tree", "rev")
                for side in order:
                    results[side].append(bench_run(
                        sides[side], args.workload, args.first_seed + i,
                        seconds))
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}, "
          f"REV = {args.rev}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if all(name in r["metrics"] for rs in results.values() for r in rs):
            print(verdict(metric, *([r["metrics"][name]["value"]
                                     for r in results[side]]
                                    for side in ("rev", "tree"))))
    for side, label in (("rev", "REV"), ("tree", "this tree")):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{label}: {failed} of {attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
