#!/usr/bin/env python
"""Interleaved parent/change pairs of one perfbench workload, summarised.

Run from the repository root::

    python tools/perf_pairs.py --workload eval-faults --parent HEAD~1 --seeds 41 42 43 --pairs 10
    python tools/perf_pairs.py --workload eval-clean --parent main --seconds 30 --trace 1

The change is the working tree this script sits in; the parent is ``--parent``
checked out in a temporary ``git worktree`` that is removed afterwards.  Pair
``i`` runs ``perfbench/run.py`` once on each side with seed
``seeds[i % len(seeds)]``, and the side that runs first alternates from pair
to pair.  Each run is one child process that finishes before the next starts,
so nothing is left running.

For every end-to-end metric of ``BENCHMARK.json`` the summary prints each
side's median and quartiles, the pairs the change won (ties count for
neither), whether the change's median is within the metric's bound of the
parent's, and whether a gain may be claimed: over at least ten pairs, the
change wins at least nine tenths of them and the medians differ by more
than the parent's interquartile range.  It also reports every run that was
not ``correct`` and any seed whose prediction digests differ between the
sides.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "predictions digest"


def parse_run(stdout: str) -> Dict[str, object]:
    """A run's last-line JSON result plus its ``predictions digest`` line (``None`` when absent)."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("the run printed no result line")
    result = json.loads(lines[-1])
    digests = [line.split(":", 1)[1].strip() for line in lines if line.startswith(DIGEST_PREFIX)]
    result["digest"] = digests[0] if digests else None
    return result


def summarize(
    parent: Sequence[Dict[str, object]], change: Sequence[Dict[str, object]], metrics: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """One row per metric from paired results (``parent[i]`` beside ``change[i]``).

    ``metrics`` are ``BENCHMARK.json`` entries (``name``, ``unit``, ``better``,
    ``bound``).  A pair with a run that is not ``correct`` is left out.
    """
    pairs = [(p, c) for p, c in zip(parent, change) if p.get("correct") and c.get("correct")]
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
        if not both:
            continue
        before, after = np.array(both, dtype=float).T
        q1, median, q3 = np.percentile(before, [25, 50, 75])
        c1, change_median, c3 = np.percentile(after, [25, 50, 75])
        gain = sign * (change_median - median)
        wins = int(np.sum(sign * (after - before) > 0))
        worse_by = -gain / abs(median) if median else 0.0
        rows.append(
            {
                "name": name,
                "unit": metric["unit"],
                "parent": (median, q1, q3),
                "change": (change_median, c1, c3),
                "wins": wins,
                "pairs": len(both),
                "within_bound": worse_by <= metric["bound"],
                "claim": len(both) >= 10 and wins >= 0.9 * len(both) and gain > q3 - q1,
            }
        )
    return rows


def format_rows(rows: Sequence[Dict[str, object]]) -> str:
    def cell(stats):
        median, q1, q3 = stats
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    header = f"{'metric':<44}{'unit':<7}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
    lines = [header + "  wins  bound  claim"]
    for row in rows:
        bound, claim = "ok" if row["within_bound"] else "WORSE", "yes" if row["claim"] else "no"
        lines.append(
            f"{row['name']:<44}{row['unit']:<7}{cell(row['parent']):>30}{cell(row['change']):>30}"
            f"  {row['wins']:>2}/{row['pairs']:<2} {bound:>5}  {claim}"
        )
    return "\n".join(lines)


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> Optional[Dict[str, object]]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return parse_run(proc.stdout)
    except ValueError:
        sys.stderr.write(proc.stderr[-2000:])
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    for metric in metrics:
        metric.setdefault("bound", float("inf"))

    parent_results, change_results, failures, digests = [], [], [], set()
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        tree = Path(scratch) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.parent], cwd=ROOT, check=True)
        try:
            for pair in range(args.pairs):
                seed = args.seeds[pair % len(args.seeds)]
                sides = [("parent", tree), ("change", ROOT)]
                results = {}
                for side, where in sides if pair % 2 == 0 else sides[::-1]:
                    results[side] = run_side(where, args.workload, seed, seconds, args.trace)
                    ok = results[side] is not None and results[side]["correct"]
                    print(f"pair {pair + 1} seed {seed} {side}: {'ok' if ok else 'FAILED'}", flush=True)
                    if not ok:
                        failures.append((pair + 1, side))
                parent_results.append(results["parent"] or {"correct": False})
                change_results.append(results["change"] or {"correct": False})
                pair_digests = {results[side].get("digest") for side in results if results[side]}
                if len(pair_digests) > 1:
                    digests.add(seed)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    print(f"\n{args.workload}: change vs {args.parent}, {args.pairs} pairs of {seconds:g} s, seeds {args.seeds}")
    print(format_rows(summarize(parent_results, change_results, metrics)))
    if failures:
        print(f"runs not correct: {failures}")
    if digests:
        print(f"prediction digests differ between the sides on seeds {sorted(digests)}")
    return 1 if failures or digests else 0


if __name__ == "__main__":
    sys.exit(main())
