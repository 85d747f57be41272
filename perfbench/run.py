"""End-to-end benchmark of the SC-ViT reproduction: offline eval and serving.

Run from the repository root::

    python3 perfbench/run.py --workload eval-clean --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that spans every layer and prints the
per-layer table.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
output check fails prints ``"correct": false`` and exits 1; a run that
cannot import the program exits 2 without a result.

BLAS is pinned to one thread before numpy loads, so the numbers do not
depend on how many cores OpenBLAS grabs; the host's CPU count and
hypervisor steal over the measured window are printed with every run.
Timings are reported at reference host speed: each is scaled by a fixed
probe timed right beside it (``host.SpeedProbe``), because the host's
speed drifts by up to 2x within minutes.  The unscaled figures and the
probe's time are printed on the ``host.speed`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import schema  # noqa: E402  (after the BLAS pin)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*schema.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(schema.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    if workload.startswith("eval-"):
        import eval_workloads as module
    else:
        import serve_workloads as module
    return module.run(workload, seed, seconds, trace)


def result_json(outcome, trace: bool) -> dict:
    """The last output line: every end-to-end (or per-layer) metric by unit."""
    if trace:
        metrics = {
            name: {"value": float(outcome.per_layer.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in schema.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(outcome.end_to_end[name]), "unit": unit}
            for name, (unit, _, _) in schema.END_TO_END.items()
        }
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; one summary table at the end."""
    results = {}
    for workload in schema.WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    names = list(schema.PER_LAYER if args.trace else schema.END_TO_END)
    print(f"\n{'metric':<44}" + "".join(f"{w:>15}" for w in results))
    for name in names:
        cells = []
        for result in results.values():
            cells.append(f"{result['metrics'][name]['value']:>15.4g}" if result else f"{'-':>15}")
        unit = (schema.PER_LAYER if args.trace else schema.END_TO_END)[name][0]
        print(f"{name + ' [' + unit + ']':<44}" + "".join(cells))
    ok = all(result is not None and result["correct"] for result in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host.cpus: {os.cpu_count()}  blas_threads: {os.environ['OPENBLAS_NUM_THREADS']}")
    outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.info:
        print(line)
    result = result_json(outcome, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<44}{metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
