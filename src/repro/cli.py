"""Unified reproduction CLI — ``python -m repro <subcommand>``.

Every paper artifact is reachable from one entry point, driven through the
sweep orchestrator (:mod:`repro.runner`), so any sweep can be parallelised
(``--workers N``), resumed (``--cache-dir``), and reproduced byte-for-byte
against the serial path (``--workers 1``):

* ``dse``        — the Fig. 8 softmax design-space exploration + Pareto front,
* ``gelu-sweep`` — the Fig. 7 GELU BSL/degree sweep,
* ``tables``     — the table benches (currently Table IV),
* ``eval``       — batched end-to-end SC-ViT dataset evaluation (accuracy vs
  BSL / fault-rate grids through :mod:`repro.eval_pipeline`),
* ``serve``      — the async dynamic-batching inference service
  (:mod:`repro.serve`): JSON-lines-on-stdio or localhost-HTTP transports
  over a micro-batching, result-cached SC-ViT engine — in-process thread
  pool or sharded worker processes, described declaratively by a
  :class:`repro.serve.ServeSpec` file (``--spec deployment.json``),
* ``run``        — execute declarative spec files
  (:class:`repro.blocks.ExperimentSpec`, ``serve/deployment``,
  ``serve/scenario``, ``fabric/design`` or ``fabric/run`` JSON, routed by
  their ``kind`` tag; see ``examples/specs/``),
* ``scenario``   — declarative resilience scenarios (:mod:`repro.scenarios`):
  replay a deterministic or recorded request stream against a deployment
  while firing timed degradations (shard kills, cache loss, fault storms,
  queue bursts) and judging declarative assertions (bit-identity vs
  offline eval, SLO ceilings, recovery deadlines),
* ``fabric``     — the bitstream-configurable accelerator-fabric simulator
  (:mod:`repro.fabric`): place-and-route a block schedule onto a tile
  grid, compile the configured routing graph and execute it on the packed
  SC engine, cross-checked bit-for-bit against the golden block path
  (``fabric/design`` summaries, ``fabric/run`` cached executions),
* ``blocks``     — list the registered circuit-block families
  (:mod:`repro.blocks`), their encodings, parameter schemas, hardware
  cost and fabric mappability, or regenerate the Table I capability
  matrix,
* ``bench``      — the perf regression harnesses (packed engine, serving,
  fabric) and their floor check,
* ``trace``      — summarize an exported telemetry trace
  (:mod:`repro.telemetry`): span stats by name and by process and instant
  events from a Chrome-trace/Perfetto JSON or JSONL export,
* ``verify``     — self-checks, each verdict taken from a path the repo
  already gates on: DSE parallel == serial and cache round-trip, eval
  batched == per-image (the ``eval --verify-batched`` path), served ==
  offline through a flash-crowd shard-kill scenario on the thread and
  process engines, and fabric == golden blocks path, each fault-free and
  under bit flips.

Global ``--log-level``/``--log-json`` configure the structured ``repro``
logger (:mod:`repro.telemetry.logging`) — all diagnostic chatter goes to
stderr through it, stdout stays reserved for results and transports.

Test vectors default to the same sizes/seeds the ``benchmarks/`` scripts
use, so CLI runs and bench runs share cache entries.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence

__all__ = ["main", "build_parser"]

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: DSE grid presets.  ``full`` is the paper's 2916-design grid; ``small``
#: matches the reduced grid of the Fig. 8 bench; ``tiny`` is an 8-design
#: grid for CI smoke runs and tests.
DSE_GRIDS = {
    "full": {},
    "small": {
        "by_choices": (4, 8, 16),
        "iteration_choices": (2, 3),
        "s1_choices": (8, 32, 128),
        "s2_choices": (2, 8, 32),
        "alpha_y_multipliers": (0.5, 1.0),
    },
    "tiny": {
        "by_choices": (4, 8),
        "iteration_choices": (2,),
        "s1_choices": (16, 64),
        "s2_choices": (4, 16),
        "alpha_y_multipliers": (1.0,),
    },
}


# ---------------------------------------------------------------------------
# Shared option plumbing
# ---------------------------------------------------------------------------


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process fallback, 0 = all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument("--out", type=Path, default=None, help="write results as JSON to this path")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _make_cache(args: argparse.Namespace) -> Optional[Any]:
    if args.no_cache:
        return None
    from repro.runner.cache import ResultCache

    return ResultCache(args.cache_dir)


def _make_reporter(args: argparse.Namespace, label: str) -> Any:
    from repro.evaluation.reporting import ProgressReporter

    return ProgressReporter(label, quiet=args.quiet)


def _print_table(name: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    from repro.evaluation.reporting import format_table

    print(f"\n=== {name} ===")
    print(format_table(headers, rows))


def _write_json(out: Optional[Path], payload: dict) -> None:
    if out is None:
        return
    from repro.evaluation.reporting import save_json_report

    save_json_report(out, payload)
    print(f"wrote {out}")


def _print_cache_counters(cache: Optional[Any]) -> None:
    """One result-cache accounting line (hits/misses/stores) per command."""
    counters = getattr(cache, "counters", None)
    if not callable(counters):
        return
    c = counters()
    print(
        f"result cache: {c['hits']} hits, {c['misses']} misses, "
        f"{c['stores']} stores"
    )


# ---------------------------------------------------------------------------
# dse — Fig. 8 design-space exploration
# ---------------------------------------------------------------------------


def _bench_logits(rows: int, m: int, seed: int):
    """``rows`` logit vectors sliced from the benches' 200-row set.

    ``attention_logit_vectors`` is not prefix-stable across sizes, and the
    Fig. 8 / Table IV benches evaluate on ``vectors(200)[:rows]``: slicing
    the same way is what makes CLI and bench runs share cache entries.
    """
    from repro.evaluation.vectors import attention_logit_vectors

    return attention_logit_vectors(max(rows, 200), m, seed=seed)[:rows]


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.core.dse import SoftmaxDesignSpace

    cache = _make_cache(args)
    logits = _bench_logits(args.rows, args.m, args.vectors_seed)
    grid_kwargs = DSE_GRIDS[args.grid]

    payload: dict = {"grid": args.grid, "rows": args.rows, "spaces": {}}
    summary_rows = []
    pareto_rows = []
    for bx in args.bx:
        space = SoftmaxDesignSpace(bx=bx, test_vectors=logits, **grid_kwargs)
        reporter = _make_reporter(args, f"dse Bx={bx}")
        points = space.explore(
            max_designs=args.max_designs,
            workers=args.workers,
            cache=cache,
            reporter=reporter,
        )
        stats = space.last_run_stats
        pareto = space.pareto_points(points)
        feasible = [p for p in points if p.feasible]
        summary_rows.append(
            (
                f"Bx={bx}",
                space.grid_size(),
                len(points),
                len(feasible),
                len(pareto),
                stats.evaluated,
                stats.cache_hits,
            )
        )
        for point in pareto:
            pareto_rows.append((f"Bx={bx}", *point.as_row()))
        payload["spaces"][str(bx)] = {
            "grid_size": space.grid_size(),
            "explored": len(points),
            "feasible": len(feasible),
            "evaluated": stats.evaluated,
            "cache_hits": stats.cache_hits,
            "workers": stats.workers,
            "seconds": stats.seconds,
            "pareto": [list(point.as_row()) for point in pareto],
        }

    _print_table(
        "dse summary",
        ["Space", "Grid size", "Explored", "Feasible", "Pareto", "Evaluated", "Cache hits"],
        summary_rows,
    )
    if pareto_rows:
        _print_table(
            "dse pareto front",
            ["Space", "By", "s1", "s2", "k", "Area (um2)", "Delay (ns)", "ADP", "MAE"],
            pareto_rows,
        )
    _print_cache_counters(cache)
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# gelu-sweep — Fig. 7
# ---------------------------------------------------------------------------


def cmd_gelu_sweep(args: argparse.Namespace) -> int:
    from repro.evaluation.vectors import gelu_input_vectors
    from repro.runner.tasks import fig7_gelu_rows

    samples = gelu_input_vectors(args.samples, seed=args.vectors_seed)
    cache = _make_cache(args)
    rows = fig7_gelu_rows(
        samples,
        workers=args.workers,
        cache=cache,
        reporter=_make_reporter(args, "gelu-sweep"),
    )
    stats = fig7_gelu_rows.last_run_stats
    headers = ["Series", "BSL", "ADP (um2*ns)", "MAE"]
    _print_table("fig7 gelu sweep", headers, rows)
    print(f"[{stats.summary()}]")
    _print_cache_counters(cache)
    _write_json(args.out, {"headers": headers, "rows": [list(r) for r in rows]})
    return 0


# ---------------------------------------------------------------------------
# tables — the table benches
# ---------------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.runner.tasks import table4_rows

    if args.table != "table4":  # future-proofing; argparse already restricts
        raise SystemExit(f"unknown table {args.table!r}")
    logits = _bench_logits(args.rows, 64, args.vectors_seed)
    cache = _make_cache(args)
    rows = table4_rows(
        logits,
        workers=args.workers,
        cache=cache,
        reporter=_make_reporter(args, "table4"),
    )
    stats = table4_rows.last_run_stats
    headers = ["Design", "Area (um2)", "Delay (ns)", "ADP (um2*ns)", "MAE"]
    _print_table("table4 softmax blocks", headers, rows)
    print(f"[{stats.summary()}]")
    _print_cache_counters(cache)
    _write_json(args.out, {"headers": headers, "rows": [list(r) for r in rows]})
    return 0


# ---------------------------------------------------------------------------
# eval — batched end-to-end SC-ViT dataset evaluation
# ---------------------------------------------------------------------------


def _eval_task(args: argparse.Namespace):
    """The ``repro eval`` task and config grid an argv describes."""
    from repro.eval_pipeline import EvalTask, build_sc_vit, eval_grid

    model, train, test = build_sc_vit(args, test_size=args.test_size)
    if args.checkpoint is not None:
        print(f"loaded checkpoint {args.checkpoint}")
    available = {"train": (train.images, train.labels), "test": (test.images, test.labels)}

    task = EvalTask(
        model=model,
        splits={name: available[name] for name in args.splits},
        calibration_images=train.images[: args.calibration_images],
        max_images=args.max_images,
        batch_size=args.batch_size,
    )
    configs = eval_grid(
        by_grid=args.by_grid,
        s1=args.s1,
        s2=args.s2,
        k=args.k,
        gelu_bsl=args.gelu_bsl,
        flip_probs=args.flip_probs,
        splits=args.splits,
        fault_seed=args.fault_seed,
    )
    return task, configs


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval_pipeline import run_eval_grid

    task, configs = _eval_task(args)
    reporter = _make_reporter(args, "eval")
    cache = _make_cache(args)
    results = run_eval_grid(task, configs, workers=args.workers, cache=cache, reporter=reporter)
    stats = run_eval_grid.last_run_stats

    headers = ["Split", "[By, s1, s2, k]", "GELU BSL", "Flip prob", "Accuracy (%)", "Images"]
    rows = [
        (
            result.split,
            result.softmax_config.describe(),
            "exact" if result.gelu_output_bsl is None else result.gelu_output_bsl,
            config["flip_prob"],
            round(result.accuracy, 2),
            result.num_images,
        )
        for config, result in zip(configs, results)
    ]
    _print_table("eval accuracy grid", headers, rows)
    print(f"[{stats.summary()}]")
    print(f"re-evaluations: {stats.evaluated} ({stats.cache_hits} served from cache)")
    _print_cache_counters(cache)
    # Wall-clock throughput over the whole grid, from the reporter's timer
    # (the same span the progress line covered).  Cache hits count images
    # too: serving a split from cache is the throughput the user got.
    total_images = sum(result.num_images for result in results)
    elapsed = reporter.elapsed_seconds
    throughput = total_images / elapsed if elapsed > 0 else float("inf")
    print(
        f"throughput: {throughput:.1f} images/s "
        f"({total_images} images across {stats.total} configs in {elapsed:.2f}s wall-clock)"
    )

    failures = _verify_batched(task, configs, results) if args.verify_batched else []
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)

    _write_json(
        args.out,
        {
            "dataset": args.dataset,
            "headers": headers,
            "rows": [list(r) for r in rows],
            "stats": {
                "total": stats.total,
                "evaluated": stats.evaluated,
                "cache_hits": stats.cache_hits,
                "workers": stats.workers,
                "seconds": stats.seconds,
                "total_images": total_images,
                "wall_seconds": elapsed,
                "throughput_img_per_s": None if elapsed <= 0 else throughput,
            },
        },
    )
    return 1 if failures else 0


def _verify_batched(task, configs, results) -> List[str]:
    """Re-run one config per fault rate one image at a time and compare bits.

    Every distinct fault rate is covered, not just the (fault-free) first
    grid entry: the fault path is exactly where batched/per-image
    divergence risk lives (per-image fault seeding, site sequencing).
    Prints a PASS line per matching config; returns the failures.
    """
    import numpy as np

    from repro.training.datasets import DatasetSplit

    failures = []
    checked = set()
    for config, batched in zip(configs, results):
        if config["flip_prob"] in checked:
            continue
        checked.add(config["flip_prob"])
        images, labels = task.splits[config["split"]]
        split = DatasetSplit(images=images, labels=labels)
        per_image = task.pipeline(config).evaluate(split, max_images=task.max_images, batch_size=1)
        label = f"config {config['split']}/{per_image.softmax_config.describe()}, flip_prob={config['flip_prob']}"
        if (
            np.array_equal(per_image.predictions, batched.predictions)
            and per_image.accuracy == batched.accuracy
        ):
            print(f"PASS batched == per-image ({per_image.num_images} images, {label})")
        else:
            failures.append(f"batched evaluation differs from the serial per-image path ({label})")
    return failures


# ---------------------------------------------------------------------------
# run — declarative spec files (experiments, deployments, scenarios)
# ---------------------------------------------------------------------------


#: The ``repro run`` sniff table: JSON ``kind`` tag -> (spec class as
#: ``module:Class``, subcommand).  Classes resolve on use so the CLI starts
#: without importing the serving and fabric stacks.  Adding another kind
#: is one entry here, and the unknown-kind error enumerates this table;
#: files without a ``kind`` tag are classic :class:`ExperimentSpec`
#: documents.
RUN_SPEC_KINDS = {
    "serve/deployment": ("repro.serve.specs:ServeSpec", "serve"),
    "serve/scenario": ("repro.scenarios.specs:ScenarioSpec", "scenario"),
    "fabric/design": ("repro.fabric.specs:FabricSpec", "fabric"),
    "fabric/run": ("repro.fabric.specs:FabricRunSpec", "fabric"),
}


def _run_entry(payload: Any, parser: argparse.ArgumentParser, overrides: dict, path: Path) -> tuple:
    """``(spec, argv)`` for one decoded spec file.

    The kind tag routes through :data:`RUN_SPEC_KINDS`; untagged files are
    :class:`ExperimentSpec` documents, and an unknown tag is an explicit
    error (silently treating it as an experiment would bury the typo).  A
    runner override the tagged subcommand has no option for is an error
    too, rather than a flag dropped without a word.
    """
    from repro.blocks.experiment import ExperimentSpec, subcommand_options

    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind is None:
        spec = ExperimentSpec.from_dict(payload)
        spec.validate_options(parser)
        return spec, spec.to_argv(overrides)
    if kind not in RUN_SPEC_KINDS:
        raise ValueError(
            f"unknown spec kind {kind!r}; expected one of {', '.join(sorted(RUN_SPEC_KINDS))}, "
            "or an experiment spec without a kind tag"
        )
    class_path, subcommand = RUN_SPEC_KINDS[kind]
    module, name = class_path.split(":")
    spec = getattr(importlib.import_module(module), name).from_dict(payload)
    known = subcommand_options(parser, subcommand)
    ignored = ["--" + key.replace("_", "-") for key in overrides if key not in known]
    if ignored:
        raise ValueError(
            f"repro {subcommand} takes no {', '.join(ignored)}, so it cannot override a {kind} spec"
        )
    argv = ["serve", "--spec", str(path)] if subcommand == "serve" else [subcommand, str(path)]
    for key, value in overrides.items():
        argv += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
    return spec, argv


def cmd_run(args: argparse.Namespace) -> int:
    from repro.utils.specs import load_file

    overrides = {
        key: value
        for key, value in (("workers", args.workers), ("cache_dir", args.cache_dir), ("out", args.out))
        if value is not None
    }
    if args.quiet:
        overrides["quiet"] = True

    if args.out is not None and len(args.spec) > 1:
        raise SystemExit(
            "--out overrides a single spec's output path and would be overwritten "
            "per spec; with multiple spec files set runner.out inside each file"
        )

    parser = build_parser()
    # Load and validate every spec before running any: a typo in the third
    # file should not surface after an hour of sweeping the first two.
    try:
        entries = [
            load_file(path, lambda payload, path=path: _run_entry(payload, parser, overrides, path))
            for path in args.spec
        ]
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc

    exit_code = 0
    for path, (spec, argv) in zip(args.spec, entries):
        print(f"== {spec.name or getattr(spec, 'task', 'serve')} ({path}) ==")
        if spec.description:
            print(spec.description)
        print(f"-> repro {' '.join(argv)}")
        run_args = parser.parse_args(argv)
        exit_code |= int(run_args.func(run_args) or 0)
    return exit_code


# ---------------------------------------------------------------------------
# scenario — declarative resilience scenarios over the serving tier
# ---------------------------------------------------------------------------


def _run_cached_spec(task: Any, kind: str, path: Path, spec: Any, cache: Any, args: argparse.Namespace):
    """One spec through a serial sweep runner; returns ``(result, stats)``.

    A scenario drives a whole (often multi-process) service and a fabric
    run a full place-and-route + compile + execute cycle, so each runs
    serially; the runner still provides the shared content-addressed cache
    and its hit accounting.
    """
    from repro.runner.runner import ParallelSweepRunner

    label = spec.name or Path(path).stem
    print(f"== {kind} {label} ({path}) ==")
    if spec.description:
        print(spec.description)
    runner = ParallelSweepRunner(task, workers=1, cache=cache, reporter=_make_reporter(args, f"{kind} {label}"))
    return runner.run([spec.to_dict()])[0], runner.stats


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.runner.tasks import ScenarioTask
    from repro.scenarios import ScenarioSpec

    specs = []
    try:
        for path in args.spec:
            spec = ScenarioSpec.from_file(path)
            if args.engine is not None and args.engine != spec.deployment.engine:
                # An explicit engine override is a different deployment and
                # therefore a different cache identity — exactly right: the
                # CI matrix runs the same scenario file per engine family.
                spec = spec.with_updates(
                    deployment=spec.deployment.with_updates(engine=args.engine)
                )
            specs.append(spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc

    cache = _make_cache(args)
    trace_dir = None if args.trace_dir is None else str(args.trace_dir)
    results = []
    evaluated = cache_hits = 0
    exit_code = 0
    for path, spec in zip(args.spec, specs):
        task = ScenarioTask(base_dir=str(Path(path).parent), trace_dir=trace_dir)
        result, stats = _run_cached_spec(task, "scenario", path, spec, cache, args)
        evaluated += stats.evaluated
        cache_hits += stats.cache_hits
        results.append(result)
        _print_scenario_result(result, cached=stats.cache_hits > 0)
        if trace_dir is not None:
            # The exported trace is a side artifact (never part of the
            # cached payload); a cached result produces no new trace.
            stem = (spec.name or "scenario").replace("/", "_")
            trace_path = Path(trace_dir) / f"{stem}.trace.json"
            if trace_path.exists():
                print(f"trace: {trace_path}")
        if not result["ok"]:
            exit_code = 1
    _print_cache_counters(cache)
    _write_scenario_job_summary(results)
    _write_json(
        args.out,
        {
            "scenarios": results,
            "stats": {"evaluated": evaluated, "cache_hits": cache_hits},
        },
    )
    return exit_code


#: Columns of a scenario's assertion table (stdout and the job summary).
ASSERTION_HEADERS = ["check", "bound", "measured", "status"]


def _assertion_rows(result: dict, fail: str = "FAIL") -> List[tuple]:
    """One ``(check, bound, measured, status)`` row per judged assertion."""
    return [
        (
            v["check"],
            "-" if v["value"] is None else f"{v['value']:g}",
            "-" if v["measured"] is None else f"{v['measured']:.2f}",
            "pass" if v["passed"] else fail,
        )
        for v in result["assertions"]
    ]


def _print_scenario_result(result: dict, cached: bool = False) -> None:
    requests = result["requests"]
    latency = result["latency"]
    source = " (cached result)" if cached else ""
    print(
        f"{result['workload']['arrival']} x{result['workload']['requests']}: "
        f"{requests['completed']} completed, {requests['rejected']} rejected, "
        f"{requests['timeouts']} timeouts, {requests['errors']} errors in "
        f"{result['elapsed_s']:.2f}s ({result['throughput_per_s']:.1f} req/s){source}"
    )
    if latency["p99_ms"] is not None:
        print(
            f"latency p50/p95/p99: {latency['p50_ms']:.2f}/"
            f"{latency['p95_ms']:.2f}/{latency['p99_ms']:.2f} ms"
        )
    _print_table("assertions", ASSERTION_HEADERS, _assertion_rows(result))
    verdict = "PASS" if result["ok"] else "FAIL"
    print(f"scenario {result['name'] or '<unnamed>'}: {verdict}")


def _write_scenario_job_summary(results: Sequence[dict]) -> None:
    """One job-summary section per scenario: verdicts + the stats timeline."""
    import os

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path or not results:
        return
    from repro.evaluation.reporting import format_markdown_table

    with open(summary_path, "a") as handle:
        for result in results:
            verdict = "all assertions pass" if result["ok"] else "ASSERTIONS FAILED"
            handle.write(f"### Scenario `{result['name'] or 'unnamed'}` — {verdict}\n\n")
            requests = result["requests"]
            handle.write(
                f"- {result['workload']['arrival']} arrivals x"
                f"{result['workload']['requests']}: {requests['completed']} completed, "
                f"{requests['rejected']} rejected, {requests['timeouts']} timeouts, "
                f"{requests['errors']} errors, {requests['bit_mismatches']} bit mismatches\n"
            )
            if result["deaths"] or result["recoveries_ms"]:
                recoveries = ", ".join(
                    "never" if r is None else f"{r:.0f}ms" for r in result["recoveries_ms"]
                )
                handle.write(
                    f"- deaths: {result['deaths']}, recoveries: {recoveries or 'n/a'}, "
                    f"autoscale actions: {result['scale_actions']}\n"
                )
            handle.write("\n")
            handle.write(
                format_markdown_table(ASSERTION_HEADERS, _assertion_rows(result, fail="**FAIL**"))
            )
            handle.write("\n\n")
            timeline_rows = [
                (
                    entry["label"],
                    entry["at_request"],
                    f"{entry['t_s']:.2f}",
                    entry["completed"],
                    entry["rejected"],
                    entry["timeouts"],
                    entry["queue_depth"],
                    "-" if entry["p99_ms"] is None else f"{entry['p99_ms']:.1f}",
                )
                for entry in result["timeline"]
            ]
            handle.write(
                format_markdown_table(
                    ["phase", "at req", "t (s)", "completed", "rejected",
                     "timeouts", "queue", "p99 (ms)"],
                    timeline_rows,
                )
            )
            handle.write("\n\n")
            engine_stats = result.get("final_stats", {}).get("engine", {})
            if isinstance(engine_stats, dict) and "per_shard" in engine_stats:
                shard_rows = [
                    (shard, snap["batching"]["batched_images"], snap["batching"]["batches"], snap["errors"])
                    for shard, snap in sorted(engine_stats["per_shard"].items())
                ]
                handle.write(
                    format_markdown_table(["shard", "images", "batches", "errors"], shard_rows)
                )
                handle.write("\n\n")


# ---------------------------------------------------------------------------
# fabric — the bitstream-configurable accelerator-fabric simulator
# ---------------------------------------------------------------------------


def cmd_fabric(args: argparse.Namespace) -> int:
    from repro.fabric import FabricRunSpec, FabricSpec, mappable_families
    from repro.runner.tasks import FabricTask
    from repro.utils.specs import load_file

    def decode(payload: Any) -> Any:
        for spec_cls in (FabricSpec, FabricRunSpec):
            if spec_cls.sniff(payload):
                return spec_cls.from_dict(payload)
        kind = payload.get("kind") if isinstance(payload, dict) else None
        raise ValueError(f"expected a fabric/design or fabric/run spec, got kind {kind!r}")

    designs = []
    runs = []
    for path in args.spec:
        try:
            spec = load_file(path, decode)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
        (designs if isinstance(spec, FabricSpec) else runs).append((path, spec))

    exit_code = 0
    out_payload: dict = {"designs": [], "runs": []}

    for path, design in designs:
        families = sorted(name for name, ok in mappable_families(design).items() if ok)
        print(f"== fabric design {design.name or Path(path).stem} ({path}) ==")
        if design.description:
            print(design.description)
        print(
            f"grid {design.rows}x{design.cols} ({design.mem_cols} memory column(s), "
            f"{len(design.pe_tiles)} PE tiles), word {design.word_bits} bits, "
            f"payload capacity {design.payload_capacity_bytes} bytes/tile"
        )
        print(f"mappable families ({len(families)}): {', '.join(families)}")
        out_payload["designs"].append(
            {
                "spec": design.to_dict(),
                "pe_tiles": len(design.pe_tiles),
                "payload_capacity_bytes": design.payload_capacity_bytes,
                "mappable_families": list(families),
            }
        )

    cache = _make_cache(args) if runs else None
    evaluated = cache_hits = 0
    for path, spec in runs:
        result, stats = _run_cached_spec(FabricTask(), "fabric run", path, spec, cache, args)
        evaluated += stats.evaluated
        cache_hits += stats.cache_hits
        _print_fabric_result(result, cached=stats.cache_hits > 0)
        out_payload["runs"].append(result)
        if not result["bit_identical"]:
            exit_code = 1
    if runs:
        out_payload["stats"] = {"evaluated": evaluated, "cache_hits": cache_hits}
        _print_cache_counters(cache)
    _write_json(args.out, out_payload)
    return exit_code


def _print_fabric_result(result: dict, cached: bool = False) -> None:
    source = " (cached result)" if cached else ""
    bitstream = result["bitstream"]
    timings = result["timings_ms"]
    print(
        f"grid {result['grid']}: {len(result['slots'])} slot(s), "
        f"{bitstream['writes']} config writes ({bitstream['bytes']} bytes, "
        f"digest {bitstream['digest'][:12]}...){source}"
    )
    print(
        f"timings: place+route {timings['place_route']:.2f} ms, "
        f"configure+compile {timings['configure_compile']:.2f} ms, "
        f"execute {timings['execute']:.2f} ms"
    )
    rows = [
        (
            slot["slot"],
            slot["tile"],
            slot["family"],
            slot["rows"],
            slot["output_digest"][:12] + "...",
            "pass" if slot["bit_identical"] else "FAIL",
        )
        for slot in result["slots"]
    ]
    _print_table(
        "fabric slots vs golden blocks.build path",
        ["slot", "tile", "family", "rows", "output digest", "bit-identity"],
        rows,
    )
    area = result.get("area_um2")
    if area is not None:
        print(f"synthesized fabric area: {area:.1f} um2")
    verdict = "PASS" if result["bit_identical"] else "FAIL"
    print(f"fabric run {result['name'] or '<unnamed>'}: bit-identity {verdict}")


# ---------------------------------------------------------------------------
# serve — the async dynamic-batching inference service
# ---------------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.deploy import build_deployment
    from repro.serve.specs import ServeSpec
    from repro.serve.transport import serve_http, serve_stdio
    from repro.telemetry.logging import get_logger

    # Structured logging to stderr: stdout belongs to the JSON-lines
    # transport, so operator chatter must never interleave with protocol
    # responses.  ``repro --log-level``/``--log-json`` control the format.
    log = get_logger("serve")

    try:
        spec = ServeSpec.from_file(args.spec)
        deployment = build_deployment(spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    log.info("deployment_spec", path=str(args.spec))
    if spec.checkpoint is not None:
        log.info("checkpoint_loaded", path=spec.checkpoint)
    service = deployment.service
    cache = deployment.cache

    async def run() -> None:
        async with service:
            log.info(
                "serving",
                dataset=spec.dataset,
                engine=spec.engine,
                workers=spec.workers,
                max_shards=spec.max_shards,
                flip_prob=spec.flip_prob,
                max_batch=spec.max_batch,
                max_wait_ms=spec.max_wait_ms,
                queue=spec.max_queue,
                cache="off" if cache is None else spec.cache_dir,
                telemetry=spec.telemetry,
            )
            if spec.transport == "http":
                server = await serve_http(service, spec.host, spec.port)
                address = server.sockets[0].getsockname()
                log.info(
                    "http_listening",
                    url=f"http://{address[0]}:{address[1]}",
                    routes="POST /predict, GET /stats, GET /healthz, GET /metrics",
                )
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    # Ctrl-C cancels this task; absorb it here so shutdown
                    # continues to the final stats summary below and the
                    # service drains cleanly on the way out.
                    pass
                finally:
                    server.close()
                    await server.wait_closed()
            else:
                log.info("stdio_listening", protocol="one request object per line; EOF stops")
                await serve_stdio(service)
            snapshot = service.stats_snapshot()
            log.info(
                "served",
                requests=snapshot["requests"]["completed"],
                cache_hits=snapshot["cache"]["hits"],
                batches=snapshot["batching"]["batches"],
                mean_batch_size=round(snapshot["batching"]["mean_batch_size"], 1),
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("interrupted")
    return 0


# ---------------------------------------------------------------------------
# blocks — the circuit-block registry catalog
# ---------------------------------------------------------------------------


def _format_default(value: Any) -> str:
    if value is ...:
        return "<required>"
    if value is None:
        return "auto"
    return repr(value)


def cmd_blocks(args: argparse.Namespace) -> int:
    import repro.blocks as blocks
    from repro.fabric import fabric_mappable

    if args.table1:
        # fabric_mappable is derived per design from the registry — a design
        # maps onto the fabric when every registered family carrying its
        # label does (no hand-maintained list to drift).
        design_mappable: dict = {}
        for name in blocks.names():
            capability = blocks.get(name).capability
            if capability is None:
                continue
            design = capability.design
            design_mappable[design] = design_mappable.get(design, True) and fabric_mappable(name)
        rows = [
            (
                row.design,
                row.supported_model,
                row.encoding_format,
                ", ".join(row.supported_functions),
                row.implementation_method,
                "yes" if design_mappable.get(row.design, False) else "no",
            )
            for row in blocks.capability_matrix()
        ]
        _print_table(
            "table1 capability matrix (from the block registry)",
            ["SC design", "Model", "Encoding", "Functions", "Method", "Fabric-mappable"],
            rows,
        )
        _write_json(
            args.out,
            {"rows": [list(r) for r in rows]},
        )
        return 0

    rows = []
    payload = {"blocks": {}}
    for name in blocks.names():
        entry = blocks.get(name)
        schema = entry.spec_cls.field_defaults()
        params = ", ".join(f"{k}={_format_default(v)}" for k, v in schema.items())
        mappable = fabric_mappable(name)
        # None (not NaN) when synthesis is skipped: NaN is not valid JSON.
        cost = None if args.no_hardware else blocks.build(name).hardware_summary()
        rows.append(
            (
                name,
                entry.function,
                f"{entry.input_encoding} -> {entry.output_encoding}",
                params,
                "n/a" if cost is None else round(cost["area_um2"], 1),
                "n/a" if cost is None else round(cost["delay_ns"], 3),
                "n/a" if cost is None else round(cost["adp"], 1),
                "yes" if mappable else "no",
            )
        )
        payload["blocks"][name] = {
            "function": entry.function,
            "method": entry.method,
            "description": entry.description,
            "input_encoding": entry.input_encoding,
            "output_encoding": entry.output_encoding,
            "parameters": {k: (None if v is ... else v) for k, v in schema.items()},
            "hardware": cost,
            "fabric_mappable": mappable,
            "default_spec": blocks.default_spec(name).to_dict(),
        }
    _print_table(
        "registered circuit blocks (defaults-built hardware cost)",
        ["Family", "Function", "Encoding", "Parameters", "Area (um2)", "Delay (ns)", "ADP", "Fabric"],
        rows,
    )
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# bench — perf regression harnesses and their floors
# ---------------------------------------------------------------------------


def _find_benchmarks_dir(explicit: Optional[Path], required: str) -> Path:
    candidates = []
    if explicit is not None:
        candidates.append(explicit)
    candidates.append(Path.cwd() / "benchmarks")
    import repro

    candidates.append(Path(repro.__file__).resolve().parents[2] / "benchmarks")
    for candidate in candidates:
        if (candidate / required).exists():
            return candidate
    raise SystemExit(f"cannot locate benchmarks/{required}; pass --benchmarks-dir")


def _load_bench_module(benchmarks_dir: Path, filename: str):
    spec = importlib.util.spec_from_file_location(
        filename.rsplit(".", 1)[0], benchmarks_dir / filename
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cmd_bench(args: argparse.Namespace) -> int:
    exit_code = 0
    for suite in _BOUNDED_SUITES:
        if args.suite in (suite, "all"):
            exit_code |= _bench_bounded(args, suite)
    return exit_code


def _lookup_metric(payload: dict, dotted: str) -> Optional[float]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


#: The ``{"min", "max"}``-bounded suites: harness, recorded results, summary title.
_BOUNDED_SUITES = {
    "engine": ("bench_perf_sc_engine.py", "BENCH_sc_engine.json", "Packed-engine speedup floors"),
    "serve": ("bench_serve_latency.py", "BENCH_serve.json", "Serve latency/throughput floors"),
    "fabric": ("bench_fabric.py", "BENCH_fabric.json", "Fabric compile/throughput floors"),
}


def _bench_bounded(args: argparse.Namespace, suite: str) -> int:
    """Run (or check) one bounded suite's harness and its floors.

    Floor entries are ``{"min": x}`` and/or ``{"max": y}`` per dotted metric
    path — speedups and throughput gate from below, tail latency and
    compile time from above.
    """
    harness_file, results_file, title = _BOUNDED_SUITES[suite]
    benchmarks_dir = _find_benchmarks_dir(args.benchmarks_dir, required=harness_file)
    results_path = benchmarks_dir / "results" / results_file

    if args.no_run:
        if not results_path.exists():
            raise SystemExit(f"--no-run: no recorded results at {results_path}")
        payload = json.loads(results_path.read_text())
        print(f"checking recorded {suite} results at {results_path}")
    else:
        harness = _load_bench_module(benchmarks_dir, harness_file)
        payload = harness.run_benchmarks()
        harness.print_report(payload)
        saved = harness.save_report(payload)
        print(f"\nsaved {saved}")

    if not args.check_floor:
        return 0

    failures = []
    summary_rows = []
    host = payload.get("host") or {}
    host_cpus = host.get("cpu_count")
    for metric, bounds in sorted(payload.get("floors", {}).items()):
        bounds = dict(bounds)
        measured = _lookup_metric(payload, metric)
        # A floor can declare the parallelism it needs to be meaningful:
        # the 2-shard scaling floor cannot physically hold on a 1-CPU host,
        # so it gates only where the host can exhibit scaling.  The
        # measurement is still recorded either way.
        requires_cpus = bounds.pop("requires_cpus", None)
        if requires_cpus is not None and host_cpus is not None and host_cpus < requires_cpus:
            shown = "n/a" if measured is None else f"{measured:.2f}"
            print(
                f"floor skipped: {metric} (measured {shown}) needs >= {requires_cpus} CPUs; "
                f"host has {host_cpus}"
            )
            summary_rows.append((metric, shown, str(bounds), f"skipped (<{requires_cpus} cpus)"))
            continue
        if measured is None:
            failures.append(f"{metric}: no measurement recorded (bounds {bounds})")
            summary_rows.append((metric, "n/a", str(bounds), "FAIL (missing)"))
            continue
        bound_text = ", ".join(f"{op} {value:g}" for op, value in sorted(bounds.items()))
        ok = True
        if "min" in bounds and measured < float(bounds["min"]):
            ok = False
        if "max" in bounds and measured > float(bounds["max"]):
            ok = False
        detail = f"{metric}: measured {measured:.2f} vs bounds ({bound_text})"
        summary_rows.append((metric, f"{measured:.2f}", bound_text, "ok" if ok else "FAIL"))
        if ok:
            print(f"floor ok: {detail}")
        else:
            failures.append(detail)
    _write_floor_job_summary(title, host, summary_rows, failures)
    if failures:
        # Every regression line carries the measured-vs-bounds numbers so a
        # red CI job shows the magnitude of the regression, not just that
        # one happened.
        for failure in failures:
            print(f"{suite.upper()} PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"{suite} floors: all pass")
    return 0


def _write_floor_job_summary(
    title: str, host: dict, rows: Sequence[Sequence[str]], failures: Sequence[str]
) -> None:
    """Append a measured-vs-floor table to the GitHub Actions job summary.

    ``GITHUB_STEP_SUMMARY`` points at the job-summary file inside Actions and
    is unset elsewhere, so local runs skip this silently.  The host's CPU
    count and numpy version precede the table so a tripped floor is
    attributable to the machine that ran it.
    """
    import os

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    from repro.evaluation.reporting import format_markdown_table

    verdict = "all floors pass" if not failures else f"{len(failures)} floor(s) violated"
    table = format_markdown_table(["benchmark", "measured", "bounds", "status"], rows)
    with open(summary_path, "a") as handle:
        handle.write(f"### {title} — {verdict}\n\n")
        if host:
            handle.write(f"- {host.get('cpu_count')} cpus, numpy {host.get('numpy')}\n\n")
        handle.write(f"{table}\n\n")


# ---------------------------------------------------------------------------
# trace — summarize exported telemetry traces
# ---------------------------------------------------------------------------


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_trace, summarize_trace

    exit_code = 0
    payload: dict = {"traces": {}}
    for path in args.trace:
        try:
            document = load_trace(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(str(exc)) from exc
        summary = summarize_trace(document)
        payload["traces"][str(path)] = summary
        other = document.get("otherData", {})
        scenario = other.get("scenario") if isinstance(other, dict) else None
        label = f" (scenario {scenario})" if scenario else ""
        print(
            f"== trace {path}{label}: {summary['events']} events, "
            f"{summary['spans']} spans, {summary['instants']} instants, "
            f"{summary['traces']} request traces across "
            f"{len(summary['processes'])} process(es) =="
        )
        columns = ["count", "total (ms)", "mean (ms)", "max (ms)"]
        _print_table("spans by name", ["span", *columns], _span_rows(summary["by_name"][: args.top]))
        if len(summary["processes"]) > 1:
            _print_table(
                "spans by process (shard workers)", ["pid", *columns], _span_rows(summary["by_process"])
            )
        if summary["instant_names"]:
            print(f"instant events: {', '.join(summary['instant_names'])}")
        if summary["events"] == 0:
            print("trace is empty (was telemetry enabled for the run?)", file=sys.stderr)
            exit_code = 1
    _write_json(args.out, payload)
    return exit_code


def _span_rows(rows: Sequence[dict]) -> List[tuple]:
    return [
        (row["key"], row["count"], f"{row['total_ms']:.2f}", f"{row['mean_ms']:.3f}", f"{row['max_ms']:.3f}")
        for row in rows
    ]


# ---------------------------------------------------------------------------
# verify — self-checks over the repo's own gates
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    """Run every self-check; PASS lines on stdout, one FAIL line per failure.

    Each verdict comes from a path the repo already gates on elsewhere, so
    verify adds no checking logic of its own.
    """
    failures = (
        _verify_dse(args.workers)
        + _verify_eval(args.workers)
        + _verify_scenarios()
        + _verify_fabric()
    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _verify_dse(workers: int) -> List[str]:
    """A tiny DSE grid: parallel == serial, and a warm re-run is all cache hits."""
    import math
    import tempfile

    from repro.core.dse import SoftmaxDesignSpace
    from repro.evaluation.vectors import attention_logit_vectors
    from repro.runner.cache import ResultCache

    def points_equal(a, b) -> bool:
        if a.config != b.config or a.feasible != b.feasible:
            return False
        for fld in ("area_um2", "delay_ns", "adp", "mae"):
            x, y = getattr(a, fld), getattr(b, fld)
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return False
        return True

    logits = attention_logit_vectors(16, 64, seed=11)
    space = SoftmaxDesignSpace(bx=4, test_vectors=logits, **DSE_GRIDS["tiny"])
    failures = []
    serial = space.explore()
    parallel = space.explore(workers=workers)
    if all(points_equal(a, b) for a, b in zip(serial, parallel)) and len(serial) == len(parallel):
        print(f"PASS parallel == serial ({len(serial)} designs, {workers} workers)")
    else:
        failures.append("parallel != serial")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        space.explore(workers=workers, cache=cache)
        first = space.last_run_stats
        cached = space.explore(workers=workers, cache=cache)
        second = space.last_run_stats
        if second.evaluated == 0 and second.cache_hits == first.total:
            print(f"PASS cache round-trip ({second.cache_hits} hits, 0 re-evaluations)")
        else:
            failures.append(
                f"cache round-trip: {second.evaluated} re-evaluations, {second.cache_hits} hits"
            )
        if all(points_equal(a, b) for a, b in zip(serial, cached)):
            print("PASS cached results identical to serial")
        else:
            failures.append("cached results differ from serial")
    return failures


def _verify_eval(workers: int) -> List[str]:
    """``repro eval --verify-batched`` on a tiny grid, fault-free and faulted."""
    from repro.eval_pipeline import run_eval_grid

    args = build_parser().parse_args(
        ["eval", "--train-size", "16", "--test-size", "12", "--calibration-images", "4",
         "--by-grid", "8", "--s1", "16", "--s2", "4", "--k", "2", "--gelu-bsl", "4",
         "--flip-probs", "0", "0.05", "--fault-seed", "11"]
    )
    task, configs = _eval_task(args)
    return _verify_batched(task, configs, run_eval_grid(task, configs, workers=workers))


def _verify_scenarios() -> List[str]:
    """Served == offline under a mid-trace shard kill, on both engine families.

    The flash-crowd kill scenario of ``examples/specs/scenario_flashcrowd_kill.json``
    on its tiny deployment at ``flip_prob`` 0.05: the thread engine (two
    threads on one pipeline, each forward's faults armed apart) and the
    2-shard process engine, each built by ``build_deployment`` and judged
    by the scenario assertions.  At least 16 requests must reach the
    engine after the kill, so it lands on live traffic.
    """
    from repro.scenarios import AssertionSpec, EventSpec, ScenarioRunner, ScenarioSpec, WorkloadSpec
    from repro.serve.specs import ServeSpec

    deployment = ServeSpec(
        train_size=8, layers=1, embed_dim=8, heads=2, calibration_images=2,
        by=4, s1=8, s2=4, k=2, workers=2, max_batch=4, cache_dir=None,
    )
    requests = 128
    base = ScenarioSpec(
        workload=WorkloadSpec(arrival="flashcrowd", requests=requests, rate=400.0, image_pool=128),
        events=(EventSpec(action="kill_shard", at_frac=0.5),),
        assertions=(
            AssertionSpec("bit_identity"),
            AssertionSpec("deaths_min", 1),
            AssertionSpec("uncached_after_kill_min", 16),
            AssertionSpec("completed_min", requests),
        ),
    )
    failures = []
    flip_prob = 0.05
    for engine in ("thread", "process"):
        spec = base.with_updates(
            name=f"verify-kill-{engine}",
            deployment=deployment.with_updates(engine=engine, flip_prob=flip_prob),
        )
        result = ScenarioRunner(spec).run()
        failed = [
            f"{check} (bound {bound}, measured {measured})"
            for check, bound, measured, status in _assertion_rows(result)
            if status != "pass"
        ]
        if failed:
            failures.append(f"served != offline: scenario {spec.name}: {', '.join(failed)}")
            continue
        served = result["requests"]
        print(
            f"PASS served == offline under a shard kill (scenario {spec.name}, "
            f"flip_prob={flip_prob}, {served['completed']} requests, "
            f"deaths={result['deaths']}, {served['uncached_after_kill']} uncached after the kill)"
        )
    return failures


def _verify_fabric() -> List[str]:
    """Fabric execution == golden ``blocks.build`` path, fault-free and faulted."""
    import repro.blocks as blocks
    from repro.fabric import FabricRunSpec, FabricSpec, run_fabric

    softmax = blocks.default_spec("softmax/iterative").with_updates(m=16, s1=4, s2=2)
    spec = FabricRunSpec(
        name="verify", fabric=FabricSpec(name="verify"),
        schedule=(softmax, blocks.default_spec("gelu/bernstein")), rows=8, seed=7,
    )
    failures = []
    for flip_prob in (0.0, 0.05):
        result = run_fabric(spec.with_updates(flip_prob=flip_prob))
        bad = [slot["family"] for slot in result["slots"] if not slot["bit_identical"]]
        if bad:
            failures.append(f"fabric != golden blocks path at flip_prob={flip_prob}: {', '.join(bad)}")
            continue
        print(
            f"PASS fabric == golden blocks path (flip_prob={flip_prob}, "
            f"{len(result['slots'])} slots, {result['bitstream']['writes']} config writes)"
        )
    return failures


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="reproduce the paper's artifacts through the sweep orchestrator",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error", "critical"],
        default="info",
        help="diagnostic log verbosity (structured, stderr; stdout stays results-only)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit diagnostic logs as JSON lines instead of text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dse = sub.add_parser("dse", help="Fig. 8 softmax design-space exploration")
    p_dse.add_argument("--bx", type=int, nargs="+", default=[2, 4], help="input BSLs to sweep")
    p_dse.add_argument("--max-designs", type=int, default=None, help="evaluate only the first N grid entries (deterministic grid order)")
    p_dse.add_argument("--grid", choices=sorted(DSE_GRIDS), default="full", help="grid preset")
    p_dse.add_argument(
        "--rows",
        type=int,
        default=100,
        help="test-vector rows, sliced from the bench's 200-row set so CLI and "
        "bench runs share cache entries (bench default: 100)",
    )
    p_dse.add_argument("--m", type=int, default=64, help="softmax vector length")
    p_dse.add_argument("--vectors-seed", type=int, default=2024, help="test-vector seed")
    _add_sweep_options(p_dse)
    p_dse.set_defaults(func=cmd_dse)

    p_gelu = sub.add_parser("gelu-sweep", help="Fig. 7 GELU BSL/degree sweep")
    p_gelu.add_argument("--samples", type=int, default=8000, help="GELU operand samples")
    p_gelu.add_argument("--vectors-seed", type=int, default=2024, help="sample seed")
    _add_sweep_options(p_gelu)
    p_gelu.set_defaults(func=cmd_gelu_sweep)

    p_tables = sub.add_parser("tables", help="regenerate a paper table")
    p_tables.add_argument("--table", choices=["table4"], default="table4")
    p_tables.add_argument("--rows", type=int, default=200, help="logit rows (bench default: 200)")
    p_tables.add_argument("--vectors-seed", type=int, default=2024, help="test-vector seed")
    _add_sweep_options(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_eval = sub.add_parser("eval", help="batched end-to-end SC-ViT dataset evaluation")
    p_eval.add_argument("--dataset", choices=["cifar10", "cifar100"], default="cifar10", help="synthetic dataset")
    p_eval.add_argument("--splits", nargs="+", choices=["train", "test"], default=["test"], help="dataset splits to evaluate")
    p_eval.add_argument("--train-size", type=int, default=160, help="training split size")
    p_eval.add_argument("--test-size", type=int, default=96, help="test split size")
    p_eval.add_argument("--data-seed", type=int, default=0, help="dataset generator seed")
    p_eval.add_argument("--layers", type=int, default=2, help="ViT depth")
    p_eval.add_argument("--embed-dim", type=int, default=32, help="ViT embedding dim")
    p_eval.add_argument("--heads", type=int, default=4, help="attention heads")
    p_eval.add_argument("--model-seed", type=int, default=0, help="weight-init seed")
    p_eval.add_argument("--checkpoint", type=Path, default=None, help="trained state-dict (.npz) to load")
    p_eval.add_argument("--by-grid", type=int, nargs="+", default=[4, 8, 16], help="softmax output BSLs to sweep")
    p_eval.add_argument("--s1", type=int, default=32, help="softmax s1 sub-sample rate")
    p_eval.add_argument("--s2", type=int, default=8, help="softmax s2 sub-sample rate")
    p_eval.add_argument("--k", type=int, default=3, help="softmax iterations")
    p_eval.add_argument("--gelu-bsl", type=int, default=None, help="route GELU through an SI block of this BSL")
    p_eval.add_argument("--flip-probs", type=float, nargs="+", default=[0.0], help="bit-flip fault rates to sweep")
    p_eval.add_argument("--fault-seed", type=int, default=0, help="fault-injection seed")
    p_eval.add_argument("--max-images", type=int, default=None, help="cap images per split")
    p_eval.add_argument("--batch-size", type=int, default=32, help="eval chunk size (results are chunk-invariant)")
    p_eval.add_argument("--calibration-images", type=int, default=32, help="images for the alpha_x calibration")
    p_eval.add_argument("--verify-batched", action="store_true", help="re-run one config per fault rate image by image and compare bit-for-bit")
    _add_sweep_options(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_run = sub.add_parser("run", help="execute declarative experiment spec files (JSON)")
    p_run.add_argument("spec", nargs="+", type=Path, help="experiment spec file(s); see examples/specs/")
    p_run.add_argument("--workers", type=int, default=None, help="override the specs' worker count")
    p_run.add_argument("--cache-dir", default=None, help="override the specs' cache directory")
    p_run.add_argument("--out", type=Path, default=None, help="override the specs' JSON output path")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_run.set_defaults(func=cmd_run)

    p_scenario = sub.add_parser("scenario", help="declarative resilience scenarios over the serving tier")
    p_scenario.add_argument("spec", nargs="+", type=Path, help="scenario spec file(s) (serve/scenario JSON); see examples/specs/scenario_*.json")
    p_scenario.add_argument("--engine", choices=["thread", "process", "fabric"], default=None, help="override the scenarios' engine family (a different engine is a different deployment and cache identity; the CI matrix runs each scenario per family)")
    p_scenario.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help=f"scenario-result cache directory (default: {DEFAULT_CACHE_DIR})")
    p_scenario.add_argument("--no-cache", action="store_true", help="disable the result cache (always drive the service fresh)")
    p_scenario.add_argument("--out", type=Path, default=None, help="write all scenario results as JSON to this path")
    p_scenario.add_argument("--trace-dir", type=Path, default=None, help="export telemetry traces here (Chrome-trace JSON + JSONL per scenario; needs the deployment's telemetry field or REPRO_TELEMETRY=1)")
    p_scenario.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_scenario.set_defaults(func=cmd_scenario)

    p_serve = sub.add_parser("serve", help="async dynamic-batching inference service")
    p_serve.add_argument("--spec", type=Path, required=True, help="deployment spec JSON (serve/deployment): the complete description of the service; see examples/specs/serve_*.json")
    p_serve.set_defaults(func=cmd_serve)

    p_fabric = sub.add_parser("fabric", help="bitstream-configurable accelerator-fabric simulator")
    p_fabric.add_argument("spec", nargs="+", type=Path, help="fabric spec file(s): fabric/design (summary) or fabric/run (place-and-route + execute) JSON; see examples/specs/fabric_*.json")
    p_fabric.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help=f"fabric-run result cache directory (default: {DEFAULT_CACHE_DIR})")
    p_fabric.add_argument("--no-cache", action="store_true", help="disable the result cache (always re-execute)")
    p_fabric.add_argument("--out", type=Path, default=None, help="write all design summaries and run results as JSON to this path")
    p_fabric.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_fabric.set_defaults(func=cmd_fabric)

    p_blocks = sub.add_parser("blocks", help="list the registered circuit-block families")
    p_blocks.add_argument("--table1", action="store_true", help="print the Table I capability matrix instead")
    p_blocks.add_argument("--no-hardware", action="store_true", help="skip the hardware-cost synthesis column")
    p_blocks.add_argument("--out", type=Path, default=None, help="write the catalog as JSON to this path")
    p_blocks.set_defaults(func=cmd_blocks)

    p_bench = sub.add_parser("bench", help="perf regression harnesses (packed engine, serving, fabric)")
    p_bench.add_argument("--suite", choices=["engine", "serve", "fabric", "all"], default="engine", help="which harness: the packed-engine microbenches, the serve load generator, the fabric compile/throughput suite, or all of them")
    p_bench.add_argument("--benchmarks-dir", type=Path, default=None, help="path to benchmarks/")
    p_bench.add_argument("--check-floor", action="store_true", help="fail if measurements fall outside the recorded floors")
    p_bench.add_argument("--no-run", action="store_true", help="check the recorded results instead of re-running")
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser("trace", help="summarize exported telemetry traces")
    p_trace.add_argument("trace", nargs="+", type=Path, help="trace file(s): Chrome-trace JSON (*.trace.json) or JSONL event stream (*.trace.jsonl)")
    p_trace.add_argument("--top", type=int, default=10, help="rows of the spans-by-name table")
    p_trace.add_argument("--out", type=Path, default=None, help="write the summaries as JSON to this path")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="self-checks: DSE, eval, served-under-kill and fabric bit-identity")
    p_verify.add_argument("--workers", type=int, default=2, help="worker processes for the DSE and eval checks")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.telemetry.logging import configure_logging

    configure_logging(level=args.log_level, json_lines=args.log_json)
    try:
        exit_code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``repro ... | head``).  Point stdout at
        # /dev/null so the interpreter's exit-time flush cannot fail again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
