#!/usr/bin/env python
"""API-surface guard: registry round-trips + public-export snapshot diff.

Run from the repo root (CI does; ``make api-check`` wraps it):

    PYTHONPATH=src python tools/check_api_surface.py           # check
    PYTHONPATH=src python tools/check_api_surface.py --update  # re-snapshot

Two gates, both cheap enough for every push:

1. **Registry integrity** — every family in the :mod:`repro.blocks`
   registry is imported, built from its all-defaults spec, and its resolved
   spec is round-tripped through JSON (``to_json`` -> ``spec_from_json`` ->
   rebuild -> ``to_spec`` fixed point); the rebuilt block's ``evaluate``
   output must equal the original's, bit for bit, on a fixed seeded input.
   A block family that stops building, whose spec stops serialising
   exactly, or whose spec no longer captures everything its outputs depend
   on, fails here.

2. **Export snapshot** — the ``__all__`` of every public ``repro.*``
   package is diffed against ``tools/api_surface.txt``.  Removing or
   renaming a public name fails the check until the snapshot is updated on
   purpose (with ``--update``), which turns accidental API breakage into a
   reviewable diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Public packages whose ``__all__`` is part of the supported API surface.
PUBLIC_MODULES = [
    "repro",
    "repro.blocks",
    "repro.core",
    "repro.sc",
    "repro.hw",
    "repro.nn",
    "repro.training",
    "repro.evaluation",
    "repro.runner",
    "repro.eval_pipeline",
    "repro.serve",
    "repro.scenarios",
    "repro.fabric",
    "repro.telemetry",
    "repro.utils",
]

SNAPSHOT = Path(__file__).resolve().parent / "api_surface.txt"


def check_registry() -> list:
    """Build + JSON-round-trip every registered block family; rebuilds evaluate identically."""
    import numpy as np

    import repro.blocks as blocks

    failures = []
    for name in blocks.names():
        try:
            block = blocks.build(name)
            resolved = block.to_spec()
            revived = blocks.spec_from_json(resolved.to_json())
            if revived != resolved:
                failures.append(f"{name}: spec JSON round-trip drifted ({revived} != {resolved})")
                continue
            rebuilt = blocks.build(name, spec=revived)
            if rebuilt.to_spec() != resolved:
                failures.append(f"{name}: resolved spec is not a rebuild fixed point")
                continue
            # Softmax families take (rows, m); every other family takes values.
            shape = (8, resolved.m) if blocks.get(name).function == "softmax" else (64,)
            values = np.random.default_rng(0).normal(size=shape)
            if not np.array_equal(rebuilt.evaluate(values), block.evaluate(values)):
                failures.append(f"{name}: the block rebuilt from its spec evaluates differently")
                continue
            print(f"ok {name}: builds, spec round-trips, rebuild evaluates identically ({type(block).__name__})")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


def current_surface() -> list:
    """``module:name`` lines for every public export, sorted."""
    import importlib

    lines = []
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exports = getattr(module, "__all__", None)
        if exports is None:
            raise SystemExit(f"{module_name} defines no __all__; the surface guard needs one")
        for name in exports:
            if not hasattr(module, name) and name not in getattr(module, "__dict__", {}):
                # Lazy subpackage names in repro.__all__ are importable, not
                # attributes; verify them by import instead.
                importlib.import_module(f"{module_name}.{name}")
        lines.extend(f"{module_name}:{name}" for name in exports)
    return sorted(lines)


def check_surface(update: bool) -> list:
    lines = current_surface()
    if update:
        SNAPSHOT.write_text("\n".join(lines) + "\n")
        print(f"wrote {SNAPSHOT} ({len(lines)} exports)")
        return []
    if not SNAPSHOT.exists():
        return [f"missing snapshot {SNAPSHOT}; run with --update to create it"]
    recorded = [line for line in SNAPSHOT.read_text().splitlines() if line.strip()]
    removed = sorted(set(recorded) - set(lines))
    added = sorted(set(lines) - set(recorded))
    failures = []
    for line in removed:
        failures.append(f"public export removed: {line}")
    for line in added:
        failures.append(f"public export added without snapshot update: {line}")
    if not failures:
        print(f"ok api surface: {len(lines)} exports match {SNAPSHOT.name}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the snapshot instead of checking it"
    )
    args = parser.parse_args(argv)

    failures = check_registry()
    failures += check_surface(update=args.update)
    for failure in failures:
        print(f"API SURFACE FAIL: {failure}", file=sys.stderr)
    if failures:
        print(
            "\nIf the change is intentional, refresh the snapshot with:\n"
            "  PYTHONPATH=src python tools/check_api_surface.py --update",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
