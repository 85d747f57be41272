"""Declarative experiment files: :class:`ExperimentSpec` and ``repro run``.

An experiment file is a JSON document naming a task, its parameter/block
grid, and runner options::

    {
      "name": "fig8-smoke",
      "description": "reduced Fig. 8 DSE slice",
      "task": "dse",
      "params": {"grid": "tiny", "max_designs": 32, "rows": 16, "bx": [4]},
      "runner": {"workers": 2, "cache_dir": ".repro-cache"}
    }

``python -m repro run spec.json`` executes it through exactly the same code
path as the equivalent hand-typed subcommand (``python -m repro dse
--grid tiny --max-designs 32 ...``), so a spec run and a CLI run share
sweep-cache entries byte for byte — sweeps and evals are data, not code.

* ``task`` — one of the sweep subcommands: ``dse``, ``gelu-sweep``,
  ``tables``, ``eval``.
* ``params`` — the subcommand's options with underscores for dashes
  (``max_designs`` for ``--max-designs``).  Lists become multi-value
  options, booleans become flags.  For the grid-shaped tasks these entries
  *are* the block-spec grid: ``eval``'s ``by_grid``/``s1``/``s2``/``k``
  axes enumerate ``softmax/iterative`` specs, ``gelu_bsl`` selects the
  ``gelu/si`` spec, and ``dse``'s ``grid`` preset names the
  :class:`~repro.blocks.specs.SoftmaxCircuitConfig` grid.
* ``runner`` — shared sweep options (``workers``, ``cache_dir``,
  ``no_cache``, ``out``, ``quiet``); kept separate from ``params`` so the
  experiment's identity and its execution knobs don't mix.

Keys are validated against the CLI parser up front, so a typo in a spec
file fails with the list of known options instead of an argparse usage
dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.utils.specs import Spec

__all__ = ["ExperimentSpec", "RUNNABLE_TASKS"]

#: Subcommands an experiment file may name (the sweep-shaped ones; ``bench``
#: and ``verify`` take no experiment-identity parameters).
RUNNABLE_TASKS = ("dse", "gelu-sweep", "tables", "eval")


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """One declarative experiment: a task, its grid, and runner options."""

    task: str
    name: str = ""
    description: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    runner: Dict[str, Any] = field(default_factory=dict)

    label = "experiment"

    def validate(self) -> None:
        if self.task not in RUNNABLE_TASKS:
            raise ValueError(
                f"unknown experiment task {self.task!r} (runnable: {', '.join(RUNNABLE_TASKS)})"
            )
        overlap = set(self.params) & set(self.runner)
        if overlap:
            raise ValueError(f"keys appear in both params and runner: {sorted(overlap)}")

    # ------------------------------------------------------------- execution
    def to_argv(self, overrides: Optional[Dict[str, Any]] = None) -> List[str]:
        """The equivalent CLI invocation, e.g. ``["dse", "--rows", "16"]``.

        ``overrides`` (same key convention) replace runner entries — this is
        how ``repro run --workers 8 spec.json`` retargets a spec without
        editing the file.
        """
        merged = dict(self.params)
        merged.update(self.runner)
        if overrides:
            merged.update(overrides)
        argv = [self.task]
        for key, value in merged.items():
            option = "--" + str(key).replace("_", "-")
            if value is None or value is False:
                continue
            if value is True:
                argv.append(option)
                continue
            argv.append(option)
            if isinstance(value, (list, tuple)):
                argv.extend(str(v) for v in value)
            else:
                argv.append(str(value))
        return argv

    def validate_options(self, parser: Any) -> None:
        """Check every params/runner key against the task's CLI options.

        ``parser`` is the root ``argparse`` parser of the repro CLI (see
        :func:`subcommand_options`).
        """
        known = subcommand_options(parser, self.task)
        unknown = [key for key in (*self.params, *self.runner) if str(key) not in known]
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(map(str, unknown))} for task {self.task!r} "
                f"(known: {', '.join(sorted(known))})"
            )

    def describe(self) -> str:
        label = self.name or self.task
        return f"{label}: repro {' '.join(self.to_argv())}"


def subcommand_options(parser: Any, subcommand: str) -> Set[str]:
    """The ``--long`` options of one ``repro`` subcommand, as ``snake_case`` keys.

    ``parser`` is the root ``argparse`` parser of the repro CLI (the caller
    passes it in; this module never imports the CLI, which keeps
    ``repro.blocks`` importable from anywhere).
    """
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and subcommand in action.choices:
            return {
                option[2:].replace("-", "_")
                for option in action.choices[subcommand]._option_string_actions
                if option.startswith("--")
            }
    raise ValueError(f"CLI has no {subcommand!r} subcommand")
