"""Evaluation harness: test vectors, Pareto analysis, reports.

The paper's methodology (Section VI-A) is: collect the input vectors of each
nonlinear function from the ViT layers, sample test vectors from the overall
distribution, run every circuit on them, and report MAE next to the
synthesis numbers.  This package reproduces that methodology:

* :mod:`repro.evaluation.vectors` — test-vector generation, either from a
  trained ViT of this library or from parametric distributions fit to what
  compact ViTs produce,
* :mod:`repro.evaluation.pareto` — Pareto-front extraction for the design
  space exploration of Fig. 8,
* :mod:`repro.evaluation.sweeps` — the Fig. 7 GELU and Table IV softmax
  row sweeps shared by the CLI and the benches,
* :mod:`repro.evaluation.reporting` — plain-text table formatting used by the
  benchmark harness so every bench prints rows shaped like the paper's
  tables.
"""

from repro.evaluation.pareto import pareto_front
from repro.evaluation.reporting import format_markdown_table, format_table, save_json_report
from repro.evaluation.vectors import (
    attention_logit_vectors,
    collect_gelu_inputs,
    collect_softmax_inputs,
    gelu_input_vectors,
)

__all__ = [
    "pareto_front",
    "format_table",
    "format_markdown_table",
    "save_json_report",
    "attention_logit_vectors",
    "gelu_input_vectors",
    "collect_softmax_inputs",
    "collect_gelu_inputs",
]
