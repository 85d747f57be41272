"""Unified circuit-block API: protocol, serialisable specs, registry.

The paper's core comparison is between *families* of SC nonlinear designs —
the iterative softmax circuit, the FSM softmax baseline, gate-assisted SI
GELU, the FSM/Bernstein/naive-SI units.  Each family is one class in
:mod:`repro.core` or :mod:`repro.sc` implementing one composable
abstraction:

* :mod:`repro.blocks.protocol` — :class:`NonlinearBlock`, the uniform
  lifecycle (``from_spec``/``to_spec``, ``evaluate``, ``reference``,
  ``process``, ``build_hardware``) with declared input/output encodings;
* :mod:`repro.blocks.specs` — frozen, JSON-round-trippable
  :class:`BlockSpec` dataclasses for every family (including
  :class:`SoftmaxCircuitConfig`, which now lives here) plus the ``alpha``
  calibration helpers;
* :mod:`repro.blocks.registry` — the string-keyed registry:
  ``build("softmax/iterative", by=8)``, the :func:`register_block`
  decorator for new families, and :func:`capability_matrix` regenerating
  Table I from registry metadata;
* :mod:`repro.blocks.experiment` — declarative :class:`ExperimentSpec`
  JSON files consumed by ``python -m repro run``.

Importing this package is cheap and pulls in **no** circuit
implementations: builtin families resolve lazily on first ``build``.  That
lazy indirection is what breaks the old ``repro.core`` ↔
``repro.eval_pipeline`` import cycle.
"""

from repro.blocks.experiment import ExperimentSpec, RUNNABLE_TASKS
from repro.blocks.protocol import NonlinearBlock, StreamProcessingUnsupported
from repro.blocks.registry import (
    BlockEntry,
    CapabilityInfo,
    ScDesignCapability,
    build,
    capability_matrix,
    default_spec,
    get,
    names,
    register_block,
)
from repro.blocks.specs import (
    BernsteinGeluSpec,
    BlockSpec,
    FsmGeluSpec,
    FsmReluSpec,
    FsmSoftmaxSpec,
    FsmTanhSpec,
    GeluSISpec,
    NaiveSIGeluSpec,
    SoftmaxCircuitConfig,
    TernaryGeluSpec,
    calibrate_alpha_x,
    calibrate_alpha_y,
    sc_vit_softmax,
    spec_families,
    spec_from_dict,
    spec_from_json,
)

__all__ = [
    "NonlinearBlock",
    "StreamProcessingUnsupported",
    "BlockSpec",
    "BlockEntry",
    "CapabilityInfo",
    "ScDesignCapability",
    "ExperimentSpec",
    "RUNNABLE_TASKS",
    "register_block",
    "build",
    "get",
    "names",
    "default_spec",
    "capability_matrix",
    "spec_families",
    "spec_from_dict",
    "spec_from_json",
    "SoftmaxCircuitConfig",
    "FsmSoftmaxSpec",
    "GeluSISpec",
    "TernaryGeluSpec",
    "NaiveSIGeluSpec",
    "FsmGeluSpec",
    "FsmTanhSpec",
    "FsmReluSpec",
    "BernsteinGeluSpec",
    "calibrate_alpha_x",
    "calibrate_alpha_y",
    "sc_vit_softmax",
]
