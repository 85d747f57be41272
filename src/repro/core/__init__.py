"""ASCEND's contribution: the circuit blocks, the DSE and the co-designed ViT.

* :mod:`repro.core.gelu_si` — gate-assisted selective interconnect GELU
  (Section IV-A, Fig. 2/4, Table III, Fig. 7),
* :mod:`repro.core.softmax_circuit` — the SC circuit executing the iterative
  approximate softmax (Algorithm 1; its float recurrence is
  :func:`repro.nn.functional_math.iterative_softmax_reference`) on
  thermometer bitstreams (Fig. 5, Table II, Table IV),
* :mod:`repro.core.baselines` — the FSM softmax baseline,
* :mod:`repro.core.dse` — design-space exploration and Pareto fronts
  (Fig. 8),
* :mod:`repro.core.accelerator` — the end-to-end accelerator area model
  (Table VI),
* :mod:`repro.core.codesign` — the circuit/network co-design driver
  (Fig. 3).
"""

from repro.core.accelerator import (
    AcceleratorConfig,
    AscendAccelerator,
    ViTArchitecture,
    recommend_configuration,
)
from repro.core.baselines import FsmSoftmaxBaseline
from repro.core.dse import DesignPoint, SoftmaxDesignSpace
from repro.core.gelu_si import (
    GateAssistedSIBlock,
    GeluSIBlock,
    TernaryGeluBlock,
    calibrate_output_scale,
)
from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, calibrate_alpha_y, sc_vit_softmax
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.core.codesign import CodesignDriver, CodesignReport

__all__ = [
    "CodesignDriver",
    "CodesignReport",
    "AcceleratorConfig",
    "AscendAccelerator",
    "ViTArchitecture",
    "recommend_configuration",
    "FsmSoftmaxBaseline",
    "DesignPoint",
    "SoftmaxDesignSpace",
    "GateAssistedSIBlock",
    "GeluSIBlock",
    "TernaryGeluBlock",
    "calibrate_output_scale",
    "IterativeSoftmaxCircuit",
    "SoftmaxCircuitConfig",
    "calibrate_alpha_x",
    "calibrate_alpha_y",
    "sc_vit_softmax",
]
