"""Accelerator-level area model — the Table VI evaluation.

The paper's accelerator-level study asks one question: how much of the total
accelerator does the softmax block cost as its configuration moves along the
Pareto front, and is the accuracy gain worth it?  To answer it, this module
assembles a full end-to-end SC ViT accelerator out of the same structural
pieces used for the block-level studies:

* weight and activation/residual buffers (SRAM) sized by the ViT
  architecture and the W2-A2-R16 precision scheme,
* a processing-element array of 2x2-bit thermometer truth-table multipliers
  with per-column BSN accumulation trees and residual-fusion re-scalers,
* one gate-assisted SI GELU lane per output column,
* folded batch-norm scale/offset units (the LN -> BN substitution of
  Section V is what makes these cheap),
* ``k`` copies of the iterative approximate softmax block, so all ``k``
  iterations of one attention row are in flight simultaneously (the paper's
  Table VI footnote).

Absolute areas come from the same calibrated cell library as every other
number in this reproduction; what the benchmark compares against the paper
is the *fraction* of area spent on softmax and how the total grows across
the four configurations of Table VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.core.gelu_si import GeluSIBlock
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.hw.cells import CellLibrary
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.hw.synthesis import SynthesisReport, synthesize
from repro.sc.arithmetic import thermometer_multiplier_hardware
from repro.sc.rescaling import RescalingBlock
from repro.sc.sorting_network import BitonicSortingNetwork
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ViTArchitecture:
    """Shape of the ViT being accelerated (the compact 7-layer/4-head model)."""

    num_layers: int = 7
    num_heads: int = 4
    embed_dim: int = 256
    mlp_ratio: float = 2.0
    num_tokens: int = 64
    num_classes: int = 10

    def __post_init__(self) -> None:
        check_positive_int(self.num_layers, "num_layers")
        check_positive_int(self.num_heads, "num_heads")
        check_positive_int(self.embed_dim, "embed_dim")
        check_positive_int(self.num_tokens, "num_tokens")
        check_positive_int(self.num_classes, "num_classes")
        if self.mlp_ratio <= 0:
            raise ValueError("mlp_ratio must be positive")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def mlp_hidden_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    def parameter_count(self) -> int:
        """Approximate parameter count of the encoder stack plus the head."""
        per_layer = (
            3 * self.embed_dim * self.embed_dim  # QKV projections
            + self.embed_dim * self.embed_dim  # attention output projection
            + 2 * self.embed_dim * self.mlp_hidden_dim  # the two MLP linears
            + 4 * self.embed_dim  # biases and BN affine parameters
        )
        head = self.embed_dim * self.num_classes
        embed = 3 * 16 * self.embed_dim  # patch embedding (4x4 RGB patches)
        return self.num_layers * per_layer + head + embed


@dataclass(frozen=True)
class AcceleratorConfig:
    """End-to-end accelerator configuration (precision scheme + softmax block)."""

    architecture: ViTArchitecture = field(default_factory=ViTArchitecture)
    weight_bsl: int = 2
    activation_bsl: int = 2
    residual_bsl: int = 16
    gelu_output_bsl: int = 8
    pe_rows: int = 64
    pe_columns: int = 64
    softmax: SoftmaxCircuitConfig = field(default_factory=SoftmaxCircuitConfig)

    def __post_init__(self) -> None:
        for name in ("weight_bsl", "activation_bsl", "residual_bsl", "gelu_output_bsl", "pe_rows", "pe_columns"):
            check_positive_int(getattr(self, name), name)

    @property
    def num_softmax_blocks(self) -> int:
        """One block per iteration so the softmax pipeline is fully parallel."""
        return self.softmax.iterations


class AscendAccelerator:
    """Structural model of the end-to-end ASCEND accelerator."""

    def __init__(self, config: Optional[AcceleratorConfig] = None, library: Optional[CellLibrary] = None) -> None:
        self.config = config or AcceleratorConfig()
        self.library = library

    # ----------------------------------------------------------- sub-blocks
    def build_weight_buffer(self) -> HardwareModule:
        """On-chip weight storage: every parameter at the weight BSL."""
        cfg = self.config
        bits = cfg.architecture.parameter_count() * cfg.weight_bsl
        return HardwareModule(
            name="weight_buffer",
            inventory=ComponentInventory({"SRAM_BIT": bits}),
            critical_path=("SRAM_BIT",),
            cycles=1,
            metadata={"bits": bits},
        )

    def build_activation_buffer(self) -> HardwareModule:
        """Double-buffered activation + residual storage for one layer."""
        cfg = self.config
        arch = cfg.architecture
        per_token = arch.embed_dim * (cfg.activation_bsl + cfg.residual_bsl)
        bits = 2 * arch.num_tokens * per_token
        return HardwareModule(
            name="activation_buffer",
            inventory=ComponentInventory({"SRAM_BIT": bits}),
            critical_path=("SRAM_BIT",),
            cycles=1,
            metadata={"bits": bits},
        )

    def build_pe_array(self) -> HardwareModule:
        """Matrix-multiply tile: truth-table MACs plus column accumulation BSNs."""
        cfg = self.config
        mac = thermometer_multiplier_hardware(cfg.weight_bsl, cfg.activation_bsl, name="mac")
        accumulate_width = cfg.pe_rows * cfg.weight_bsl * cfg.activation_bsl // 2
        column_bsn = BitonicSortingNetwork(accumulate_width).build_hardware(name="column_accumulator")
        residual_fuse = RescalingBlock(max(accumulate_width, cfg.residual_bsl), 1).build_hardware("residual_fuse")
        return HardwareModule(
            name="pe_array",
            inventory=ComponentInventory({"DFF": cfg.pe_columns * cfg.residual_bsl}),
            critical_path=("AND2",) + ("SORT_CE",) * BitonicSortingNetwork(accumulate_width).depth + ("DFF",),
            cycles=1,
            submodules=[
                (mac, cfg.pe_rows * cfg.pe_columns),
                (column_bsn, cfg.pe_columns),
                (residual_fuse, cfg.pe_columns),
            ],
            pipelined=True,
            metadata={"rows": cfg.pe_rows, "columns": cfg.pe_columns},
        )

    def build_gelu_lanes(self) -> HardwareModule:
        """One gate-assisted SI GELU block per PE column."""
        cfg = self.config
        gelu = GeluSIBlock(output_length=cfg.gelu_output_bsl).build_hardware()
        return HardwareModule(
            name="gelu_lanes",
            inventory=ComponentInventory(),
            critical_path=(),
            cycles=1,
            submodules=[(gelu, cfg.pe_columns)],
            pipelined=True,
            metadata={"lanes": cfg.pe_columns, "output_bsl": cfg.gelu_output_bsl},
        )

    def build_normalization_units(self) -> HardwareModule:
        """Folded batch-norm scale/offset units (binary multiply-add per lane)."""
        cfg = self.config
        per_lane = ComponentInventory({"FULL_ADDER": 2 * cfg.residual_bsl, "DFF": cfg.residual_bsl})
        lane = HardwareModule(
            name="bn_lane",
            inventory=per_lane,
            critical_path=("FULL_ADDER", "FULL_ADDER", "DFF"),
            cycles=1,
        )
        return HardwareModule(
            name="normalization_units",
            inventory=ComponentInventory(),
            critical_path=(),
            cycles=1,
            submodules=[(lane, cfg.pe_columns)],
            pipelined=True,
        )

    def build_softmax_blocks(self) -> HardwareModule:
        """``k`` copies of the iterative approximate softmax block."""
        cfg = self.config
        block = IterativeSoftmaxCircuit(cfg.softmax).build_hardware()
        return HardwareModule(
            name="softmax_blocks",
            inventory=ComponentInventory(),
            critical_path=(),
            cycles=1,
            submodules=[(block, self.config.num_softmax_blocks)],
            pipelined=True,
            metadata={"copies": cfg.num_softmax_blocks, "config": cfg.softmax.describe()},
        )

    # -------------------------------------------------------------- assembly
    def build_hardware(self) -> HardwareModule:
        """The full accelerator as one hierarchical module."""
        blocks = [
            (self.build_weight_buffer(), 1),
            (self.build_activation_buffer(), 1),
            (self.build_pe_array(), 1),
            (self.build_gelu_lanes(), 1),
            (self.build_normalization_units(), 1),
            (self.build_softmax_blocks(), 1),
        ]
        return HardwareModule(
            name="ascend_accelerator",
            inventory=ComponentInventory({"DFF": 4096}),  # control, sequencing, NoC registers
            critical_path=("DFF",),
            cycles=1,
            submodules=blocks,
            pipelined=True,
            metadata={"softmax_config": self.config.softmax.describe()},
        )

    def area_breakdown(self) -> Dict[str, float]:
        """Per-subsystem area in um^2 plus the total and the softmax fraction."""
        parts = {
            "weight_buffer": self.build_weight_buffer(),
            "activation_buffer": self.build_activation_buffer(),
            "pe_array": self.build_pe_array(),
            "gelu_lanes": self.build_gelu_lanes(),
            "normalization_units": self.build_normalization_units(),
            "softmax_blocks": self.build_softmax_blocks(),
        }
        breakdown = {name: module.area_um2(self.library) for name, module in parts.items()}
        breakdown["total"] = sum(breakdown.values())
        breakdown["softmax_fraction"] = breakdown["softmax_blocks"] / breakdown["total"]
        return breakdown

    def synthesize(self) -> SynthesisReport:
        """Synthesis report for the whole accelerator."""
        return synthesize(self.build_hardware(), self.library)

    def softmax_block_report(self) -> SynthesisReport:
        """Synthesis report of a single softmax block (the Table VI column)."""
        return synthesize(IterativeSoftmaxCircuit(self.config.softmax).build_hardware(), self.library)


def recommend_configuration(
    candidates: Sequence[AcceleratorConfig],
    accuracies: Sequence[float],
    accuracy_floor: float,
) -> int:
    """Pick the index of the recommended configuration, Table VI style.

    Among candidates meeting the accuracy floor, the one with the smallest
    total area is chosen; if none meets the floor, the most accurate one is
    returned.  The paper applies exactly this reasoning when it recommends
    ``[8, 32, 8, 3]`` ("accuracy over 90% on CIFAR10 with only a marginal
    increase in total area").
    """
    if len(candidates) != len(accuracies) or not candidates:
        raise ValueError("candidates and accuracies must be equal-length, non-empty")
    areas = [AscendAccelerator(cfg).area_breakdown()["total"] for cfg in candidates]
    meeting = [i for i, acc in enumerate(accuracies) if acc >= accuracy_floor]
    if not meeting:
        return int(max(range(len(candidates)), key=lambda i: accuracies[i]))
    return int(min(meeting, key=lambda i: areas[i]))
