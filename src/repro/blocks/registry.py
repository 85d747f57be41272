"""String-keyed registry of circuit-block families.

The registry is the one place that knows every block family the repro
implements: ``build("softmax/iterative", by=8, s1=32)`` constructs a block
from keyword parameters (or a ready :class:`~repro.blocks.specs.BlockSpec`),
``names()`` enumerates the families, and :func:`capability_matrix`
regenerates the paper's Table I from per-entry metadata instead of a
hand-maintained list.

Builtin entries are declared *lazily* — each holds the dotted path of the
class that computes its family (in :mod:`repro.core` or :mod:`repro.sc`)
and only imports it on first ``build``/``load``, which also sets the
class's registry metadata (``family``, ``spec_cls``, encodings).  That
keeps ``import repro.blocks`` free of any dependency on :mod:`repro.core` /
:mod:`repro.sc`, which is what breaks the historical ``repro.core`` ↔
``repro.eval_pipeline`` import cycle: the eval pipeline imports the
registry at module level and resolves circuit implementations only at run
time.

New families register with the :func:`register_block` decorator::

    @register_block("sigmoid/my-design", spec=MySpec, function="sigmoid",
                    method="FSM", description="...")
    class MySigmoidBlock(NonlinearBlock):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.blocks.protocol import NonlinearBlock
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
)

__all__ = [
    "BlockEntry",
    "CapabilityInfo",
    "ScDesignCapability",
    "register_block",
    "build",
    "get",
    "names",
    "default_spec",
    "capability_matrix",
]


@dataclass(frozen=True)
class CapabilityInfo:
    """Table I metadata of the published design a registry entry models."""

    design: str
    supported_model: str
    encoding_format: str
    supported_functions: Tuple[str, ...]
    implementation_method: str
    order: int


@dataclass(frozen=True)
class ScDesignCapability:
    """One row of Table I (regenerated from the registry)."""

    design: str
    supported_model: str
    encoding_format: str
    supported_functions: Tuple[str, ...]
    implementation_method: str

    def supports(self, function: str) -> bool:
        """Case-insensitive membership test used by the capability bench."""
        return function.lower() in (f.lower() for f in self.supported_functions)


@dataclass
class BlockEntry:
    """One registered block family."""

    name: str
    spec_cls: Type[BlockSpec]
    function: str  # nonlinear function computed ("gelu", "softmax", ...)
    method: str  # implementation method, Table I wording
    description: str
    input_encoding: str = "value"
    output_encoding: str = "value"
    capability: Optional[CapabilityInfo] = None
    #: "module:ClassName" of the class computing the family, imported on demand.
    loader: Optional[str] = None
    #: Resolved class (filled on first load, or at registration).
    block_cls: Optional[Type[NonlinearBlock]] = field(default=None, repr=False)

    def load(self) -> Type[NonlinearBlock]:
        """Resolve (importing on demand) the class of this family."""
        if self.block_cls is None:
            module_name, _, attr = self.loader.partition(":")
            self.bind(getattr(import_module(module_name), attr))
        return self.block_cls

    def bind(self, cls: Type[NonlinearBlock]) -> None:
        """Make ``cls`` this family's class and give it the entry's metadata."""
        cls.family = self.name
        cls.spec_cls = self.spec_cls
        cls.input_encoding = self.input_encoding
        cls.output_encoding = self.output_encoding
        self.block_cls = cls


_REGISTRY: Dict[str, BlockEntry] = {}


def _builtin(entry: BlockEntry) -> None:
    _REGISTRY[entry.name] = entry


def register_block(
    name: str,
    *,
    spec: Type[BlockSpec],
    function: str,
    method: str,
    description: str = "",
    input_encoding: str = "value",
    output_encoding: str = "value",
    capability: Optional[CapabilityInfo] = None,
    replace: bool = False,
):
    """Class decorator registering a :class:`NonlinearBlock` family."""

    def register(cls: Type[NonlinearBlock]) -> Type[NonlinearBlock]:
        if name in _REGISTRY and not replace:
            existing = _REGISTRY[name]
            # Re-registration of the same class (module re-import) is
            # harmless; anything else is a real collision.
            if existing.loader != f"{cls.__module__}:{cls.__name__}":
                raise ValueError(f"block family {name!r} is already registered")
        doc_first_line = next(iter((cls.__doc__ or "").strip().splitlines()), "")
        entry = _REGISTRY[name] = BlockEntry(
            name=name,
            spec_cls=spec,
            function=function,
            method=method,
            description=description or doc_first_line or name,
            input_encoding=input_encoding,
            output_encoding=output_encoding,
            capability=capability,
            loader=f"{cls.__module__}:{cls.__name__}",
        )
        entry.bind(cls)
        return cls

    return register


# ---------------------------------------------------------------------------
# Registry API
# ---------------------------------------------------------------------------


def get(name: str) -> BlockEntry:
    """The registry entry for ``name``; raises ``KeyError`` with the catalog."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown block family {name!r} (registered: {known})") from None


def names() -> List[str]:
    """Registered family names, sorted."""
    return sorted(_REGISTRY)


def default_spec(name: str) -> BlockSpec:
    """The all-defaults spec of a family."""
    return get(name).spec_cls()


def build(
    name: str,
    spec: Optional[BlockSpec] = None,
    **params: Any,
) -> NonlinearBlock:
    """Construct a block: ``build("softmax/iterative", by=8)``.

    Either pass a ready ``spec`` or keyword spec fields (not both).
    Non-spec build options (currently ``calibration_samples`` for the
    calibrated ``gelu/si`` family) are forwarded to ``from_spec``.
    """
    entry = get(name)
    build_options = {}
    if "calibration_samples" in params:
        build_options["calibration_samples"] = params.pop("calibration_samples")
    if spec is None:
        spec = entry.spec_cls(**params)
    elif params:
        raise TypeError(f"pass either spec= or keyword parameters to build({name!r}), not both")
    return entry.load().from_spec(spec, **build_options)


# ---------------------------------------------------------------------------
# Table I — generated from registry metadata
# ---------------------------------------------------------------------------


def capability_matrix() -> List[ScDesignCapability]:
    """The rows of Table I, ASCEND last, from the registry's metadata.

    Entries sharing a design label merge into one row (ASCEND's GELU and
    softmax blocks are two registry entries but one published design):
    functions concatenate in entry order, implementation methods join with
    ``", "``.  Entries without capability metadata (internal baselines that
    are not rows of the paper's table) are skipped.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    with_capability = sorted(
        (entry for entry in _REGISTRY.values() if entry.capability is not None),
        key=lambda entry: entry.capability.order,
    )
    for entry in with_capability:
        cap = entry.capability
        row = grouped.setdefault(
            cap.design,
            {
                "order": cap.order,
                "model": cap.supported_model,
                "encoding": cap.encoding_format,
                "functions": [],
                "methods": [],
            },
        )
        row["order"] = min(row["order"], cap.order)
        for function in cap.supported_functions:
            if function not in row["functions"]:
                row["functions"].append(function)
        if cap.implementation_method not in row["methods"]:
            row["methods"].append(cap.implementation_method)
    rows = []
    for design, row in sorted(grouped.items(), key=lambda item: item[1]["order"]):
        rows.append(
            ScDesignCapability(
                design=design,
                supported_model=row["model"],
                encoding_format=row["encoding"],
                supported_functions=tuple(row["functions"]),
                implementation_method=", ".join(row["methods"]),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Builtin families (implementation classes, imported on demand)
# ---------------------------------------------------------------------------

_builtin(
    BlockEntry(
        name="softmax/iterative",
        spec_cls=SoftmaxCircuitConfig,
        function="softmax",
        method="BSN",
        description="ASCEND's iterative approximate softmax circuit (Fig. 5 / Alg. 1)",
        input_encoding="thermometer",
        output_encoding="thermometer",
        capability=CapabilityInfo(
            design="ASCEND (ours)",
            supported_model="ViT",
            encoding_format="deterministic",
            supported_functions=("softmax",),
            implementation_method="BSN",
            order=6,
        ),
        loader="repro.core.softmax_circuit:IterativeSoftmaxCircuit",
    )
)
_builtin(
    BlockEntry(
        name="softmax/fsm",
        spec_cls=FsmSoftmaxSpec,
        function="softmax",
        method="FSM, binary units",
        description="FSM + binary-unit softmax baseline of [17] (Table IV)",
        input_encoding="unipolar",
        output_encoding="value",
        capability=CapabilityInfo(
            design="Yuan'17 / Hu'18 [16], [17]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("softmax",),
            implementation_method="FSM, binary units",
            order=3,
        ),
        loader="repro.core.baselines:FsmSoftmaxBaseline",
    )
)
_builtin(
    BlockEntry(
        name="gelu/si",
        spec_cls=GeluSISpec,
        function="gelu",
        method="Gate-Assisted SI",
        description="ASCEND's gate-assisted SI GELU block (Fig. 4, Table III)",
        input_encoding="thermometer",
        output_encoding="thermometer",
        capability=CapabilityInfo(
            design="ASCEND (ours)",
            supported_model="ViT",
            encoding_format="deterministic",
            supported_functions=("gelu",),
            implementation_method="Gate-Assisted SI",
            order=5,
        ),
        loader="repro.core.gelu_si:GeluSIBlock",
    )
)
_builtin(
    BlockEntry(
        name="gelu/si-ternary",
        spec_cls=TernaryGeluSpec,
        function="gelu",
        method="Gate-Assisted SI",
        description="the Fig. 4(b) worked example: 8-bit input, ternary output",
        input_encoding="thermometer",
        output_encoding="thermometer",
        loader="repro.core.gelu_si:TernaryGeluBlock",
    )
)
_builtin(
    BlockEntry(
        name="gelu/naive-si",
        spec_cls=NaiveSIGeluSpec,
        function="gelu",
        method="SI",
        description="selection-only SI GELU (monotone envelope, Fig. 2c)",
        input_encoding="thermometer",
        output_encoding="thermometer",
        # The published naive-SI designs this family models support the
        # monotone activations; the registered GELU instance exists to show
        # the envelope error, hence the capability row lists relu/sigmoid.
        capability=CapabilityInfo(
            design="Zhang'20 / Hu'23 [5], [15]",
            supported_model="CNN",
            encoding_format="deterministic",
            supported_functions=("relu", "sigmoid"),
            implementation_method="SI",
            order=4,
        ),
        loader="repro.sc.selective_interconnect:NaiveSIGeluBlock",
    )
)
_builtin(
    BlockEntry(
        name="gelu/fsm",
        spec_cls=FsmGeluSpec,
        function="gelu",
        method="FSM",
        description="FSM GELU baseline (saturates at zero on the negative range, Fig. 2a)",
        input_encoding="bipolar",
        output_encoding="bipolar",
        loader="repro.sc.fsm:FsmGeluUnit",
    )
)
_builtin(
    BlockEntry(
        name="gelu/bernstein",
        spec_cls=BernsteinGeluSpec,
        function="gelu",
        method="Bernstein polynomial",
        description="ReSC-style Bernstein-polynomial GELU of [18] (Table III / Fig. 7)",
        input_encoding="unipolar",
        output_encoding="unipolar",
        loader="repro.sc.bernstein:BernsteinGeluUnit",
    )
)
_builtin(
    BlockEntry(
        name="tanh/fsm",
        spec_cls=FsmTanhSpec,
        function="tanh",
        method="FSM",
        description="classic stanh FSM unit (Brown & Card), tanh/sigmoid family",
        input_encoding="bipolar",
        output_encoding="bipolar",
        capability=CapabilityInfo(
            design="Kim'16 / SC-DCNN / Li'17 [6]-[8]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("tanh", "sigmoid"),
            implementation_method="FSM",
            order=1,
        ),
        loader="repro.sc.fsm:FsmTanhUnit",
    )
)
_builtin(
    BlockEntry(
        name="relu/fsm",
        spec_cls=FsmReluSpec,
        function="relu",
        method="FSM",
        description="FSM ReLU unit (the SC-DCNN / HEIF style design)",
        input_encoding="bipolar",
        output_encoding="bipolar",
        capability=CapabilityInfo(
            design="HEIF [9]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("relu",),
            implementation_method="FSM",
            order=2,
        ),
        loader="repro.sc.fsm:FsmReluUnit",
    )
)
