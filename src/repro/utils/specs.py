"""The one codec of every JSON spec file: framing, decoding, type checks.

Deployments, scenarios, fabric designs and runs, experiments and circuit
blocks are all frozen dataclasses that mix in :class:`Spec`.  This module
owns their file format, so a spec class declares only its fields, its tag
and its value-range checks (:meth:`Spec.validate`):

* **envelope** — ``envelope = "kind"`` (or ``"family"``) frames a spec as
  ``{envelope: <tag>, "params": {...}}``, the tag being the class attribute
  named by ``envelope``; ``envelope = None`` lays the fields out at the top
  level of the object (:class:`~repro.blocks.experiment.ExperimentSpec`).
* **unknown keys** are rejected in the envelope and in every section.
* **recursive decoding** — a field annotated with a spec dataclass holds
  that section's params; a ``Tuple[X, ...]`` field holds a JSON list of
  ``X``; a field annotated with a polymorphic spec base that is not itself
  a dataclass (:class:`~repro.blocks.specs.BlockSpec`) holds a tagged
  envelope, resolved by the base's :meth:`Spec.tagged_class`.
* **one type check** — at construction (so also on load) every field is
  checked against its annotation, resolved once per class: ``int`` takes
  integers (numpy's too) but not ``bool`` or ``float``; ``float`` any real
  number but ``bool``; ``bool`` only ``bool``; ``str``, ``Optional[...]``,
  ``Dict`` and spec classes take what their names say.  Nothing is
  coerced — a value is kept as given or rejected — so a valid file
  re-serialises to the same bytes and the same cache key.  A JSON list is
  accepted for a ``Tuple`` field and stored as a tuple.
* **path-prefixed errors** — :meth:`Spec.from_file` (and :func:`load_file`
  for callers that pick the class from the tag) prefixes every load error
  with the file's path; a malformed file raises ``ValueError``, an
  unreadable one ``OSError``.

The module imports only the standard library.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import numbers
import reprlib
import typing
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, Optional, TypeVar, Union

__all__ = ["Spec", "field_types", "load_file"]

T = TypeVar("T")

_FIELD_TYPES: Dict[type, Dict[str, Any]] = {}


def field_types(cls: type) -> Dict[str, Any]:
    """Field name -> resolved annotation, in declaration order (cached per class)."""
    types = _FIELD_TYPES.get(cls)
    if types is None:
        hints = typing.get_type_hints(cls)
        types = _FIELD_TYPES[cls] = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    return types


def _matches(hint: Any, value: Any) -> bool:
    origin = typing.get_origin(hint)
    if origin is Union:
        return any(_matches(arg, value) for arg in typing.get_args(hint))
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_matches(item, entry) for entry in value)
    if origin is dict:
        return isinstance(value, dict)
    if hint is Any:
        return True
    if hint is type(None):
        return value is None
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return isinstance(value, hint)


_NAMES = {int: "an int", float: "a number", bool: "a bool", str: "a string", type(None): "null"}


def _describe(hint: Any) -> str:
    origin = typing.get_origin(hint)
    if origin is Union:
        return " or ".join(_describe(arg) for arg in typing.get_args(hint))
    if origin is tuple:
        return f"a list of {typing.get_args(hint)[0].__name__}"
    if origin is dict:
        return "a JSON object"
    return _NAMES.get(hint) or f"a {hint.__name__}"


def _is_section(hint: Any) -> bool:
    """A field holding a concrete spec's bare params (not a tagged envelope)."""
    return isinstance(hint, type) and issubclass(hint, Spec) and dataclasses.is_dataclass(hint)


def _encode(hint: Any, value: Any) -> Any:
    if isinstance(value, Spec):
        return _params(value) if _is_section(hint) else value.to_dict()
    if isinstance(value, tuple) and typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return [_encode(item, entry) for entry in value]
    return copy.deepcopy(value)


def _params(spec: "Spec") -> Dict[str, Any]:
    return {name: _encode(hint, getattr(spec, name)) for name, hint in field_types(type(spec)).items()}


def _decode_value(hint: Any, value: Any, name: str) -> Any:
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        item = typing.get_args(hint)[0]
        return tuple(_decode_value(item, entry, f"{name}[{i}]") for i, entry in enumerate(value))
    if _is_section(hint):
        return _decode_fields(hint, value, name)
    if isinstance(hint, type) and issubclass(hint, Spec):
        return hint.from_dict(value)
    return value


def _decode_fields(cls: type, params: Any, label: str, noun: str = "params") -> "Spec":
    """Build ``cls`` from one JSON object of its fields, rejecting unknown keys."""
    if not isinstance(params, dict):
        raise ValueError(f"{label} {noun} must be a JSON object, got {type(params).__name__}")
    types = field_types(cls)
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise ValueError(f"unknown {label} {noun}: {', '.join(map(str, unknown))}")
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in params:
            raise ValueError(f"{label} needs a {f.name!r} entry")
    return cls(**{name: _decode_value(types[name], value, name) for name, value in params.items()})


def load_file(path: Union[str, Path], decode: Callable[[Any], T]) -> T:
    """``decode`` the JSON document in ``path``; every error names the file.

    A malformed document (bad JSON, a wrong tag, an unknown key, a bad
    value) raises ``ValueError``; an unreadable file keeps its ``OSError``.
    """
    path = Path(path)
    try:
        return decode(json.loads(path.read_text()))
    except (ValueError, KeyError, OSError) as exc:
        message = f"{path}: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}"
        raise (type(exc)(message) if isinstance(exc, OSError) else ValueError(message)) from exc


class Spec:
    """Mixin giving a frozen spec dataclass its file format and type check.

    Subclasses set ``envelope`` (``"kind"``, ``"family"`` or ``None``), the
    tag attribute it names (e.g. ``kind = "serve/deployment"``) and a
    ``label`` for error messages, and put their value-range checks in
    :meth:`validate`.
    """

    #: Name of the tag key of the JSON envelope; ``None`` for a top-level layout.
    envelope: ClassVar[Optional[str]] = None
    #: How error messages name this spec (``"unknown <label> params: ..."``).
    label: ClassVar[str] = "spec"

    def __post_init__(self) -> None:
        for name, hint in field_types(type(self)).items():
            value = getattr(self, name)
            if isinstance(value, list) and typing.get_origin(hint) is tuple:
                value = tuple(value)
                object.__setattr__(self, name, value)
            if not _matches(hint, value):
                raise ValueError(
                    f"{name} must be {_describe(hint)}, got {type(value).__name__} {reprlib.repr(value)}"
                )
        self.validate()

    def validate(self) -> None:
        """Value-range and cross-field checks; field types are already checked."""

    # ------------------------------------------------------------- encoding
    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form: ``{envelope: tag, "params": {...}}`` in field order."""
        params = _params(self)
        if self.envelope is None:
            return params
        return {self.envelope: getattr(self, self.envelope), "params": params}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON — the byte-exact inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------- decoding
    @classmethod
    def tagged_class(cls, payload: Any) -> type:
        """The class a tagged payload decodes to: ``cls``, once the tag matches."""
        if not isinstance(payload, dict):
            raise ValueError(f"{cls.label} must be a JSON object, got {type(payload).__name__}")
        tag = payload.get(cls.envelope)
        expected = getattr(cls, cls.envelope)
        if tag != expected:
            raise ValueError(f"expected {cls.envelope} {expected!r}, got {tag!r}")
        return cls

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        """Inverse of :meth:`to_dict`; malformed payloads raise ``ValueError``."""
        if cls.envelope is None:
            if not isinstance(payload, dict):
                raise ValueError(f"{cls.label} must be a JSON object, got {type(payload).__name__}")
            return _decode_fields(cls, payload, cls.label, "keys")
        spec_cls = cls.tagged_class(payload)
        unknown = sorted(set(payload) - {cls.envelope, "params"})
        if unknown:
            raise ValueError(f"unknown {spec_cls.label} keys: {', '.join(map(str, unknown))}")
        return _decode_fields(spec_cls, payload.get("params", {}), spec_cls.label)

    @classmethod
    def from_json(cls, text: str) -> Any:
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> Any:
        """Load a spec file; every error names the file (see :func:`load_file`)."""
        return load_file(path, cls.from_dict)

    @classmethod
    def sniff(cls, payload: Any) -> bool:
        """True when a decoded JSON payload carries this class's tag."""
        return (
            cls.envelope is not None
            and isinstance(payload, dict)
            and payload.get(cls.envelope) == getattr(cls, cls.envelope)
        )

    # ----------------------------------------------------------- derivation
    def with_updates(self, **updates: Any) -> Any:
        """A new spec with ``updates`` applied (validation re-runs)."""
        return dataclasses.replace(self, **updates)

    @classmethod
    def field_defaults(cls) -> Dict[str, Any]:
        """Field name -> default in declaration (and JSON) order; ``...`` when required."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                out[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:
                out[f.name] = f.default_factory()
            else:
                out[f.name] = ...
        return out
