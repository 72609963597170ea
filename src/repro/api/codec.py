"""One JSON codec for frozen dataclass records.

A record's JSON form follows from its dataclass fields and their type
hints, by one rule. Encoding writes, in order:

1. every field, in declaration order;
2. every field marked ``field(metadata=OPTIONAL)``, only when it differs
   from its default (adding such a field leaves the bytes of every
   record that does not set it unchanged);
3. the keys of a class-level ``_derived = {key: fn(record)}`` map: views
   for human readers, recomputed on every encode and ignored on decode,
   with ``inf`` written as ``null``.

Decoding checks each value's JSON kind against the field's annotation:
an object for a record or a ``dict``, an array for a ``tuple``, an
integer (not a boolean) for ``int``, a number for ``float`` (an integer
stays an integer, so ``0`` re-encodes as ``0``), a string for ``str``
and a boolean for ``bool``. Absent keys take their defaults, a key that
is neither a field nor a ``_derived`` name is an error, and nothing is
coerced. Every mismatch raises ``TypeError`` naming ``Class.field``; the
dataclass's own ``__post_init__`` still runs on the decoded values.

Nested records go through their own plans. A dataclass that is not a
:class:`Record` but defines ``to_dict``/``from_dict`` (the Chrome
``trace_event`` form of :class:`~repro.obs.tracer.TraceEvent`) is
converted by those; any other dataclass is treated as a record. Each
class's plan is compiled once, on first use, from
:func:`dataclasses.fields` and :func:`typing.get_type_hints`.

The module uses only the standard library, so any layer can import it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from typing import Any, Callable

__all__ = ["OPTIONAL", "Record", "encode", "decode"]

#: ``field(metadata=OPTIONAL)``: write the field only when it differs
#: from its default.
OPTIONAL = types.MappingProxyType({"optional": True})

_NONE = type(None)
#: JSON kind names of the scalar hints.
_SCALARS = {int: "integer", float: "number", str: "string", bool: "boolean"}
#: JSON kind names of decoded values, for error messages.
_KINDS = {
    _NONE: "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "array", tuple: "array", dict: "object",
}
#: Item types a derived view writes as they are (not ``float``: ``inf``).
_PLAIN = frozenset((int, str, bool, _NONE))
_MISSING = dataclasses.MISSING

#: Per class: (encoder, decoder of a dict), compiled on first use.
_PLANS: dict[type, tuple[Callable[[Any], dict], Callable[[dict], Any]]] = {}


class Record:
    """Mixin for a frozen dataclass whose JSON form follows the module
    rule: ``to_dict``/``from_dict`` and ``to_json``/``from_json``."""

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Any:
        return decode(cls, data)

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(encode(self), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> Any:
        return decode(cls, json.loads(text))


def encode(record: Any) -> dict[str, Any]:
    """The JSON-safe dict of a dataclass ``record``."""
    return _plan(type(record))[0](record)


def decode(cls: type, data: Any) -> Any:
    """An instance of dataclass ``cls`` from its JSON-safe dict.

    Raises:
        TypeError: when ``data`` does not match ``cls``'s fields.
    """
    if not isinstance(data, dict):
        raise _mismatch(cls.__name__, "object", data)
    return _plan(cls)[1](data)


def _plan(cls: type) -> tuple[Callable, Callable]:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _compile(cls)
    return plan


def _compile(cls: type) -> tuple[Callable, Callable]:
    name = cls.__name__
    hints = typing.get_type_hints(cls)
    always, optional, fields, required = [], [], {}, []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if f.metadata.get("optional"):
            default = (
                f.default if f.default_factory is _MISSING else f.default_factory()
            )
            optional.append((f.name, default, _encoder_for(hint)))
        else:
            always.append((f.name, _encoder_for(hint)))
        if f.default is _MISSING and f.default_factory is _MISSING:
            required.append(f.name)
        fields[f.name] = (_exact(hint), _decoder_for(hint, f"{name}.{f.name}"))
    derived = tuple(getattr(cls, "_derived", {}).items())
    ignored = frozenset(key for key, _ in derived)

    def encode_record(record: Any) -> dict[str, Any]:
        data = {}
        for key, enc in always:
            value = getattr(record, key)
            data[key] = value if enc is None else enc(value)
        for key, default, enc in optional:
            value = getattr(record, key)
            if value != default:
                data[key] = value if enc is None else enc(value)
        for key, view in derived:
            data[key] = _encode_view(view(record))
        return data

    def decode_record(data: dict[str, Any]) -> Any:
        kwargs = {}
        for key, value in data.items():
            entry = fields.get(key)
            if entry is None:
                if key in ignored:
                    continue
                raise TypeError(f"{name}.{key}: unknown key")
            exact, dec = entry
            kwargs[key] = value if type(value) in exact else dec(value)
        try:
            return cls(**kwargs)
        except TypeError:
            for key in required:
                if key not in kwargs:
                    raise TypeError(f"{name}.{key}: missing required key") from None
            raise

    return encode_record, decode_record


def _own_codec(cls: type) -> bool:
    """A non-record dataclass with its own ``to_dict``/``from_dict``."""
    return not issubclass(cls, Record) and hasattr(cls, "from_dict")


def _shape(hint: Any) -> tuple[str, Any]:
    """``(form, argument)`` of a field hint: ``("scalar", None)``,
    ``("optional", X)``, ``("array", item hints)``, ``("dict", value
    hint)`` or ``("record", None)``."""
    if hint in _SCALARS:
        return "scalar", None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if len(args) != 2 or _NONE not in args:
            raise TypeError(f"unsupported union {hint!r}")
        return "optional", args[0] if args[1] is _NONE else args[1]
    if origin is tuple:
        return "array", args
    if origin is dict:
        return "dict", args[1]
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return "record", None
    raise TypeError(f"no JSON form for {hint!r}")


def _exact(hint: Any) -> frozenset:
    """Value types decoding takes as they are (the fast path)."""
    form, arg = _shape(hint)
    if form == "optional":
        return _exact(arg) | {_NONE}
    if form != "scalar":
        return frozenset()
    return frozenset((int, float) if hint is float else (hint,))


def _encoder_for(hint: Any) -> Callable[[Any], Any] | None:
    """A value encoder for ``hint``; ``None`` when values pass as they are."""
    form, arg = _shape(hint)
    if form == "scalar":
        return None
    if form == "optional":
        enc = _encoder_for(arg)
        return None if enc is None else (
            lambda value: None if value is None else enc(value)
        )
    if form == "array":
        encs = [_encoder_for(item) for item in arg if item is not Ellipsis]
        if all(enc is None for enc in encs):
            return list
        if arg[-1] is Ellipsis:
            return lambda value: [encs[0](x) for x in value]
        return lambda value: [
            x if enc is None else enc(x) for enc, x in zip(encs, value)
        ]
    if form == "dict":
        enc = _encoder_for(arg)
        return dict if enc is None else (
            lambda value: {k: enc(x) for k, x in value.items()}
        )
    if _own_codec(hint):
        return lambda value: value.to_dict()
    return _plan(hint)[0]


def _decoder_for(hint: Any, where: str) -> Callable[[Any], Any]:
    """A value decoder for ``hint``; ``where`` names the field in errors."""
    form, arg = _shape(hint)
    if form == "scalar":
        exact, kinds = _exact(hint), (int, float) if hint is float else hint

        def scalar(value: Any) -> Any:
            if type(value) in exact or (
                isinstance(value, kinds)
                and (hint is bool or not isinstance(value, bool))
            ):
                return value
            raise _mismatch(where, _SCALARS[hint], value)

        return scalar
    if form == "optional":
        dec = _decoder_for(arg, where)
        return lambda value: None if value is None else dec(value)
    if form == "array":
        items = [item for item in arg if item is not Ellipsis]
        decs = [_decoder_for(item, where) for item in items]
        exact = _exact(items[0]) if arg[-1] is Ellipsis else None

        def array(value: Any) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _mismatch(where, "array", value)
            if exact is not None:
                dec = decs[0]
                return tuple([x if type(x) in exact else dec(x) for x in value])
            if len(value) != len(decs):
                raise TypeError(
                    f"{where}: expected array of {len(decs)}, "
                    f"got {len(value)} items"
                )
            return tuple(dec(x) for dec, x in zip(decs, value))

        return array
    if form == "dict":
        key_dec = _decoder_for(typing.get_args(hint)[0], where)
        item_dec = _decoder_for(arg, where)

        def mapping(value: Any) -> dict:
            if not isinstance(value, dict):
                raise _mismatch(where, "object", value)
            return {key_dec(k): item_dec(x) for k, x in value.items()}

        return mapping
    inner = hint.from_dict if _own_codec(hint) else _plan(hint)[1]

    def record(value: Any) -> Any:
        if not isinstance(value, dict):
            raise _mismatch(where, "object", value)
        return inner(value)

    return record


def _encode_view(value: Any) -> Any:
    """A derived view's JSON form, by runtime type; ``inf`` is ``null``."""
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, (tuple, list)):
        return [x if type(x) in _PLAIN else _encode_view(x) for x in value]
    if isinstance(value, dict):
        return {k: _encode_view(x) for k, x in value.items()}
    if dataclasses.is_dataclass(value):
        return encode(value)
    return value


def _mismatch(where: str, expected: str, value: Any) -> TypeError:
    kind = _KINDS.get(type(value), type(value).__name__)
    return TypeError(f"{where}: expected {expected}, got {kind}")
