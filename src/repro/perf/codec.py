"""Compact binary codec for analysis results (the pickle replacement).

The function-level analysis store (:mod:`repro.corpus.cache`) persists
one ``(TaintState, FunctionFindings)`` pair per analyzed function.
Pickle round-trips those objects but pays for generality: per-object
class lookup by qualified name, protocol framing, and no sharing of the
label strings that dominate the payload.  This codec serializes exactly
the closed set of types the analysis pipeline produces:

- scalars (``None``, bools, ints, floats, strings),
- containers (list/tuple/dict/set/frozenset),
- the registered dataclasses of the IR and analysis layers, encoded as
  a class index plus field values in ``dataclasses.fields`` order,
- ``enum.Enum`` members of registered enums.

Three properties the store relies on:

**Aliasing is preserved.**  Registered-class instances, frozensets and
strings are written once and back-referenced afterwards, so the decoded
graph shares objects exactly where the encoded graph did (the same
:class:`~repro.lang.ir.Instr` appearing in ``trace`` and ``defs``
decodes to one object, and the interned label sets stay shared).

**Corruption is loud.**  Every malformed input — truncated stream,
unknown tag, bad back-reference, trailing bytes, wrong magic — raises
:exc:`CodecError`; the store treats that as a cache miss and recomputes.

**Shape changes are visible.**  :data:`SCHEMA` fingerprints the wire
format *and* every registered class's field list, so editing a
dataclass (or reordering the registry) changes the fingerprint and the
store keys built from it — stale entries become unreachable instead of
mis-decoding.

The registry is closed on purpose: encoding an unregistered type raises
``CodecError`` immediately, which keeps "pickle arbitrary objects"
bugs out of the cache layer.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from typing import Any, Dict, List, Tuple, Type

#: Leading magic + wire-format version.  Bump the digit when the tag
#: scheme or framing changes incompatibly.
MAGIC = b"RAC1"


class CodecError(Exception):
    """Raised for any malformed, truncated, or unencodable input."""


def _registry() -> Tuple[type, ...]:
    """The closed set of encodable classes, in fixed wire order.

    Imported lazily so ``repro.perf`` (which imports this module's
    package) never cycles with the analysis layer.  Appending to the
    end is backward compatible in spirit, but any change still rotates
    :data:`SCHEMA` — by design.
    """
    from repro.analysis import constraints as C
    from repro.analysis import model as M
    from repro.analysis import taint as T
    from repro.lang import ir as I

    return (
        # IR values
        I.Temp, I.Var, I.Const, I.StrConst,
        # IR instructions
        I.Move, I.BinOp, I.UnOp, I.LoadField, I.StoreField,
        I.LoadIndex, I.StoreIndex, I.CallInstr, I.Branch, I.Jump, I.Ret,
        # IR containers
        I.BasicBlock, I.Function, I.Module,
        # analysis model
        M.ParamRef, M.Evidence, M.Dependency,
        # taint layer
        T.FieldTaint, T.FieldWrite, T.FieldRead, T.TaintState,
        # constraint layer
        C.CmpAtom, C.FlagAtom, C.BranchUse, C.FunctionFindings,
    )


def _enums() -> Tuple[Type[enum.Enum], ...]:
    from repro.analysis import model as M

    return (M.SubKind, M.Category)


#: Fields excluded from the wire format per class name; decoded
#: instances get the dataclass default back (caches re-derive lazily).
_SKIP_FIELDS = {"TaintState": frozenset({"_mpm_cache"})}

_CLASSES: Tuple[type, ...] = ()
_ENUM_CLASSES: Tuple[Type[enum.Enum], ...] = ()
_CLASS_INDEX: Dict[type, int] = {}
_ENUM_INDEX: Dict[type, int] = {}
_CLASS_FIELDS: List[Tuple[str, ...]] = []
#: Per class: (skipped-field defaults, may the decoder bypass __init__?).
#: Bypass (``__new__`` + direct ``__dict__`` fill, pickle's own strategy)
#: is used for plain dataclasses; classes with ``__post_init__`` or
#: ``__slots__`` keep the constructor path so their invariants run.
_CLASS_BUILD: List[Tuple[Tuple[Tuple[str, Any, Any], ...], bool]] = []
_SCHEMA: str = ""


def _ensure_registry() -> None:
    global _CLASSES, _ENUM_CLASSES, _SCHEMA
    if _CLASSES:
        return
    _CLASSES = _registry()
    _ENUM_CLASSES = _enums()
    for index, cls in enumerate(_CLASSES):
        _CLASS_INDEX[cls] = index
        skip = _SKIP_FIELDS.get(cls.__name__, frozenset())
        _CLASS_FIELDS.append(tuple(
            f.name for f in dataclasses.fields(cls) if f.name not in skip
        ))
        skipped = []
        for f in dataclasses.fields(cls):
            if f.name not in skip:
                continue
            if f.default_factory is not dataclasses.MISSING:
                skipped.append((f.name, None, f.default_factory))
            elif f.default is not dataclasses.MISSING:
                skipped.append((f.name, f.default, None))
            else:
                raise CodecError(
                    f"skipped field {cls.__name__}.{f.name} has no default"
                )
        fast = (not hasattr(cls, "__post_init__")
                and not hasattr(cls, "__slots__"))
        _CLASS_BUILD.append((tuple(skipped), fast))
    for index, cls in enumerate(_ENUM_CLASSES):
        _ENUM_INDEX[cls] = index
    shape = ";".join(
        f"{cls.__name__}({','.join(fields)})"
        for cls, fields in zip(_CLASSES, _CLASS_FIELDS)
    ) + "|" + ";".join(
        f"{cls.__name__}({','.join(m.name for m in cls)})"
        for cls in _ENUM_CLASSES
    )
    _SCHEMA = (MAGIC.decode("ascii") + ":"
               + hashlib.sha256(shape.encode("utf-8")).hexdigest()[:16])


def schema() -> str:
    """Fingerprint of the wire format + every registered class shape."""
    _ensure_registry()
    return _SCHEMA


# ---------------------------------------------------------------------------
# wire tags
# ---------------------------------------------------------------------------

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3        # zigzag varint
_T_FLOAT = 4      # 8 bytes, little-endian IEEE 754
_T_STR = 5        # varint byte length + utf-8; enters the ref table
_T_LIST = 6       # varint count + items
_T_TUPLE = 7
_T_DICT = 8       # varint count + alternating key/value
_T_SET = 9
_T_FROZENSET = 10  # enters the ref table
_T_OBJ = 11       # varint class index + field values; enters the ref table
_T_ENUM = 12      # varint enum index + value string; enters the ref table
_T_REF = 13       # varint back-reference into the ref table
_T_BYTES = 14


# Both coder loops below are written closure-style — byte cursor and
# ref table live in closed-over locals, varints are inlined — because
# the store decodes every warm-run entry on the critical path and a
# per-byte bound-method call (the obvious implementation) made decode
# slower than the fixpoints it replaces.

#: Open-slot marker in the decoder's ref table (``None`` is a value).
_OPEN = object()


class _Encoder:
    def __init__(self, out: bytearray = None) -> None:
        self.out = bytearray() if out is None else out
        self.obj_refs: Dict[int, int] = {}   # id(obj) -> table index
        self.str_refs: Dict[str, int] = {}   # value -> table index
        self.pins: List[Any] = []            # keeps ids alive while encoding
        self.next_ref = 0

    def _reserve(self) -> int:
        index = self.next_ref
        self.next_ref += 1
        return index

    def _varint(self, value: int) -> None:
        append = self.out.append
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                append(byte | 0x80)
            else:
                append(byte)
                return

    def encode(self, value: Any) -> None:
        out = self.out
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif type(value) is int:
            out.append(_T_INT)
            # Zigzag without magnitude limits: Python ints are unbounded.
            self._varint((value << 1) if value >= 0
                         else ((-value) << 1) - 1)
        elif type(value) is float:
            out.append(_T_FLOAT)
            out.extend(struct.pack("<d", value))
        elif type(value) is str:
            ref = self.str_refs.get(value)
            if ref is not None:
                out.append(_T_REF)
                self._varint(ref)
                return
            self.str_refs[value] = self._reserve()
            raw = value.encode("utf-8")
            out.append(_T_STR)
            self._varint(len(raw))
            out.extend(raw)
        elif type(value) is bytes:
            out.append(_T_BYTES)
            self._varint(len(value))
            out.extend(value)
        elif type(value) is list:
            out.append(_T_LIST)
            self._varint(len(value))
            for item in value:
                self.encode(item)
        elif type(value) is tuple:
            out.append(_T_TUPLE)
            self._varint(len(value))
            for item in value:
                self.encode(item)
        elif type(value) is dict:
            out.append(_T_DICT)
            self._varint(len(value))
            for key, item in value.items():
                self.encode(key)
                self.encode(item)
        elif type(value) is set:
            out.append(_T_SET)
            self._varint(len(value))
            for item in value:
                self.encode(item)
        elif type(value) is frozenset:
            ref = self.obj_refs.get(id(value))
            if ref is not None:
                out.append(_T_REF)
                self._varint(ref)
                return
            self.obj_refs[id(value)] = self._reserve()
            self.pins.append(value)
            out.append(_T_FROZENSET)
            self._varint(len(value))
            for item in value:
                self.encode(item)
        elif isinstance(value, enum.Enum):
            ref = self.obj_refs.get(id(value))
            if ref is not None:
                out.append(_T_REF)
                self._varint(ref)
                return
            enum_index = _ENUM_INDEX.get(type(value))
            if enum_index is None:
                raise CodecError(f"unregistered enum {type(value).__name__}")
            self.obj_refs[id(value)] = self._reserve()
            self.pins.append(value)
            out.append(_T_ENUM)
            self._varint(enum_index)
            self.encode(value.name)
        else:
            class_index = _CLASS_INDEX.get(type(value))
            if class_index is None:
                raise CodecError(
                    f"unencodable type {type(value).__name__}: not in the "
                    f"codec registry"
                )
            ref = self.obj_refs.get(id(value))
            if ref is not None:
                out.append(_T_REF)
                self._varint(ref)
                return
            self.obj_refs[id(value)] = self._reserve()
            self.pins.append(value)
            out.append(_T_OBJ)
            self._varint(class_index)
            for name in _CLASS_FIELDS[class_index]:
                self.encode(getattr(value, name))


def _decode_stream(data) -> Tuple[Any, int]:
    """Decode one value; returns ``(value, bytes consumed)``."""
    table: List[Any] = []
    table_append = table.append
    size = len(data)
    pos = 0
    classes = _CLASSES
    class_fields = _CLASS_FIELDS
    class_build = _CLASS_BUILD
    enum_classes = _ENUM_CLASSES
    unpack_float = struct.Struct("<d").unpack_from

    def varint_rest(first: int) -> int:
        """Continuation bytes of a multi-byte varint (the rare case)."""
        nonlocal pos
        result = first & 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 128:
                raise CodecError("varint too long")

    # Out-of-range reads surface as IndexError/struct.error, which
    # :func:`loads` converts to CodecError — per-byte bounds checks in
    # this loop cost more than the whole fixpoint they'd be guarding.
    def decode() -> Any:
        nonlocal pos
        tag = data[pos]
        pos += 1
        # Tag tests ordered by frequency in real analysis payloads:
        # back-references and strings dominate, then ints and objects.
        if tag == _T_REF:
            ref = data[pos]
            pos += 1
            if ref >= 0x80:
                ref = varint_rest(ref)
            value = table[ref]
            if value is _OPEN:
                raise CodecError(f"back-reference {ref} into open object")
            return value
        if tag == _T_STR:
            length = data[pos]
            pos += 1
            if length >= 0x80:
                length = varint_rest(length)
            end = pos + length
            if end > size:
                raise CodecError("truncated stream")
            try:
                value = str(data[pos:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"bad utf-8 in string: {exc}") from None
            pos = end
            table_append(value)
            return value
        if tag == _T_INT:
            raw = data[pos]
            pos += 1
            if raw >= 0x80:
                raw = varint_rest(raw)
            return (raw >> 1) if not (raw & 1) else -((raw + 1) >> 1)
        if tag == _T_OBJ:
            index = len(table)
            table_append(_OPEN)
            class_index = data[pos]
            pos += 1
            if class_index >= 0x80:
                class_index = varint_rest(class_index)
            if class_index >= len(classes):
                raise CodecError(f"bad class index {class_index}")
            cls = classes[class_index]
            skipped, fast = class_build[class_index]
            if fast:
                value = cls.__new__(cls)
                fill = value.__dict__
                for name in class_fields[class_index]:
                    fill[name] = decode()
                for name, default, factory in skipped:
                    fill[name] = factory() if factory is not None else default
            else:
                kwargs = {name: decode()
                          for name in class_fields[class_index]}
                try:
                    value = cls(**kwargs)
                except (TypeError, ValueError) as exc:
                    raise CodecError(
                        f"cannot rebuild {cls.__name__}: {exc}"
                    ) from None
            table[index] = value
            return value
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_FROZENSET:
            index = len(table)
            table_append(_OPEN)
            count = data[pos]
            pos += 1
            if count >= 0x80:
                count = varint_rest(count)
            value = frozenset([decode() for _ in range(count)])
            table[index] = value
            return value
        if tag in (_T_LIST, _T_TUPLE, _T_SET):
            count = data[pos]
            pos += 1
            if count >= 0x80:
                count = varint_rest(count)
            items = [decode() for _ in range(count)]
            if tag == _T_LIST:
                return items
            return tuple(items) if tag == _T_TUPLE else set(items)
        if tag == _T_DICT:
            count = data[pos]
            pos += 1
            if count >= 0x80:
                count = varint_rest(count)
            out: Dict[Any, Any] = {}
            for _ in range(count):
                key = decode()
                out[key] = decode()
            return out
        if tag == _T_ENUM:
            index = len(table)
            table_append(_OPEN)
            enum_index = data[pos]
            pos += 1
            if enum_index >= 0x80:
                enum_index = varint_rest(enum_index)
            if enum_index >= len(enum_classes):
                raise CodecError(f"bad enum index {enum_index}")
            name = decode()
            try:
                member = enum_classes[enum_index][name]
            except KeyError:
                raise CodecError(f"unknown enum member {name!r}") from None
            table[index] = member
            return member
        if tag == _T_FLOAT:
            value = unpack_float(data, pos)[0]
            pos += 8
            return value
        if tag == _T_BYTES:
            length = data[pos]
            pos += 1
            if length >= 0x80:
                length = varint_rest(length)
            end = pos + length
            if end > size:
                raise CodecError("truncated stream")
            value = bytes(data[pos:end])
            pos = end
            return value
        raise CodecError(f"unknown tag {tag}")

    return decode(), pos


def dump_into(value: Any, out: bytearray) -> Tuple[int, int]:
    """Append one magic-framed encoding of ``value`` to ``out``.

    Returns ``(offset, length)`` of the frame within ``out``.  Each
    frame is self-contained (the back-reference table resets per
    call), so any frame decodes independently of its neighbors in the
    same buffer.
    """
    _ensure_registry()
    offset = len(out)
    out += MAGIC
    _Encoder(out).encode(value)
    return offset, len(out) - offset


def dumps(value: Any) -> bytes:
    """Serialize ``value`` (registered types only) to bytes."""
    out = bytearray()
    dump_into(value, out)
    return bytes(out)


def loads(data) -> Any:
    """Rebuild a value from :func:`dumps`/:func:`dump_into` output.

    ``data`` may be ``bytes`` or any buffer (``memoryview``,
    ``bytearray``), so a frame sliced out of a larger buffer decodes
    without first being copied.  Raises :exc:`CodecError` for anything malformed — wrong magic,
    truncation, unknown tags or indexes, trailing bytes.
    """
    _ensure_registry()
    if data[:len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a codec stream")
    body = data[len(MAGIC):]
    try:
        value, consumed = _decode_stream(body)
    except CodecError:
        raise
    except (IndexError, struct.error, OverflowError, MemoryError) as exc:
        raise CodecError(f"malformed stream: {exc}") from None
    if consumed != len(body):
        raise CodecError(
            f"trailing garbage: {len(body) - consumed} bytes"
        )
    return value
