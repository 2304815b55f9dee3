"""A minimal JSON-Schema-subset validator (no third-party deps).

The observability artifacts — JSONL span events, Chrome traces, run
manifests — ship with checked-in schemas (``event_schema.json``,
``manifest_schema.json``) that tests and ``make verify`` validate
against.  The container has no ``jsonschema`` package, so this module
interprets the subset those schemas actually use:

``type`` (string or list), ``properties``, ``required``,
``additionalProperties`` (boolean), ``items``, ``enum``, ``const``,
``minimum``, ``minItems``.

Unknown schema keywords raise instead of silently passing — a schema
typo should fail loudly in CI, not validate everything.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

#: JSON type name -> python types.  bool must be checked before int
#: (bool subclasses int in Python).
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}

_HANDLED = {
    "type", "properties", "required", "additionalProperties", "items",
    "enum", "const", "minimum", "minItems",
    # descriptive keywords, no validation semantics
    "title", "description", "$schema", "$id",
}


class SchemaError(ValueError):
    """An instance does not conform to its schema."""


def _type_ok(value: Any, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    expected = _TYPES.get(name)
    if expected is None:
        raise SchemaError(f"unknown schema type {name!r}")
    if expected is dict or expected is list or expected is str:
        return isinstance(value, expected)
    if expected is bool:
        return isinstance(value, bool)
    return value is None


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> None:
    """Raise :class:`SchemaError` when ``instance`` violates ``schema``."""
    unknown = set(schema) - _HANDLED
    if unknown:
        raise SchemaError(
            f"{path}: schema uses unsupported keywords {sorted(unknown)}")

    if "const" in schema and instance != schema["const"]:
        raise SchemaError(
            f"{path}: expected constant {schema['const']!r}, got {instance!r}")

    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            f"{path}: {instance!r} not one of {schema['enum']}")

    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_ok(instance, name) for name in names):
            raise SchemaError(
                f"{path}: expected type {'/'.join(names)}, "
                f"got {type(instance).__name__}")

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            raise SchemaError(
                f"{path}: {instance} below minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            sub = properties.get(key)
            if sub is not None:
                validate(value, sub, f"{path}.{key}")
            elif schema.get("additionalProperties", True) is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")

    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            raise SchemaError(
                f"{path}: {len(instance)} items below minItems "
                f"{schema['minItems']}")
        items = schema.get("items")
        if items is not None:
            for index, value in enumerate(instance):
                validate(value, items, f"{path}[{index}]")


def load_schema(basename: str) -> Dict[str, Any]:
    """Load a checked-in schema shipped next to this module."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), basename)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
