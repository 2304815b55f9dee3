"""Shared helpers: size parsing, bit flags, text tables, deterministic RNG."""

from repro import _lazy

_lazy.install(globals(), {
    "repro.common.units": ("parse_size", "format_size"),
    "repro.common.bitflags": ("FlagRegistry",),
    "repro.common.texttable": ("TextTable",),
})
