"""Single source of truth for the engine-mode knobs.

Each analysis stage has exactly one engine, so the only switchable
mode left is where sampled-campaign shards run (``backend``).  A knob
follows one contract: an explicit argument wins, else its ``REPRO_*``
environment variable, else the first (default) mode; anything else is
a loud error.

The registry also powers two consumers that need *all* knobs at once:

- :func:`resolve_modes` — the resolved mode dict recorded in run
  manifests and compared by ``repro-runs diff``;
- :func:`env_signature` — a snapshot of every ``REPRO_*`` variable,
  used by :mod:`repro.perf.procpool` to decide whether the campaign
  process pool is still consistent with the parent's environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Knob:
    """One engine-mode knob: its env var and recognized modes."""

    name: str
    env: str
    modes: Tuple[str, ...]  # first entry is the default

    @property
    def default(self) -> str:
        return self.modes[0]


#: The engine-mode registry.  Order is presentation order (manifests,
#: docs); the first mode of each knob is its default.
KNOBS: Tuple[Knob, ...] = (
    # Where sampled-campaign shards run; extraction is always in-process.
    Knob("backend", "REPRO_BACKEND", ("thread", "process")),
)

_BY_NAME: Dict[str, Knob] = {knob.name: knob for knob in KNOBS}


def knob(name: str) -> Knob:
    """The registry entry for one knob; KeyError when unknown."""
    return _BY_NAME[name]


def resolve_mode(name: str, explicit: Optional[str] = None) -> str:
    """Resolve one knob: ``explicit`` arg, else its env var, else default.

    Raises ``ValueError`` (never a silent fallback) when the requested
    mode is not one of the knob's recognized modes.
    """
    entry = _BY_NAME[name]
    mode = (explicit or os.environ.get(entry.env, "").strip().lower()
            or entry.default)
    if mode not in entry.modes:
        raise ValueError(
            f"unknown {entry.name} mode {mode!r}; expected one of "
            f"{', '.join(entry.modes)}"
        )
    return mode


def resolve_modes(overrides: Optional[Dict[str, Optional[str]]] = None,
                  ) -> Dict[str, str]:
    """Every knob resolved, with ``overrides`` pinning explicit choices.

    ``overrides`` maps knob name to an explicit mode (``None`` entries
    mean "not pinned" and fall through to the environment).
    """
    overrides = overrides or {}
    return {
        entry.name: resolve_mode(entry.name, overrides.get(entry.name))
        for entry in KNOBS
    }


def env_signature() -> Tuple[Tuple[str, str], ...]:
    """Sorted snapshot of every ``REPRO_*`` environment variable.

    Two processes with equal signatures resolve every knob — and every
    cache/corpus location — identically, which is the consistency
    condition for reusing a persistent worker pool.
    """
    return tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_")
    ))
