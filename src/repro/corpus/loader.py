"""Load and compile the corpus translation units.

Units resolve through a two-tier cache: a per-process table (same
:class:`CorpusUnit` object back on every call) in front of the
persistent on-disk IR cache (:mod:`repro.corpus.cache`), which lets
``compile_c`` results survive across processes.  Each resulting IR
module is tagged with its component name so the analyzer knows which
parameters belong where, and with its content fingerprint so the
per-function analysis memos (:mod:`repro.analysis.taint`,
:mod:`repro.analysis.constraints`) can key off it.

A unit read from the IR cache carries the entry's function index and
keeps the module pickled until :attr:`CorpusUnit.module` is first
read: extraction over stored analyses needs only each function's
definition line and source slice, so it never unpickles a module.

Loading is thread-safe: the parallel extractor may ask for the same
unit from several workers at once.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Dict, List, Optional

# ``CORPUS_DIR_ENV`` is re-exported: callers set it through this module.
from repro.corpus import CORPUS_DIR_ENV, corpus_dir as _corpus_dir  # noqa: F401
from repro.errors import UnknownComponentError
from repro.lang import compile_c
from repro.obs.tracer import span
from repro.perf import clear_memos, timed

if TYPE_CHECKING:
    from repro.lang.ir import Module

#: Translation unit -> ecosystem component.
UNIT_COMPONENTS: Dict[str, str] = {
    "mke2fs.c": "mke2fs",
    "mount.c": "mount",
    "ext4_super.c": "ext4",
    "e4defrag.c": "e4defrag",
    "resize2fs.c": "resize2fs",
    "e2fsck.c": "e2fsck",
    "libext2fs.c": "libext2fs",
    # §6 extension: the XFS ecosystem.
    "xfs_mkfs.c": "mkfs.xfs",
    "xfs_growfs.c": "xfs_growfs",
}

#: Guards unit loads and first reads of a stored module.
_LOAD_LOCK = threading.RLock()


class CorpusUnit:
    """One translation unit: its source, its content ``fingerprint``
    (the module key), its function index ``lines`` (name -> definition
    line) and its compiled module.

    ``module`` is unpickled from the stored bytes on first read (or
    compiled again, if the bytes turn out not to hold a module), so a
    unit whose functions all come from the analysis store costs one
    entry read and no unpickle.
    """

    def __init__(self, filename: str, component: str, source: str,
                 fingerprint: str, lines: Dict[str, int],
                 module: Optional[Module] = None, stored: bytes = b"") -> None:
        self.filename = filename
        self.component = component
        self.source = source
        self.fingerprint = fingerprint
        self.lines = lines
        self._module = module
        self._stored = stored
        self._slices: Optional[Dict[str, str]] = None

    @property
    def module(self) -> Module:
        """The unit's IR module (unpickled or compiled on first read)."""
        module = self._module
        if module is None:
            with _LOAD_LOCK:
                if self._module is None:
                    self._module = self._decode()
                    self._stored = b""
                module = self._module
        return module

    def _decode(self) -> Module:
        from repro.corpus import cache as disk

        module = disk.decode_module(self.fingerprint, self._stored)
        if module is None:  # the entry was deleted; compile and re-store
            module = _compile(self.filename, self.source, self.fingerprint,
                              use_disk=True)
        return _annotate(module, self.component, self.fingerprint)

    @property
    def slices(self) -> Dict[str, str]:
        """Per-function source-slice hashes (see
        :func:`repro.corpus.cache.function_slices`), computed once."""
        if self._slices is None:
            from repro.corpus.cache import function_slices

            self._slices = function_slices(self.source, self.lines)
        return self._slices


#: (resolved corpus dir, filename) -> unit.  The directory is part of
#: the key so flipping ``$REPRO_CORPUS_DIR`` mid-process (tests and the
#: incremental benchmarks do) can never serve a unit from the other
#: corpus; the analysis memos stay safe regardless because they key off
#: content fingerprints.
_CACHE: Dict[tuple, CorpusUnit] = {}


def corpus_path(filename: str) -> str:
    """Absolute path of one corpus file (honors ``$REPRO_CORPUS_DIR``)."""
    path = os.path.join(_corpus_dir(), filename)
    if not os.path.exists(path):
        raise UnknownComponentError(f"no corpus unit {filename!r}")
    return path


def _compile(filename: str, source: str, key: str, use_disk: bool) -> Module:
    """Compile ``source``, storing the module when ``use_disk``."""
    from repro.corpus import cache as disk

    with span("corpus.compile", unit=filename), timed("frontend.compile"):
        module = compile_c(source, filename)
    if use_disk:
        disk.store_module(key, module)
    return module


def _annotate(module: Module, component: str, key: str) -> Module:
    module.component = component
    module.fingerprint = key
    for func in module.functions.values():
        # Lets the per-function analysis memos key off pure content
        # without a back-pointer walk (set after pickling, so disk
        # entries stay annotation-free).
        func.module_fingerprint = key
    return module


def _load(filename: str, use_disk: bool) -> CorpusUnit:
    """Read ``filename``, then take its module index and bytes from the
    IR cache when ``use_disk``, else compile it."""
    from repro.corpus import cache as disk

    with open(corpus_path(filename), encoding="utf-8") as handle:
        source = handle.read()
    key = disk.module_key(source, filename)
    component = UNIT_COMPONENTS[filename]
    use_disk = (use_disk and disk.disk_cache_enabled()
                and bool(disk.package_digest()))
    entry = disk.load_module_entry(key) if use_disk else None
    if entry is not None:
        lines, stored = entry
        return CorpusUnit(filename, component, source, key, lines,
                          stored=stored)
    module = _annotate(_compile(filename, source, key, use_disk),
                       component, key)
    lines = {name: func.line for name, func in module.functions.items()}
    return CorpusUnit(filename, component, source, key, lines, module)


def load_unit(filename: str, use_cache: bool = True) -> CorpusUnit:
    """Read (from the IR cache, or by compiling) corpus unit
    ``filename``; with ``use_cache`` the same object comes back until
    :func:`clear_cache`."""
    cache_key = (_corpus_dir(), filename)
    if use_cache:
        unit = _CACHE.get(cache_key)
        if unit is not None:
            return unit
    if filename not in UNIT_COMPONENTS:
        raise UnknownComponentError(
            f"unknown corpus unit {filename!r}; known: {sorted(UNIT_COMPONENTS)}"
        )
    if not use_cache:
        return _load(filename, use_disk=False)
    with _LOAD_LOCK:
        unit = _CACHE.get(cache_key)  # a racing worker may have won
        if unit is None:
            unit = _load(filename, use_disk=True)
            _CACHE[cache_key] = unit
    return unit


def load_corpus(filenames: Optional[List[str]] = None) -> List[CorpusUnit]:
    """Compile several units (default: the whole corpus).

    Repeated filenames are deduped (first occurrence wins the slot), so
    scenario specs that mention a unit twice load it once and the
    returned list carries no aliased duplicates.
    """
    names = filenames if filenames is not None else sorted(UNIT_COMPONENTS)
    seen = set()
    unique = []
    for name in names:
        if name in seen:
            continue
        seen.add(name)
        unique.append(name)
    return [load_unit(name) for name in unique]


def clear_cache(disk: bool = False) -> None:
    """Drop compiled units, every per-function analysis memo and the
    stored extraction reports.

    The analysis memos (taint states, constraint findings, CFGs) key
    off unit fingerprints and function objects; dropping units without
    dropping them would at best leak and at worst serve results for
    modules no caller can reach any more, so the two always clear
    together.  The stored reports go too: a stored report answers an
    extraction without loading a unit, so dropping it makes the next
    extraction in this process read units and analyses from the IR
    cache and the analysis store.  Pass ``disk=True`` to also
    purge those persistent caches, the command store and any temp
    files a killed writer left.  The command store is left alone
    otherwise: no in-process extraction reads it, and a second
    directory scan would cost every call.
    """
    from repro.corpus.cache import clear_disk_cache, clear_reports

    with _LOAD_LOCK:
        _CACHE.clear()
        clear_memos()
    if disk:
        clear_disk_cache()
    else:
        clear_reports()
