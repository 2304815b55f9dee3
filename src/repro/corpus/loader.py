"""Load and compile the corpus translation units.

Units resolve through a two-tier cache: a per-process table (same
:class:`CorpusUnit` object back on every call) in front of the
persistent on-disk IR cache (:mod:`repro.corpus.cache`).  A unit's
source is read and hashed once per process
(:func:`repro.corpus.cache.read_unit`), and the same bytes key the
stored extraction report, so a report is never stored under sources
other than the ones analyzed.

The IR cache holds a unit's *index row*, not its IR: each function's
definition line, source-slice hash and (for the selected functions)
summary, all a later extraction reads of the unchanged unit.  Only the
extractor, which names the summary class, reads and writes it.  On a
miss the unit is outlined (:func:`repro.lang.compile_c` with
``bodies=False``: what lies outside its function bodies is lexed and
parsed, and each body is skipped as raw source) and the index comes
from the outline.  IR is compiled one function body at a time, when
:meth:`CorpusUnit.function` is first asked for a function the
analysis must run on (a ``corpus.compile`` span naming the function),
and only then is that body lexed;
:attr:`CorpusUnit.module` compiles every body for the readers that
walk a whole module, and tags the module with its component name and
the unit's content fingerprint.

Loading and compiling are thread-safe: the service may ask for the
same unit from several threads at once.
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
    from repro.lang.frontend import Outline
    from repro.lang.ir import Function, Module

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

#: Guards unit loads and compiles.
_LOAD_LOCK = threading.RLock()


class CorpusUnit:
    """One translation unit: its source, its content ``fingerprint``
    (the IR cache key), its function index ``lines`` (name ->
    definition line) and ``slices`` (name -> source-slice hash, see
    :func:`repro.corpus.cache.function_slices`), and the ``summaries``
    its index row carried (None when no row answered).

    IR is compiled on demand from the unit's outline, which is built
    on first need: :meth:`function` compiles one body,
    :attr:`module` the rest.
    """

    def __init__(self, filename: str, component: str, source: str,
                 fingerprint: str, lines: Dict[str, int],
                 slices: Dict[str, str], summaries: Optional[dict] = None,
                 outline: Optional[Outline] = None) -> None:
        self.filename = filename
        self.component = component
        self.source = source
        self.fingerprint = fingerprint
        self.lines = lines
        self.slices = slices
        self.summaries = summaries
        self._outline = outline
        self._functions: Dict[str, Function] = {}
        self._module: Optional[Module] = None

    def function(self, name: str) -> Function:
        """Function ``name``'s IR, compiled from its body alone (once);
        KeyError when the unit defines no such function."""
        with _LOAD_LOCK:
            func = self._functions.get(name)
            if func is None:
                unit_outline = self._outlined()
                with span("corpus.compile", unit=self.filename,
                          function=name), timed("frontend.compile"):
                    func = unit_outline.function(name)
                self._functions[name] = func
        return func

    @property
    def module(self) -> Module:
        """The unit's IR module, every body compiled (on first read)."""
        module = self._module
        if module is None:
            with _LOAD_LOCK:
                if self._module is None:
                    with span("corpus.compile", unit=self.filename), \
                            timed("frontend.compile"):
                        module = self._outlined().module()
                    module.component = self.component
                    module.fingerprint = self.fingerprint
                    self._functions.update(module.functions)
                    self._module = module
                module = self._module
        return module

    def _outlined(self) -> Outline:
        if self._outline is None:
            self._outline = _outline(self.filename, self.source)
        return self._outline


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


def _outline(filename: str, source: str) -> Outline:
    with span("corpus.outline", unit=filename), timed("frontend.outline"):
        return compile_c(source, filename, bodies=False)


def _load(filename: str, memo: bool,
          summary_kind: Optional[type]) -> CorpusUnit:
    """Read ``filename`` (once per process with ``memo``), then take its
    index row from the IR cache if ``summary_kind``, else outline it."""
    from repro.corpus import cache as disk

    source, key = disk.read_unit(filename, corpus_path(filename),
                                 memo=memo)
    component = UNIT_COMPONENTS[filename]
    use_disk = (summary_kind is not None and disk.disk_cache_enabled()
                and bool(disk.package_digest()))
    entry = disk.load_index(key, summary_kind) if use_disk else None
    if entry is not None:
        return CorpusUnit(filename, component, source, key, *entry)
    unit_outline = _outline(filename, source)
    return CorpusUnit(filename, component, source, key, unit_outline.lines,
                      disk.function_slices(unit_outline),
                      outline=unit_outline)


def load_unit(filename: str, use_cache: bool = True,
              summary_kind: Optional[type] = None) -> CorpusUnit:
    """Read corpus unit ``filename`` and its index (from its IR cache
    row when the caller names the ``summary_kind`` it reads, else by
    outlining it); with ``use_cache`` the same object comes back until
    :func:`clear_cache`, and without it the source is read afresh and
    no store is touched."""
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
        return _load(filename, False, None)
    with _LOAD_LOCK:
        unit = _CACHE.get(cache_key)  # a racing worker may have won
        if unit is None:
            unit = _load(filename, True, summary_kind)
            _CACHE[cache_key] = unit
    return unit


def load_corpus(filenames: Optional[List[str]] = None) -> List[CorpusUnit]:
    """Load several units (default: the whole corpus).

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
    """Drop loaded units and the sources they were read from, every
    registered memo and the stored extraction reports.

    The memos (function summaries, solver preparation, the lattice)
    key off unit fingerprints and function objects; dropping units
    without dropping them would at best leak and at worst serve results
    for modules no caller can reach any more, so the two always clear
    together.  The stored reports go too: a stored report answers an
    extraction without loading a unit, so dropping it makes the next
    extraction in this process read units and analyses from the IR
    cache and the analysis store.  Pass ``disk=True`` to also purge
    those persistent caches and the command store, which is left alone
    otherwise: no in-process extraction reads it.
    """
    from repro.corpus.cache import (clear_disk_cache, clear_reports,
                                    forget_sources)

    with _LOAD_LOCK:
        _CACHE.clear()
        forget_sources()
        clear_memos()
    if disk:
        clear_disk_cache()
    else:
        clear_reports()
