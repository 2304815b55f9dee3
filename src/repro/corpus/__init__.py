"""The modelled C corpus of the Ext4 ecosystem and its loader.

Six translation units ship as package data: ``mke2fs.c``, ``mount.c``,
``ext4_super.c``, ``e4defrag.c``, ``resize2fs.c``, ``e2fsck.c``, plus
the shared-library unit ``libext2fs.c``.  Each models the
configuration-handling core of the corresponding real component (see
the header comment in each file and DESIGN.md for what is modelled and
why the substitution preserves the analyzer-relevant structure).
"""

import os

from repro import _lazy

#: Environment override for the corpus directory.  Points the whole
#: pipeline (loader, caches, benchmarks) at a copy of the corpus —
#: how the incremental benchmarks edit one file without touching the
#: checked-in corpus.
CORPUS_DIR_ENV = "REPRO_CORPUS_DIR"


def corpus_dir() -> str:
    """The directory corpus units load from (honors ``$REPRO_CORPUS_DIR``)."""
    override = os.environ.get(CORPUS_DIR_ENV, "").strip()
    return override or os.path.dirname(os.path.abspath(__file__))


_lazy.install(globals(), {
    "repro.corpus.loader": ("CorpusUnit", "load_corpus", "load_unit",
                            "corpus_path"),
})
