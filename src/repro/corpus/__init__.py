"""The modelled C corpus of the Ext4 ecosystem and its loader.

Six translation units ship as package data: ``mke2fs.c``, ``mount.c``,
``ext4_super.c``, ``e4defrag.c``, ``resize2fs.c``, ``e2fsck.c``, plus
the shared-library unit ``libext2fs.c``.  Each models the
configuration-handling core of the corresponding real component (see
the header comment in each file and DESIGN.md for what is modelled and
why the substitution preserves the analyzer-relevant structure).
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.corpus.loader": ("CorpusUnit", "load_corpus", "load_unit",
                            "corpus_path"),
})
