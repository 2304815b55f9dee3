"""A mini-C frontend: lexer, parser, semantic checks, IR, and CFGs.

This package substitutes for LLVM/Clang in the paper's pipeline.  It
accepts the C subset used by the modelled corpus in
:mod:`repro.corpus` — structs, enums, typedefs, ``#define`` object
macros, functions, the usual statements and expressions (including
``switch``), pointers and ``->`` member access — and lowers it to a
small register IR with explicit loads/stores of struct fields, which is
exactly the level the taint analysis needs.

Typical use::

    from repro.lang import compile_c
    module = compile_c(source_text, filename="mke2fs.c")
    for function in module.functions.values():
        ...  # function.blocks, function.instructions
"""

#: Version of the frontend's *semantics* (lexer, parser, sema, lowering,
#: IR shape).  Part of the persistent IR-cache key
#: (:mod:`repro.corpus.cache`): bump it whenever a change makes
#: previously compiled modules stale, and every old cache entry is
#: orphaned at once.
FRONTEND_VERSION = "1"

from repro import _lazy

__all__ = ["FRONTEND_VERSION", "compile_c"]

_lazy.install(globals(), {
    "repro.lang.lexer": ("Lexer", "Token", "TokenKind", "tokenize"),
    "repro.lang.parser": ("Parser", "parse"),
    "repro.lang.sema": ("analyze",),
    "repro.lang.lower": ("lower",),
    "repro.lang.ir": ("IRModule",),
})


def compile_c(source: str, filename: str = "<input>") -> "IRModule":
    """Front-to-back compilation: source text to an IR module.

    The frontend loads on the first call, so a run whose IR all comes
    from the cache only ever imports :mod:`repro.lang.ir`.
    """
    from repro.lang.lower import lower
    from repro.lang.parser import parse
    from repro.lang.sema import analyze

    # Loading the ``lower`` submodule binds it over the exported
    # function of the same name; put the function back.
    globals()["lower"] = lower
    tree = parse(source, filename)
    analyze(tree)
    return lower(tree)
