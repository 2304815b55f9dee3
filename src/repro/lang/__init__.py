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

A caller that needs only some functions asks for the unit's outline
(:mod:`repro.lang.frontend`) and compiles just those bodies::

    unit = compile_c(source_text, filename="mke2fs.c", bodies=False)
    function = unit.function("parse_mke2fs_options")
"""

#: Version of the frontend's *semantics* (lexer, parser, sema, lowering,
#: IR shape).  Part of the persistent IR-cache key
#: (:mod:`repro.corpus.cache`): bump it whenever a change makes
#: previously compiled modules stale, and every old cache entry is
#: orphaned at once.
FRONTEND_VERSION = "1"

from typing import TYPE_CHECKING, Union

from repro import _lazy

if TYPE_CHECKING:
    from repro.lang.frontend import Outline
    from repro.lang.ir import IRModule

__all__ = ["FRONTEND_VERSION", "compile_c"]

_lazy.install(globals(), {
    "repro.lang.lexer": ("Lexer", "Token", "TokenKind", "tokenize"),
    "repro.lang.parser": ("Parser", "parse"),
    "repro.lang.sema": ("analyze",),
    "repro.lang.lower": ("lower",),
    "repro.lang.ir": ("IRModule",),
    "repro.lang.frontend": ("Outline",),
})


def compile_c(source: str, filename: str = "<input>", *,
              bodies: bool = True) -> "Union[IRModule, Outline]":
    """Front-to-back compilation of one translation unit.

    ``source`` is lexed once and every top-level declaration parsed
    into the unit's :class:`~repro.lang.frontend.Outline`.  Returns the
    IR module, every function body compiled; with ``bodies=False``,
    the outline itself, whose bodies compile one at a time when asked
    for (:meth:`Outline.function`, :meth:`Outline.module`).

    The frontend loads on the first call, so a run whose function
    indexes all come from the cache only ever imports
    :mod:`repro.lang.ir`.
    """
    from repro.lang.frontend import Outline
    from repro.lang.lower import lower

    # Loading the ``lower`` submodule binds it over the exported
    # function of the same name; put the function back.
    globals()["lower"] = lower
    unit = Outline(source, filename)
    return unit.module() if bodies else unit
