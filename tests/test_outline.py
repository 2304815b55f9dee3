"""Unit outlines: compiling one function body at a time.

- differential: for every corpus unit and every function it defines,
  the function compiled alone from the unit's outline equals the one
  a whole-unit ``compile_c`` builds, and the outline's function index
  is the compiled module's; the same holds on synthetic units with a
  typedef declared between two functions and a macro defined inside a
  body;
- errors: a parse or semantic error inside a function the extraction
  analyzes raises what a whole-unit compile raises, message and
  position alike; a broken body no scenario selects is raised by
  ``compile_c`` and ``unit.module`` but not by ``extract_all``, which
  never compiles that body.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.corpus import cache as disk
from repro.corpus.loader import (CORPUS_DIR_ENV, UNIT_COMPONENTS,
                                 clear_cache, load_unit)
from repro.errors import ParseError, SemanticError
from repro.lang import compile_c

CORPUS_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                          "repro", "corpus")


def _outline(source: str, filename: str):
    return compile_c(source, filename, bodies=False)


def _assert_outline_matches_compile(source: str, filename: str) -> None:
    module = compile_c(source, filename)
    unit = _outline(source, filename)
    assert list(unit.lines.items()) == [
        (name, func.line) for name, func in module.functions.items()]
    for name, func in module.functions.items():
        # A fresh outline per function: nothing compiled for another
        # body can leak into this one.
        alone = _outline(source, filename).function(name)
        assert alone == func, name
        assert str(alone) == str(func)
    # Bodies compiled one at a time, then the rest as a module, still
    # make the whole-unit module.
    first = next(iter(module.functions), None)
    if first is not None:
        unit.function(first)
    assert unit.module() == module


@pytest.mark.parametrize("filename", sorted(UNIT_COMPONENTS))
def test_every_corpus_function_compiles_alone_to_the_same_ir(filename):
    with open(os.path.join(CORPUS_SRC, filename), encoding="utf-8") as handle:
        source = handle.read()
    assert _outline(source, filename).lines
    _assert_outline_matches_compile(source, filename)


SYNTHETIC = """\
#define LIMIT 4
struct box { int size; int flags; };

int before(struct box *b)
{
    int n = LIMIT;
    if (b->size > n) {
        return INNER;
    }
    return 0;
}

typedef struct box box_t;
typedef unsigned int u32;

int after(box_t *b)
{
#define INNER 7
    u32 mask = INNER;
    box_t copy;
    copy.flags = (u32) mask;
    if (b->flags & mask) {
        return LIMIT;
    }
    return copy.flags;
}

int prototype_only(int x);
"""


class TestSynthetic:
    def test_typedef_between_functions_and_macro_in_a_body(self):
        _assert_outline_matches_compile(SYNTHETIC, "synthetic.c")
        unit = _outline(SYNTHETIC, "synthetic.c")
        assert unit.lines == {"before": 4, "after": 16}
        # The macro defined inside ``after`` expands in ``before`` too.
        assert "7" in str(unit.function("before"))

    def test_a_typedef_after_a_function_is_not_in_its_scope(self):
        source = ("int f(void) { u32 x = 1; return x; }\n"
                  "typedef unsigned int u32;\n")
        with pytest.raises(ParseError) as whole:
            compile_c(source, "scope.c")
        with pytest.raises(ParseError) as alone:
            _outline(source, "scope.c").function("f")
        assert str(alone.value) == str(whole.value)

    def test_unknown_function_is_a_key_error(self):
        with pytest.raises(KeyError, match="no_such"):
            _outline(SYNTHETIC, "synthetic.c").function("no_such")

    def test_unbalanced_braces_raise_what_a_whole_parse_raises(self):
        source = "int f(void) { if (1) { return 1; }\nint g(void) { return 2; }\n"
        with pytest.raises(ParseError) as whole:
            compile_c(source, "open.c")
        with pytest.raises(ParseError) as outlined:
            _outline(source, "open.c")
        assert str(outlined.value) == str(whole.value)

    def test_braces_in_literals_do_not_count(self):
        source = ('int f(void) { char c = \'{\'; return c; }\n'
                  'int g(void) { return strlen("}}"); }\n')
        _assert_outline_matches_compile(source, "literal.c")


# ---------------------------------------------------------------------------
# errors through the corpus loader and the extractor
# ---------------------------------------------------------------------------


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """A private corpus copy and cache directory, memos dropped."""
    folder = tmp_path / "corpus"
    folder.mkdir()
    for name in os.listdir(CORPUS_SRC):
        if name.endswith(".c"):
            shutil.copy(os.path.join(CORPUS_SRC, name), folder / name)
    monkeypatch.setenv(CORPUS_DIR_ENV, str(folder))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_cache()
    disk.reset_cache_stats()
    yield folder
    clear_cache()
    disk.reset_cache_stats()


def _break(folder, function: str, statement: str) -> str:
    """Insert ``statement`` at the top of ``function``'s body in
    ``mke2fs.c``; returns the edited source."""
    path = folder / "mke2fs.c"
    text = path.read_text(encoding="utf-8")
    brace = text.index("{", text.index(f"int {function}(")) + 1
    text = text[:brace] + f"\n    {statement}" + text[brace:]
    path.write_text(text, encoding="utf-8")
    return text


#: (statement, error, the message a whole-unit compile raises).  The
#: statement lands on line 156, the first of ``parse_mke2fs_options``'s
#: body.
ANALYZED_BREAKS = [
    ("blocksize = = 1;", ParseError,
     "mke2fs.c:156:17: unexpected token '=' in expression"),
    ("no_such_variable = 1;", SemanticError,
     "mke2fs.c:156:0: undeclared identifier 'no_such_variable'"),
]


class TestErrors:
    @pytest.mark.parametrize("statement, error, message", ANALYZED_BREAKS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_error_in_an_analyzed_function_is_unchanged(
            self, corpus, statement, error, message, warm):
        from repro.analysis.extractor import extract_all

        if warm:
            extract_all()  # the other functions then hit the store
            clear_cache()
        source = _break(corpus, "parse_mke2fs_options", statement)
        with pytest.raises(error) as whole:
            compile_c(source, "mke2fs.c")
        assert str(whole.value) == message
        with pytest.raises(error) as extracted:
            extract_all()
        assert str(extracted.value) == message

    def test_broken_unselected_body_is_raised_only_by_whole_unit_readers(
            self, corpus):
        from repro.analysis.extractor import extract_all

        source = _break(corpus, "parse_feature_opts", "word = = 1;")
        message = "mke2fs.c:139:12: unexpected token '=' in expression"
        with pytest.raises(ParseError) as whole:
            compile_c(source, "mke2fs.c")
        assert str(whole.value) == message
        # No scenario selects parse_feature_opts: extraction never
        # compiles its body, cold or warm...
        for _ in range(2):
            clear_cache()
            assert extract_all().total_extracted == 64
        # ...while a reader of the whole module meets the error.
        with pytest.raises(ParseError) as module:
            load_unit("mke2fs.c").module
        assert str(module.value) == message


class TestConcurrentCompiles:
    def test_threads_share_one_function_object_per_body(self, corpus):
        """Threads asking one unit for its functions and its module at
        once all get the same objects: each body is compiled once, and
        the module holds the functions already handed out."""
        import sys
        import threading

        names = ["parse_feature_opts", "parse_mke2fs_options",
                 "check_feature_conflicts", "write_superblock"]
        workers = 8
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def work(slot):
            barrier.wait(timeout=30)
            unit = load_unit("mke2fs.c")
            functions = [unit.function(name)
                         for name in names[slot % 4:] + names[:slot % 4]]
            seen[slot] = (disk.read_unit("mke2fs.c"), unit,
                          {func.name: func for func in functions},
                          unit.module)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        source, unit, functions, module = seen[0]
        for other in seen[1:]:
            assert other[0] is source and other[1] is unit
            assert other[3] is module
            assert all(other[2][name] is functions[name] for name in names)
        assert all(module.functions[name] is functions[name]
                   for name in names)
