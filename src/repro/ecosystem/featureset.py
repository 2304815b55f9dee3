"""Ext4 feature flags, with the kernel's real bit assignments.

Three feature words live in the superblock: ``compat`` (safe to ignore),
``incompat`` (refuse mount if unknown), ``ro_compat`` (mount read-only
if unknown).  :class:`FeatureSet` tracks named features and packs them
into the three words that :class:`~repro.fsimage.Superblock` stores.

Feature *interactions* (e.g. ``meta_bg`` vs ``resize_inode``) are not
enforced here — they are configuration dependencies, validated by the
utilities, which is exactly what the paper's analyzer extracts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.common.bitflags import FlagRegistry

#: EXT4_FEATURE_COMPAT_* bits.
COMPAT = FlagRegistry(
    "compat",
    [
        ("dir_prealloc", 0x0001),
        ("imagic_inodes", 0x0002),
        ("has_journal", 0x0004),
        ("ext_attr", 0x0008),
        ("resize_inode", 0x0010),
        ("dir_index", 0x0020),
        ("sparse_super2", 0x0200),
        ("fast_commit", 0x0400),
        ("stable_inodes", 0x0800),
    ],
)

#: EXT4_FEATURE_INCOMPAT_* bits.
INCOMPAT = FlagRegistry(
    "incompat",
    [
        ("compression", 0x0001),
        ("filetype", 0x0002),
        ("recover", 0x0004),
        ("journal_dev", 0x0008),
        ("meta_bg", 0x0010),
        ("extent", 0x0040),
        ("64bit", 0x0080),
        ("mmp", 0x0100),
        ("flex_bg", 0x0200),
        ("ea_inode", 0x0400),
        ("dirdata", 0x1000),
        ("csum_seed", 0x2000),
        ("large_dir", 0x4000),
        ("inline_data", 0x8000),
        ("encrypt", 0x10000),
        ("casefold", 0x20000),
    ],
)

#: EXT4_FEATURE_RO_COMPAT_* bits.
RO_COMPAT = FlagRegistry(
    "ro_compat",
    [
        ("sparse_super", 0x0001),
        ("large_file", 0x0002),
        ("btree_dir", 0x0004),
        ("huge_file", 0x0008),
        ("uninit_bg", 0x0010),
        ("dir_nlink", 0x0020),
        ("extra_isize", 0x0040),
        ("quota", 0x0100),
        ("bigalloc", 0x0200),
        ("metadata_csum", 0x0400),
        ("project", 0x2000),
        ("verity", 0x8000),
    ],
)

_WORD_OF: Dict[str, FlagRegistry] = {}
#: Every valid ``-O`` token: ``name`` enables, ``^name`` disables.
_TOKENS: Dict[str, Tuple[str, bool]] = {}
for _reg in (COMPAT, INCOMPAT, RO_COMPAT):
    for _name in _reg:
        if _name in _WORD_OF:
            raise RuntimeError(f"feature {_name!r} registered in two words")
        _WORD_OF[_name] = _reg
        _TOKENS[_name] = (_name, True)
        _TOKENS["^" + _name] = (_name, False)

#: mke2fs's default feature set for an ext4-type file system.
DEFAULT_EXT4_FEATURES: Tuple[str, ...] = (
    "has_journal",
    "ext_attr",
    "resize_inode",
    "dir_index",
    "filetype",
    "extent",
    "flex_bg",
    "sparse_super",
    "large_file",
    "huge_file",
    "dir_nlink",
    "extra_isize",
)
for _name in DEFAULT_EXT4_FEATURES:
    if _name not in _WORD_OF:
        raise RuntimeError(f"default feature {_name!r} is not registered")


def all_feature_names() -> Tuple[str, ...]:
    """Every named ext4 feature across the three words."""
    return tuple(_WORD_OF)


def _unknown(feature: str) -> KeyError:
    """The error every unknown feature name raises."""
    return KeyError(f"unknown ext4 feature {feature!r}")


def word_of(feature: str) -> str:
    """Which feature word ('compat'/'incompat'/'ro_compat') owns ``feature``."""
    if feature not in _WORD_OF:
        raise _unknown(feature)
    return _WORD_OF[feature].name


class FeatureSet:
    """A mutable set of named ext4 features."""

    def __init__(self, features: Iterable[str] = ()) -> None:
        self._enabled: set = set()
        for name in features:
            self.enable(name)

    @classmethod
    def registered(cls, names: Iterable[str]) -> "FeatureSet":
        """A fresh set of ``names`` the caller checked once, up front."""
        fs = cls()
        fs._enabled.update(names)
        return fs

    @classmethod
    def ext4_defaults(cls) -> "FeatureSet":
        """The default mke2fs feature set for ``-t ext4`` (a fresh set;
        the names were checked once, at import)."""
        return cls.registered(DEFAULT_EXT4_FEATURES)

    def enable(self, feature: str) -> None:
        """Enable a named feature; KeyError if the name is unknown."""
        if feature not in _WORD_OF:
            raise _unknown(feature)
        self._enabled.add(feature)

    def disable(self, feature: str) -> None:
        """Disable a named feature (no-op when not enabled)."""
        if feature not in _WORD_OF:
            raise _unknown(feature)
        self._enabled.discard(feature)

    def __contains__(self, feature: str) -> bool:
        return feature in self._enabled

    def __iter__(self):
        return iter(sorted(self._enabled))

    def __len__(self) -> int:
        return len(self._enabled)

    def enabled(self) -> FrozenSet[str]:
        """The enabled feature names as a frozen set."""
        return frozenset(self._enabled)

    # ------------------------------------------------------------------
    # superblock words
    # ------------------------------------------------------------------

    def pack_words(self) -> Tuple[int, int, int]:
        """(compat, incompat, ro_compat) words for the superblock."""
        compat = COMPAT.pack(n for n in self._enabled if _WORD_OF[n] is COMPAT)
        incompat = INCOMPAT.pack(n for n in self._enabled if _WORD_OF[n] is INCOMPAT)
        ro_compat = RO_COMPAT.pack(n for n in self._enabled if _WORD_OF[n] is RO_COMPAT)
        return compat, incompat, ro_compat

    @classmethod
    def from_words(cls, compat: int, incompat: int, ro_compat: int) -> "FeatureSet":
        """Decode superblock words back into named features."""
        fs = cls()
        fs._enabled.update(COMPAT.unpack(compat))
        fs._enabled.update(INCOMPAT.unpack(incompat))
        fs._enabled.update(RO_COMPAT.unpack(ro_compat))
        return fs

    def copy(self) -> "FeatureSet":
        """An independent copy of this feature set."""
        return FeatureSet(self._enabled)

    def __repr__(self) -> str:
        return f"FeatureSet({sorted(self._enabled)!r})"


def parse_feature_string(spec: str) -> Tuple[Tuple[str, bool], ...]:
    """Parse a mke2fs ``-O`` feature list like ``"sparse_super2,^resize_inode"``.

    Returns (name, enabled) pairs; a leading ``^`` disables.  Unknown
    names raise KeyError with the offending name, like mke2fs's
    "invalid filesystem option" error.
    """
    out = []
    for token in spec.split(","):
        token = token.strip()
        pair = _TOKENS.get(token)
        if pair is not None:
            out.append(pair)
        elif token:
            raise _unknown(token[1:] if token.startswith("^") else token)
    return tuple(out)
