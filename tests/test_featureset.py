"""Tests for the ext4 feature registry."""

import pytest

from repro.ecosystem.featureset import (
    COMPAT,
    DEFAULT_EXT4_FEATURES,
    FeatureSet,
    INCOMPAT,
    RO_COMPAT,
    all_feature_names,
    parse_feature_string,
    word_of,
)


class TestRegistry:
    def test_kernel_bit_values(self):
        assert COMPAT.bit("has_journal") == 0x0004
        assert COMPAT.bit("sparse_super2") == 0x0200
        assert INCOMPAT.bit("extent") == 0x0040
        assert INCOMPAT.bit("64bit") == 0x0080
        assert INCOMPAT.bit("inline_data") == 0x8000
        assert RO_COMPAT.bit("sparse_super") == 0x0001
        assert RO_COMPAT.bit("metadata_csum") == 0x0400

    def test_word_of(self):
        assert word_of("has_journal") == "compat"
        assert word_of("extent") == "incompat"
        assert word_of("bigalloc") == "ro_compat"

    def test_word_of_unknown(self):
        with pytest.raises(KeyError):
            word_of("warp_drive")

    def test_no_name_collisions_across_words(self):
        names = all_feature_names()
        assert len(names) == len(set(names))

    def test_total_feature_count(self):
        assert len(all_feature_names()) == len(COMPAT) + len(INCOMPAT) + len(RO_COMPAT)


class TestFeatureSet:
    def test_defaults(self):
        features = FeatureSet.ext4_defaults()
        assert set(DEFAULT_EXT4_FEATURES) == features.enabled()

    def test_enable_disable(self):
        features = FeatureSet()
        features.enable("bigalloc")
        assert "bigalloc" in features
        features.disable("bigalloc")
        assert "bigalloc" not in features

    def test_disable_absent_is_noop(self):
        FeatureSet().disable("bigalloc")

    def test_enable_unknown_rejected(self):
        with pytest.raises(KeyError):
            FeatureSet().enable("hyperspace")

    def test_pack_words(self):
        features = FeatureSet(["has_journal", "extent", "sparse_super"])
        compat, incompat, ro = features.pack_words()
        assert compat == 0x0004
        assert incompat == 0x0040
        assert ro == 0x0001

    def test_from_words_round_trip(self):
        features = FeatureSet(["has_journal", "64bit", "bigalloc", "extent"])
        again = FeatureSet.from_words(*features.pack_words())
        assert again.enabled() == features.enabled()

    def test_copy_is_independent(self):
        features = FeatureSet(["extent"])
        clone = features.copy()
        clone.enable("64bit")
        assert "64bit" not in features

    def test_iteration_sorted(self):
        features = FeatureSet(["quota", "extent", "bigalloc"])
        assert list(features) == sorted(["quota", "extent", "bigalloc"])

    def test_len(self):
        assert len(FeatureSet(["extent", "quota"])) == 2


class TestParseFeatureString:
    def test_single_enable(self):
        assert parse_feature_string("extent") == (("extent", True),)

    def test_caret_disables(self):
        assert parse_feature_string("^resize_inode") == (("resize_inode", False),)

    def test_mixed_list(self):
        parsed = parse_feature_string("sparse_super2,^resize_inode, extent")
        assert parsed == (("sparse_super2", True), ("resize_inode", False),
                          ("extent", True))

    def test_unknown_feature_rejected(self):
        with pytest.raises(KeyError):
            parse_feature_string("sparse_super3")

    def test_empty_tokens_skipped(self):
        assert parse_feature_string("extent,,") == (("extent", True),)


class TestErrorPaths:
    """Unknown names fail with one exact message on every path, and the
    default set is a fresh set each time it is built."""

    @staticmethod
    def _message(call, *args):
        with pytest.raises(KeyError) as info:
            call(*args)
        return info.value.args

    def test_word_of_message(self):
        assert self._message(word_of, "warp_drive") == (
            "unknown ext4 feature 'warp_drive'",)

    def test_enable_and_disable_messages(self):
        features = FeatureSet(["extent"])
        assert self._message(features.enable, "hyperspace") == (
            "unknown ext4 feature 'hyperspace'",)
        assert self._message(features.disable, "hyperspace") == (
            "unknown ext4 feature 'hyperspace'",)
        assert self._message(FeatureSet, ["extent", "nope"]) == (
            "unknown ext4 feature 'nope'",)
        assert features.enabled() == {"extent"}

    @pytest.mark.parametrize("spec, name", [
        ("sparse_super3", "sparse_super3"),
        ("has_journal,^bogus", "bogus"),
        (" extent , nope ", "nope"),
        ("^", ""),
        ("^ extent", " extent"),
        ("^^extent", "^extent"),
        ("Extent", "Extent"),
    ])
    def test_parse_messages(self, spec, name):
        assert self._message(parse_feature_string, spec) == (
            f"unknown ext4 feature {name!r}",)

    def test_parse_tolerates_blanks_and_whitespace(self):
        assert parse_feature_string("") == ()
        assert parse_feature_string(" , ,") == ()
        assert parse_feature_string(" ^extent ,64bit,,") == (
            ("extent", False), ("64bit", True))

    def test_mke2fs_invalid_option_set(self):
        from repro.ecosystem.mke2fs import Mke2fs
        from repro.errors import UsageError

        for spec, name in (("bogus", "bogus"), ("extent,^bogus", "bogus")):
            with pytest.raises(UsageError) as info:
                Mke2fs.from_args(["-O", spec, "1024"])
            assert str(info.value) == (
                "mke2fs: invalid filesystem option set: "
                f"unknown ext4 feature {name!r}")

    def test_defaults_are_independent(self):
        first = FeatureSet.ext4_defaults()
        first.disable("has_journal")
        first.enable("bigalloc")
        second = FeatureSet.ext4_defaults()
        assert second.enabled() == set(DEFAULT_EXT4_FEATURES)
        assert first.enabled() != second.enabled()
        second.disable("extent")
        assert "extent" in FeatureSet.ext4_defaults()

    def test_mke2fs_configs_do_not_share_defaults(self):
        from repro.ecosystem.mke2fs import Mke2fsConfig

        one = Mke2fsConfig()
        one.features.disable("resize_inode")
        assert "resize_inode" in Mke2fsConfig().features
