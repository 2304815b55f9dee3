"""Codec buffer framing and the retired ``transport`` manifest field.

- the codec's buffer entry points: ``dump_into`` packing adjacent,
  independently-decodable frames, ``dumps`` producing exactly one such
  frame, and ``loads`` accepting memoryviews;
- run manifests: ``transport`` is no longer a knob, so new manifests
  leave it out, while a manifest of an older run that recorded one
  still validates, writes and loads.
"""

from repro.perf import codec


# ---------------------------------------------------------------------------
# codec buffer entry points
# ---------------------------------------------------------------------------


class TestCodecBuffers:
    def test_loads_accepts_memoryview(self):
        value = {"k": [1, 2], "s": frozenset({"a"}), "b": b"\x00\xff"}
        blob = codec.dumps(value)
        assert codec.loads(memoryview(blob)) == value
        assert codec.loads(memoryview(blob)) == codec.loads(blob)

    def test_dump_into_frames_are_adjacent(self):
        buf = bytearray()
        values = [{"a": 1}, ["x", "y"], ("z", None, True)]
        frames = [codec.dump_into(value, buf) for value in values]
        position = 0
        for offset, length in frames:
            assert offset == position
            position += length
        assert position == len(buf)
        view = memoryview(bytes(buf))
        for (offset, length), value in zip(frames, values):
            assert codec.loads(view[offset:offset + length]) == value

    def test_dump_into_frames_decode_independently(self):
        # Back-reference tables reset per frame: aliasing holds within
        # a frame, and no frame needs its neighbors to decode.
        from repro.lang import ir

        shared = ir.Const(5)
        buf = bytearray()
        off1, len1 = codec.dump_into([shared, shared], buf)
        off2, len2 = codec.dump_into([shared], buf)
        view = memoryview(bytes(buf))
        first = codec.loads(view[off1:off1 + len1])
        assert first[0] is first[1]
        assert codec.loads(view[off2:off2 + len2]) == [shared]

    def test_dumps_is_a_single_frame(self):
        buf = bytearray()
        offset, length = codec.dump_into({"x": 1}, buf)
        assert (offset, length) == (0, len(buf))
        assert bytes(buf) == codec.dumps({"x": 1})


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


class TestTransportKnobs:
    def test_manifest_records_transport(self, monkeypatch, tmp_path):
        from repro.obs import manifest

        monkeypatch.setenv("REPRO_TRANSPORT", "pickle")  # ignored now
        built = manifest.build_manifest("repro-extract", wall_seconds=0.1)
        assert "transport" not in built["engine"]
        manifest.validate_manifest(built)
        # A manifest written when transport was a knob still loads.
        older = manifest.build_manifest("repro-extract", wall_seconds=0.1)
        older["engine"]["transport"] = "pickle"
        manifest.validate_manifest(older)
        path = tmp_path / "manifest.json"
        manifest.write_manifest(older, str(path))
        assert (manifest.load_manifest(str(path))["engine"]["transport"]
                == "pickle")
