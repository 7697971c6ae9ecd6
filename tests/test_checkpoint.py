import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt import Init, ParameterRegistry
from segadapt import checkpoint as ckpt
from segadapt.data import write_file
from segadapt.errors import ContractError, FormatError


def build_registry(dtype=np.float32):
    reg = ParameterRegistry(dtype=dtype)
    reg.add("decoder.mix.weight", (3, 3), Init.identity())
    reg.add("adapter.dec0.gate", (), Init.zeros())
    reg.add("adapter.dec0.prompts", (2, 4), Init.normal(0.5))
    reg.add("encoder.blk.weight", (4, 2), Init.lecun())
    reg.initialize(seed=11)
    return reg


class TestCheckpointFormat:
    def test_round_trip_is_byte_exact(self, tmp_path):
        reg = build_registry()
        path = tmp_path / "model.sdck"
        write_file(path, ckpt.dump_bytes(reg))
        first = path.read_bytes()
        fresh = build_registry()
        fresh.initialize(seed=99)
        ckpt.restore(fresh, ckpt.load_bytes(first))
        assert ckpt.dump_bytes(fresh) == first
        for name in reg.names():
            np.testing.assert_array_equal(reg.get(name).data, fresh.get(name).data)

    def test_file_size_matches_layout_arithmetic(self):
        reg = ParameterRegistry()
        reg.add("ab", (2, 3), Init.zeros())
        reg.initialize(seed=0)
        blob = ckpt.dump_bytes(reg)
        # header 4+2+4, entry: 2 + len("ab") + 1 + 2*4 + 6*4
        assert len(blob) == 10 + (2 + 2 + 1 + 8 + 24)

    def test_scalar_rank_zero_round_trip(self):
        reg = ParameterRegistry()
        reg.add("gate", (), Init.constant(0.25))
        reg.initialize(seed=0)
        values = ckpt.load_bytes(ckpt.dump_bytes(reg))
        assert values["gate"].shape == ()
        assert float(values["gate"]) == pytest.approx(0.25)

    def test_float64_registry_stored_as_f32(self):
        reg = build_registry(dtype=np.float64)
        values = ckpt.load_bytes(ckpt.dump_bytes(reg))
        assert all(v.dtype == np.float32 for v in values.values())
        target = build_registry(dtype=np.float64)
        ckpt.restore(target, ckpt.load_bytes(ckpt.dump_bytes(reg)))
        assert target.get("adapter.dec0.prompts").dtype == np.float64

    def test_truncated_file_reports_offset(self):
        blob = ckpt.dump_bytes(build_registry())
        with pytest.raises(FormatError, match="offset"):
            ckpt.load_bytes(blob[: len(blob) - 3])

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + ckpt.dump_bytes(build_registry())[4:]
        with pytest.raises(FormatError, match="magic"):
            ckpt.load_bytes(blob)

    def test_bad_version_rejected(self):
        blob = bytearray(ckpt.dump_bytes(build_registry()))
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            ckpt.load_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = ckpt.dump_bytes(build_registry()) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            ckpt.load_bytes(blob)

    def test_non_utf8_name_rejected_with_offset(self):
        reg = ParameterRegistry()
        reg.add("ab", (2,), Init.zeros())
        reg.initialize(seed=0)
        blob = bytearray(ckpt.dump_bytes(reg))
        blob[12] = 0xFF  # first name byte, after the 10-byte header and u16 length
        with pytest.raises(FormatError, match="offset 12"):
            ckpt.load_bytes(bytes(blob))

    def test_extent_product_overflow_rejected_with_offset(self):
        # 2**31 * 2**31 * 4 wraps to 0 in int64; the size check must see 2**64.
        blob = (
            ckpt.MAGIC + struct.pack("<HI", ckpt.VERSION, 1)
            + struct.pack("<H", 1) + b"w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
        )
        with pytest.raises(FormatError, match="offset"):
            ckpt.load_bytes(blob)

    def test_duplicate_name_rejected_with_offset(self):
        reg = ParameterRegistry()
        reg.add("ab", (2,), Init.zeros())
        reg.initialize(seed=0)
        entry = ckpt.dump_bytes(reg)[10:]
        blob = ckpt.MAGIC + struct.pack("<HI", ckpt.VERSION, 2) + entry + entry
        with pytest.raises(FormatError, match=f"duplicate parameter name 'ab' at offset {12 + len(entry)}"):
            ckpt.load_bytes(blob)

    def test_strict_restore_name_mismatch(self):
        reg = build_registry()
        other = ParameterRegistry()
        other.add("something.else", (2,), Init.zeros())
        other.initialize(seed=0)
        with pytest.raises(ContractError, match="mismatch"):
            ckpt.restore(other, ckpt.load_bytes(ckpt.dump_bytes(reg)))

    def test_shape_mismatch_rejected(self):
        reg = build_registry()
        blob = ckpt.dump_bytes(reg)
        other = ParameterRegistry()
        other.add("decoder.mix.weight", (2, 2), Init.zeros())
        other.initialize(seed=0)
        with pytest.raises(ContractError):
            ckpt.restore(other, ckpt.load_bytes(blob), strict=False)

    @pytest.mark.parametrize("strict", [True, False])
    def test_refused_restore_writes_nothing(self, strict):
        # The last name in sorted order has the wrong shape: every other
        # parameter would be written first if restore checked as it wrote.
        reg = build_registry()
        values = ckpt.load_bytes(ckpt.dump_bytes(build_registry()))
        for name in values:
            values[name] = values[name] + 1.0
        last = reg.names()[-1]
        values[last] = np.zeros((2, 4), dtype=np.float32)
        before = ckpt.dump_bytes(reg)
        with pytest.raises(ContractError, match=f"shape mismatch for {last!r}"):
            ckpt.restore(reg, values, strict=strict)
        assert ckpt.dump_bytes(reg) == before

    @pytest.mark.parametrize("strict", [True, False])
    def test_restore_writes_into_each_declared_array(self, strict):
        values = ckpt.load_bytes(ckpt.dump_bytes(build_registry()))
        reg = build_registry(np.float64)
        reg.initialize(seed=99)
        arrays = {name: reg.get(name).data for name in reg.names()}
        if not strict:
            del values["encoder.blk.weight"]
        ckpt.restore(reg, values, strict=strict)
        assert all(reg.get(name).data is array for name, array in arrays.items())
        for name, value in values.items():
            np.testing.assert_array_equal(arrays[name], value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_restored_dict_is_copied(self, dtype):
        # The caller keeps the dict (TTDA resets every sample from one), so
        # writing into its arrays afterwards must not reach the registry.
        values = ckpt.load_bytes(ckpt.dump_bytes(build_registry()))
        reg = build_registry(dtype)
        reg.initialize(seed=99)
        ckpt.restore(reg, values)
        restored = ckpt.dump_bytes(reg)
        for array in values.values():
            array += 1.0
        assert ckpt.dump_bytes(reg) == restored

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_parsed_source_restores_its_bytes(self, dtype):
        blob = ckpt.dump_bytes(build_registry())
        reg = build_registry(dtype)
        reg.initialize(seed=99)
        ckpt.restore(reg, ckpt.load_bytes(blob))
        assert ckpt.dump_bytes(reg) == blob
        assert all(reg.get(name).dtype == dtype for name in reg.names())


# -- the per-parameter byte audit -------------------------------------------------------


def _with_bits(value_bits: int) -> np.ndarray:
    return np.asarray(value_bits, dtype=np.uint32).view(np.float32)


def _copy(reg, skip=None):
    out = ParameterRegistry(dtype=reg.dtype)
    for p in reg.parameters():
        if p.name != skip:
            out.add(p.name, p.tensor.shape, p.init).tensor.data = p.tensor.data.copy()
    return out


def _perturb(reg, draw):
    """``reg`` after one random edit; a returned registry replaces it."""
    names = reg.names()
    name = draw(st.sampled_from(names)) if names else None
    kind = draw(st.sampled_from(("value", "zero", "nan", "reshape", "add", "remove", "float64")))
    if name is None or kind == "add":
        new = draw(st.sampled_from(("adapter.dec0.extra", "zzz.last", "a.first")))
        if new not in reg:
            reg.add(new, (2,), Init.zeros())
        return reg
    data = reg.get(name).data
    if kind == "remove":
        return _copy(reg, skip=name)
    if kind == "reshape":
        reg.get(name).data = data.reshape(draw(st.sampled_from(((data.size,), (1, data.size), (data.size, 1)))))
        return reg
    if kind == "float64":
        delta = draw(st.sampled_from((0.0, 1e-12, 1e-3)))  # 1e-12 rounds away in float32
        with np.errstate(invalid="ignore"):  # a signalling NaN turns quiet
            reg.get(name).data = data.astype(np.float64) + delta
        return reg
    if data.size == 0:
        return reg
    i = draw(st.integers(0, data.size - 1))
    flat = data.reshape(-1).copy()
    if kind == "value":
        flat[i] = draw(st.floats(width=32, allow_nan=False))
    elif kind == "zero":
        flat[i] = draw(st.sampled_from((0.0, -0.0)))
    else:  # a quiet or signalling NaN with any payload and sign
        with np.errstate(invalid="ignore"):  # into a float64 parameter a signalling NaN turns quiet
            flat[i] = _with_bits(draw(st.sampled_from((0x7F800000, 0xFF800000))) | draw(st.integers(1, 0x7FFFFF)))
    reg.get(name).data = flat.reshape(data.shape)
    return reg


class TestFirstDifference:
    def test_untouched_registry_has_none(self):
        reg = build_registry()
        assert ckpt.first_difference(reg, ckpt.byte_reference(reg)) is None

    @pytest.mark.parametrize(
        "stored, current",
        [(0.0, -0.0), (_with_bits(0x7FC00000), _with_bits(0x7FC00001))],
        ids=["signed-zero", "nan-payload"],
    )
    def test_compares_bytes_not_values(self, stored, current):
        reg = build_registry()
        reg.get("adapter.dec0.gate").data = np.asarray(stored, dtype=np.float32)
        reference = ckpt.byte_reference(reg)
        # the same NaN bytes match although NaN != NaN as a value
        assert ckpt.first_difference(reg, reference) is None
        reg.get("adapter.dec0.gate").data = np.asarray(current, dtype=np.float32)
        assert ckpt.first_difference(reg, reference) == "the values of 'adapter.dec0.gate'"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_flags_exactly_what_the_serialized_compare_flags(self, data):
        reg = build_registry()
        reg.get("decoder.mix.weight").data[0, 1] = -0.0  # a signed zero to flip back
        blob = ckpt.dump_bytes(reg)
        reference = ckpt.byte_reference(reg)
        for _ in range(data.draw(st.integers(1, 3))):
            reg = _perturb(reg, data.draw)
        assert (ckpt.first_difference(reg, reference) is not None) == (ckpt.dump_bytes(reg) != blob)
