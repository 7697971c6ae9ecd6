"""Binary checkpoint format (magic "SDCK").

Layout, all little-endian:

    "SDCK" | u16 version=1 | u32 param_count |
    repeat: u16 name_len | name (UTF-8) | u8 rank | rank * u32 extents |
            prod(extents) * f32 values (row-major)

Parameters are written in sorted-name order and values are stored as float32
regardless of the in-memory precision, so a dump/load/dump cycle is
byte-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ContractError, FormatError
from .params import ParameterRegistry

MAGIC = b"SDCK"
VERSION = 1


def float32_bytes(data: np.ndarray) -> bytes:
    """The bytes a checkpoint stores for one parameter's values."""
    return np.ascontiguousarray(data, dtype="<f4").tobytes()


def dump_bytes(registry: ParameterRegistry) -> bytes:
    names = registry.names()
    parts = [MAGIC, struct.pack("<HI", VERSION, len(names))]
    for name in names:
        tensor = registry.get(name)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ContractError(f"parameter name too long: {name[:40]}...")
        shape = tensor.shape
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", len(shape)))
        parts.append(struct.pack(f"<{len(shape)}I", *shape))
        parts.append(float32_bytes(tensor.data))
    return b"".join(parts)


def byte_reference(registry: ParameterRegistry) -> dict[str, tuple[tuple[int, ...], bytes]]:
    """Each parameter's shape and float32 bytes, in name order: what
    ``dump_bytes`` serializes of it.  A reference taken once serves any
    number of ``first_difference`` audits."""
    return {p.name: (p.tensor.shape, float32_bytes(p.tensor.data)) for p in registry.parameters()}


def first_difference(
    registry: ParameterRegistry, reference: dict[str, tuple[tuple[int, ...], bytes]]
) -> str | None:
    """What ``dump_bytes(registry)`` would differ in from ``dump_bytes`` of
    the registry ``reference`` is the ``byte_reference`` of, or None if
    nothing.

    Compares what the serialized form holds -- the sorted names, each shape
    and each parameter's float32 bytes -- one parameter at a time, without
    building the blob.  Bytes, not values: -0.0 differs from 0.0 and NaN
    payloads are told apart, exactly as in the serialized compare.
    """
    names = registry.names()
    if names != list(reference):
        return "the parameter names"
    for name in names:
        data = registry.get(name).data
        shape, expected = reference[name]
        if data.shape != shape:
            return f"the shape of {name!r}"
        if float32_bytes(data) != expected:
            return f"the values of {name!r}"
    return None


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def read(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.offset}"
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk


def load_bytes(data: bytes) -> dict[str, np.ndarray]:
    r = _Reader(data)
    if r.read(4, "magic") != MAGIC:
        raise FormatError("bad magic at offset 0: not an SDCK checkpoint")
    (version,) = struct.unpack("<H", r.read(2, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    (count,) = struct.unpack("<I", r.read(4, "parameter count"))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.read(2, "name length"))
        offset = r.offset
        try:
            name = r.read(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"parameter name at offset {offset} is not valid UTF-8") from None
        if name in out:
            raise FormatError(f"duplicate parameter name {name!r} at offset {offset}")
        (rank,) = struct.unpack("<B", r.read(1, "rank"))
        shape = struct.unpack(f"<{rank}I", r.read(4 * rank, "extents"))
        # Python ints: the extent product must not wrap before the size check.
        raw = r.read(4 * math.prod(shape), f"values of {name!r}")
        try:
            out[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError:  # an empty array whose other extents overflow, or rank > 64
            raise FormatError(
                f"extents {shape} of {name!r} at offset {offset} are not a valid array shape"
            ) from None
    if r.offset != len(data):
        raise FormatError(f"trailing bytes at offset {r.offset}")
    return out


def restore(registry: ParameterRegistry, values: dict[str, np.ndarray], strict: bool = True) -> None:
    """Copy ``values`` (as ``load_bytes`` returns them) into the registry's
    arrays, cast to its dtype; the caller's arrays are never kept.  With
    ``strict`` every registry parameter must be present and no stored name
    may be unknown.
    """
    names = registry.names()
    if strict:
        missing = [n for n in names if n not in values]
        unknown = [n for n in values if n not in registry]
        if missing or unknown:
            raise ContractError(
                f"checkpoint/registry mismatch: missing {missing[:4]}, unknown {unknown[:4]}"
            )
    # Every check comes before the first write, so a refused restore changes nothing.
    present = [n for n in names if n in values]
    for name in present:
        if values[name].shape != registry.get(name).shape:
            raise ContractError(
                f"shape mismatch for {name!r}: checkpoint {values[name].shape}, "
                f"registry {registry.get(name).shape}"
            )
    for name in present:
        np.copyto(registry.get(name).data, values[name], casting="unsafe")
