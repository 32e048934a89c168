"""Binary tensor format: frozen header bytes, round trips, corruption."""

import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from multishot.errors import ConfigError, FormatError, LengthError
from multishot.seeds import spawn_rng
from multishot import tensorio
from multishot.tensorio import atomic_write, read_tensor_file, write_tensor_file


def _layout(tensor) -> bytes:
    """The documented layout, spelled out: magic, version, rank, uint32
    dims, then the float32 payload, all little-endian."""
    arr = np.asarray(tensor, dtype="<f4")
    header = b"VGOT" + bytes([1, arr.ndim]) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def _written(tmp_path, tensor, name="t.vgt") -> bytes:
    """The bytes write_tensor_file puts on disk for ``tensor``."""
    write_tensor_file(tmp_path / name, tensor)
    return (tmp_path / name).read_bytes()


def _read_bytes(tmp_path, data: bytes):
    """read_tensor_file on a file holding ``data``."""
    path = tmp_path / "bytes.vgt"
    path.write_bytes(data)
    return read_tensor_file(path)


def test_frozen_header_example(tmp_path):
    # magic, version 1, rank 1, dim 1 little-endian, then float32 1.0
    data = _written(tmp_path, np.array([1.0], dtype=np.float32))
    assert data == bytes.fromhex("56474f54" "01" "01" "01000000" "0000803f")


SHAPES = [(3,), (2, 5), (4, 4, 2), (2, 3, 2, 2)]


def test_roundtrip_bitwise_many_shapes(tmp_path):
    rng = spawn_rng("tensor-roundtrip")
    for i in range(40):
        shape = SHAPES[i % len(SHAPES)]
        tensor = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / f"t{i}.vgt"
        write_tensor_file(path, tensor)
        back = read_tensor_file(path)
        assert back.dtype == np.float32
        assert back.shape == tensor.shape
        assert np.array_equal(back, tensor)
        assert _written(tmp_path, back, "back.vgt") == path.read_bytes()


def test_float64_is_converted(tmp_path):
    tensor = np.array([1.0, 2.5, -3.25])
    back = _read_bytes(tmp_path, _written(tmp_path, tensor))
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, tensor.astype(np.float32))


def test_bad_magic_rejected(tmp_path):
    data = bytearray(_written(tmp_path, np.array([1.0], dtype=np.float32)))
    data[3] = ord("X")  # VGOX
    with pytest.raises(FormatError, match="magic"):
        _read_bytes(tmp_path, bytes(data))


def test_bad_version_rejected(tmp_path):
    data = bytearray(_written(tmp_path, np.array([1.0], dtype=np.float32)))
    data[4] = 2
    with pytest.raises(FormatError, match="version"):
        _read_bytes(tmp_path, bytes(data))


def test_truncated_payload_rejected(tmp_path):
    data = _written(tmp_path, np.arange(6, dtype=np.float32).reshape(2, 3))
    with pytest.raises(LengthError):
        _read_bytes(tmp_path, data[:-3])
    with pytest.raises(LengthError):
        _read_bytes(tmp_path, data[:8])


def test_trailing_bytes_rejected(tmp_path):
    data = _written(tmp_path, np.array([1.0], dtype=np.float32))
    with pytest.raises(LengthError, match="trailing"):
        _read_bytes(tmp_path, data + b"\x00")


def test_rank_limits(tmp_path):
    with pytest.raises(ConfigError):
        _written(tmp_path, np.float32(1.0))  # rank 0
    with pytest.raises(ConfigError):
        _written(tmp_path, np.zeros((1,) * 9, dtype=np.float32))  # rank 9
    bad_rank = bytearray(_written(tmp_path, np.array([1.0], dtype=np.float32)))
    bad_rank[5] = 9
    with pytest.raises(FormatError, match="rank"):
        _read_bytes(tmp_path, bytes(bad_rank))


def test_dimension_above_uint32_rejected_before_any_file(tmp_path):
    class Huge:  # a stream header only: it is refused before any row is pulled
        shape = (2**32, 1)

    with pytest.raises(ConfigError, match="too large for uint32"):
        write_tensor_file(tmp_path / "huge.vgt", Huge())
    assert list(tmp_path.iterdir()) == []


def test_file_that_shrinks_while_read_rejected(tmp_path, monkeypatch):
    # the header promises 4 floats and fstat reports the full size, but the
    # file ends after 2, as if it was truncated between fstat and the read
    data = _written(tmp_path, np.arange(4, dtype=np.float32))
    (tmp_path / "t.vgt").write_bytes(data[:-8])
    full = SimpleNamespace(st_size=len(data))
    monkeypatch.setattr(tensorio, "os", SimpleNamespace(fstat=lambda fd: full))
    with pytest.raises(LengthError, match="shrank while it was read"):
        read_tensor_file(tmp_path / "t.vgt")


@pytest.mark.parametrize("shape", SHAPES)
def test_array_writes_the_tensor_bytes(tmp_path, shape):
    # rank 1 included: its rows are scalars, written one at a time
    tensor = spawn_rng("tensor-rows", len(shape)).standard_normal(shape)  # float64, cast on write
    write_tensor_file(tmp_path / "array.vgt", tensor)
    assert (tmp_path / "array.vgt").read_bytes() == _layout(tensor)


class Rows:
    """Rows pulled one at a time, with the stacked shape known up front."""

    def __init__(self, rows, shape, fail_after=None):
        self.rows, self.shape, self.fail_after = rows, shape, fail_after

    def __iter__(self):
        for i, row in enumerate(self.rows):
            if i == self.fail_after:
                raise RuntimeError("sampler failed")
            yield row


@pytest.mark.parametrize("shape", SHAPES[1:])
def test_row_stream_writes_the_stacked_bytes(tmp_path, shape):
    rng = spawn_rng("tensor-stream", len(shape))
    rows = [rng.standard_normal(shape[1:]) for _ in range(shape[0])]
    write_tensor_file(tmp_path / "stream.vgt", Rows(iter(rows), shape))
    assert (tmp_path / "stream.vgt").read_bytes() == _layout(np.stack(rows))


@pytest.mark.parametrize(
    "rows, match",
    [([np.zeros((2, 3))] * 3, "row 2 of shape"),  # one row too many
     ([np.zeros((2, 3))], "1 rows for a tensor of shape"),  # one row too few
     ([np.zeros((2, 3)), np.zeros((3, 2))], "row 1 of shape")],
    ids=["too-many", "too-few", "wrong-shape"],
)
def test_row_stream_that_misfits_its_shape_rejected(tmp_path, rows, match):
    with pytest.raises(ConfigError, match=match):
        write_tensor_file(tmp_path / "bad.vgt", Rows(rows, (2, 2, 3)))
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_file_and_no_temporary(tmp_path):
    path = tmp_path / "frames.vgt"
    rows = Rows([np.ones((4, 4))] * 3, (3, 4, 4), fail_after=2)
    with pytest.raises(RuntimeError, match="sampler failed"):
        write_tensor_file(path, rows)
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite leaves the earlier file as it was
    write_tensor_file(path, np.zeros((3, 4, 4)))
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="sampler failed"):
        write_tensor_file(path, rows)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_the_target_only_when_the_block_ends(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_write(path) as handle:
            handle.write(b"new bytes")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_write(path) as handle:
        handle.write(b"new bytes")
        assert path.read_bytes() == b"old"  # nothing reaches the target mid-write
    assert path.read_bytes() == b"new bytes"
    assert list(tmp_path.iterdir()) == [path]


# a 14-byte header and a 24-byte payload
_GOOD = _layout(np.arange(6, dtype=np.float32).reshape(2, 3))
CORRUPT = {
    "magic": (b"VGOX" + _GOOD[4:], FormatError, "bad magic b'VGOX', expected b'VGOT'"),
    "version": (_GOOD[:4] + b"\x02" + _GOOD[5:], FormatError, "unsupported version 2, expected 1"),
    "rank": (_GOOD[:5] + b"\x09" + _GOOD[6:], FormatError, "rank 9 outside 1..8"),
    "header": (_GOOD[:3], LengthError, "file too short for a header: 3 bytes"),
    "dims": (_GOOD[:8], LengthError, "file truncated inside the dimension table"),
    "payload": (_GOOD[:-3], LengthError, "payload truncated: need 38 bytes, have 35"),
    "trailing": (_GOOD + b"\x00", LengthError, "trailing bytes after payload: 1"),
    # 65536**4 elements: the exact byte count, not one wrapped to 0 in 64 bits
    "huge": (
        _GOOD[:5] + b"\x04" + struct.pack("<4I", *[65536] * 4),
        LengthError,
        f"payload truncated: need {22 + 4 * 2**64} bytes, have 22",
    ),
}


@pytest.mark.parametrize("case", list(CORRUPT))
def test_file_reader_raises_what_parse_tensor_raises(tmp_path, case):
    # each corrupt file raises its error type with the message that names the fault
    data, error, message = CORRUPT[case]
    with pytest.raises(error) as raised:
        _read_bytes(tmp_path, data)
    assert type(raised.value) is error and str(raised.value) == message


FRAMES = (32, 64, 64, 16)
PAYLOAD = 4 * int(np.prod(FRAMES))  # 8 MiB of float32


def _traced_peak(fn) -> int:
    """Bytes ``fn`` allocates at its peak beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_write_and_read_stream_without_whole_tensor_copies(tmp_path):
    path = tmp_path / "frames.vgt"
    rows = Rows(list(np.ones(FRAMES)), FRAMES)  # 32 float64 rows, 16 MiB in all
    assert _traced_peak(lambda: write_tensor_file(path, rows)) < 1 << 20
    assert path.stat().st_size == 6 + 4 * len(FRAMES) + PAYLOAD
    assert _traced_peak(lambda: read_tensor_file(path)) <= PAYLOAD + (64 << 10)
