"""Binary tensor format: frozen header bytes, round trips, corruption."""

import tracemalloc

import numpy as np
import pytest

from multishot.errors import ConfigError, FormatError, LengthError
from multishot.seeds import spawn_rng
from multishot.tensorio import parse_tensor, read_tensor_file, tensor_bytes, write_tensor_file


def test_frozen_header_example():
    # magic, version 1, rank 1, dim 1 little-endian, then float32 1.0
    data = tensor_bytes(np.array([1.0], dtype=np.float32))
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
        assert tensor_bytes(back) == tensor_bytes(tensor)


def test_float64_is_converted():
    tensor = np.array([1.0, 2.5, -3.25])
    back = parse_tensor(tensor_bytes(tensor))
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, tensor.astype(np.float32))


def test_bad_magic_rejected():
    data = bytearray(tensor_bytes(np.array([1.0], dtype=np.float32)))
    data[3] = ord("X")  # VGOX
    with pytest.raises(FormatError, match="magic"):
        parse_tensor(bytes(data))


def test_bad_version_rejected():
    data = bytearray(tensor_bytes(np.array([1.0], dtype=np.float32)))
    data[4] = 2
    with pytest.raises(FormatError, match="version"):
        parse_tensor(bytes(data))


def test_truncated_payload_rejected():
    data = tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
    with pytest.raises(LengthError):
        parse_tensor(data[:-3])
    with pytest.raises(LengthError):
        parse_tensor(data[:8])


def test_trailing_bytes_rejected():
    data = tensor_bytes(np.array([1.0], dtype=np.float32))
    with pytest.raises(LengthError, match="trailing"):
        parse_tensor(data + b"\x00")


def test_rank_limits():
    with pytest.raises(ConfigError):
        tensor_bytes(np.float32(1.0))  # rank 0
    with pytest.raises(ConfigError):
        tensor_bytes(np.zeros((1,) * 9, dtype=np.float32))  # rank 9
    bad_rank = bytearray(tensor_bytes(np.array([1.0], dtype=np.float32)))
    bad_rank[5] = 9
    with pytest.raises(FormatError, match="rank"):
        parse_tensor(bytes(bad_rank))


@pytest.mark.parametrize("shape", SHAPES)
def test_array_writes_the_tensor_bytes(tmp_path, shape):
    # rank 1 included: its rows are scalars, written one at a time
    tensor = spawn_rng("tensor-rows", len(shape)).standard_normal(shape)  # float64, cast on write
    write_tensor_file(tmp_path / "array.vgt", tensor)
    assert (tmp_path / "array.vgt").read_bytes() == tensor_bytes(tensor)


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
    assert (tmp_path / "stream.vgt").read_bytes() == tensor_bytes(np.stack(rows))


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


_GOOD = tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
CORRUPT = {
    "magic": b"VGOX" + _GOOD[4:],
    "version": _GOOD[:4] + b"\x02" + _GOOD[5:],
    "rank": _GOOD[:5] + b"\x09" + _GOOD[6:],
    "header": _GOOD[:3],
    "dims": _GOOD[:8],
    "payload": _GOOD[:-3],
    "trailing": _GOOD + b"\x00",
}


@pytest.mark.parametrize("case", list(CORRUPT))
def test_file_reader_raises_what_parse_tensor_raises(tmp_path, case):
    data = CORRUPT[case]
    with pytest.raises((FormatError, LengthError)) as from_bytes:
        parse_tensor(data)
    path = tmp_path / "corrupt.vgt"
    path.write_bytes(data)
    with pytest.raises(type(from_bytes.value)) as from_file:
        read_tensor_file(path)
    assert type(from_file.value) is type(from_bytes.value)
    assert str(from_file.value) == str(from_bytes.value)


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
