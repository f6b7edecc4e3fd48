"""Golden vectors for the engine's key hash (functions/hashing.key_hash)."""

import numpy as np
import pyarrow as pa
import pytest

from s2_geometry_rust_ray.functions.hashing import NULL_HASH, key_hash, splitmix64

_M = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Scalar splitmix64 finalizer over Python ints."""
    z = (x + 0x9E3779B97F4A7C15) & _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _bytes_ref(b: bytes) -> int:
    """Scalar reference of the string hash: fold the 8-byte little-endian
    words (last one zero-padded) into splitmix64 of the byte length."""
    h = _splitmix64(len(b))
    for j in range(0, len(b), 8):
        h = _splitmix64(h ^ int.from_bytes(b[j:j + 8].ljust(8, b"\0"), "little"))
    return h


# "", a non-ASCII key (12 UTF-8 bytes) and keys of 7, 8, 9 and 17 bytes
_KEYS = ["", "naïve café", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnopq"]
_GOLDEN = [
    0xe220a8397b1dcdaf,
    0x7089d430ff11b220,
    0x715cb6fca2889b64,
    0x804d4bcf99e046d6,
    0xcbe0b0512e86ab3b,
    0x23617c2104e8a0b0,
]


def test_integer_keys_are_splitmix64():
    i = np.array([0, 1, -1, 12345, 2**62, -(2**63), 2**63 - 1], dtype=np.int64)
    u = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert key_hash(pa.array(i)).tolist() == splitmix64(i).tolist()
    assert key_hash(pa.array(u)).tolist() == splitmix64(u).tolist()
    assert key_hash(pa.array(i)).tolist() == [_splitmix64(int(x) & _M) for x in i]
    # the published first splitmix64 output of state 0
    assert int(key_hash(pa.array([0]))[0]) == 0xE220A8397B1DCDAF
    # equal values hash alike whatever the integer width
    assert (key_hash(pa.array(np.array([5, -3], np.int32)))
            == key_hash(pa.array([5, -3], pa.int64()))).all()


def test_string_keys_golden():
    h = key_hash(pa.array(_KEYS, pa.string()))
    assert [int(x) for x in h] == _GOLDEN
    assert _GOLDEN == [_bytes_ref(k.encode()) for k in _KEYS]


def test_string_layouts_hash_alike():
    """A sliced array (non-zero offset), large_string, binary and a
    ChunkedArray hash exactly as the plain string array."""
    want = key_hash(pa.array(_KEYS, pa.string()))
    sliced = pa.array(["xxxxxxxxxxxx", "y"] + _KEYS + ["z"], pa.string()).slice(2, len(_KEYS))
    assert sliced.offset == 2
    for col in [sliced,
                pa.array(_KEYS, pa.large_string()),
                pa.array([k.encode() for k in _KEYS], pa.binary()),
                pa.chunked_array([_KEYS[:2], _KEYS[2:3], [], _KEYS[3:]], pa.string())]:
        assert key_hash(col).tolist() == want.tolist(), col.type


def test_float_zero_signs_hash_alike():
    h = key_hash(pa.array([-0.0, 0.0, 1.5], pa.float64()))
    assert h[0] == h[1] != h[2]
    assert h[2] == splitmix64(np.array([1.5]).view(np.uint64))[0]
    assert (key_hash(pa.array([-0.0, 1.5], pa.float32())) == h[1:]).all()


def test_nulls_do_not_move_other_keys():
    """A value's hash does not depend on nulls in its block; a null
    hashes to NULL_HASH."""
    assert key_hash(pa.array([5, None]))[0] == key_hash(pa.array([5]))[0]
    assert key_hash(pa.array([5, None]))[1] == NULL_HASH
    assert (key_hash(pa.array(["ab", None, "c"]))[[0, 2]]
            == key_hash(pa.array(["ab", "c"]))).all()


def test_empty_and_unsupported():
    for t in (pa.int64(), pa.float64(), pa.string()):
        assert key_hash(pa.array([], t)).dtype == np.uint64
        assert len(key_hash(pa.chunked_array([], t))) == 0
    with pytest.raises(TypeError, match="bool"):
        key_hash(pa.array([True, False]))


def test_one_long_key_hashes_like_the_reference_and_fast():
    """100,000 two-byte keys plus one 1 MB key: every hash equals the
    per-row reference fold, and the long key folds in scalar steps, not
    one numpy step per word position (~40 us each, ~5 s in all)."""
    import time

    rng = np.random.default_rng(0)
    keys = [bytes(b).decode() for b in rng.integers(97, 123, (100_000, 2), dtype=np.uint8)]
    keys.insert(5000, bytes(rng.integers(97, 123, 1 << 20, dtype=np.uint8)).decode())
    col = pa.array(keys, pa.string())
    t = time.perf_counter()
    h = key_hash(col)
    elapsed = time.perf_counter() - t
    assert [int(x) for x in h] == [_bytes_ref(k.encode()) for k in keys]
    assert elapsed < 2.0, elapsed


def test_string_hash_of_every_length_mix():
    """Rows finishing their fold at every word position, in blocks of
    every size around the scalar cut-over, hash as the reference."""
    keys = ["".join(chr(97 + (i * 7 + j) % 26) for j in range(i % 81))
            for i in range(600)]
    for n in (1, 3, 16, 17, 40, 600):
        got = key_hash(pa.array(keys[:n], pa.string()))
        assert [int(x) for x in got] == [_bytes_ref(k.encode()) for k in keys[:n]]
