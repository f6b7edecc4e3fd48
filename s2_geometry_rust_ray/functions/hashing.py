"""The engine's one key hash, with a bit-exact DuckDB twin generator.

splitmix64 (Steele et al., public domain reference constants) is the
finalizer-quality integer mix behind every key hash: it mixes every input
bit into every output bit.  A plain multiplicative (Fibonacci) hash is NOT
a substitute: sequential ids give low-discrepancy products whose
leading-zero ranks are capped (measured: HLL estimates 53% low on id
ranges), and keeping the high bits of k * C sends keys with many trailing
zero bits (coarse S2 cell ids) to one partition.

`key_hash` is the only code that hashes a key for placement (every
`co_partition` side hashed by key, so every hash join, grouped reduce and
per-user exchange) or for sampling (`textops.sample_by_hash`, the HLL
registers).  It reads the Arrow buffers directly, so the hash of a value
depends on neither its neighbours, nulls, chunking, slicing nor the pandas
or Python version.  Integer keys hash to exactly `splitmix64(value)`, which
`sql_splitmix64_ctes` reproduces in DuckDB.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB

# the hash of a null key: a hash sample (h < threshold) never keeps it,
# as SQL's NULL < threshold is never true
NULL_HASH = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(u: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64/int64 array -> uint64."""
    z = u.astype(np.uint64)
    with np.errstate(over="ignore"):
        z += np.uint64(_C1)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_C2)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_C3)
    z ^= z >> np.uint64(31)
    return z


def _bytes_hash(col: pa.Array) -> np.ndarray:
    """splitmix64 fold over each value's 8-byte little-endian words (the
    last one zero-padded), seeded with the byte length.  Word position j
    touches only the rows with more than j words, so memory is O(rows)
    however long the longest value is."""
    n = len(col)
    off_type = np.dtype(np.int64 if pa.types.is_large_string(col.type) else np.int32)
    offs = np.frombuffer(col.buffers()[1], dtype=off_type, count=n + 1,
                         offset=col.offset * off_type.itemsize)
    lo, hi = int(offs[0]), int(offs[-1])
    # the referenced bytes, plus 7 zero bytes so every 8-byte read fits
    raw = np.zeros(hi - lo + 7, dtype=np.uint8)
    if hi > lo:
        raw[:hi - lo] = np.frombuffer(col.buffers()[2], dtype=np.uint8,
                                      count=hi - lo, offset=lo)
    # word at every byte offset: an unaligned little-endian uint64 view
    words = np.ndarray((hi - lo,), dtype="<u8", buffer=raw, strides=(1,))
    length = np.diff(offs).astype(np.int64)
    nwords = (length + 7) // 8
    # rows by word count, longest first: the rows with more than j words
    # are a prefix, active[j] long
    order = np.argsort(-nwords, kind="stable")
    active = n - np.cumsum(np.bincount(nwords))
    pos = offs[:-1][order].astype(np.int64) - lo
    length = length[order]
    h = splitmix64(length)
    for j, m in enumerate(active[:-1]):
        w = words[pos[:m] + 8 * j]
        # bytes past a value's end belong to the next one: mask them off
        pad = 8 - np.minimum(length[:m] - 8 * j, 8)
        w &= ~np.uint64(0) >> (8 * pad).astype(np.uint64)
        h[:m] = splitmix64(h[:m] ^ w)
    out = np.empty(n, dtype=np.uint64)
    out[order] = h
    return out


def key_hash(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 hash of every value of a key column, read from its Arrow
    buffers:

      * integers of any width or sign: exactly ``splitmix64(value)``, so
        equal values hash alike whatever their type;
      * floats: splitmix64 of the float64 bits of ``value + 0.0``, so -0.0
        and 0.0 hash alike;
      * string / large_string / binary: a splitmix64 fold over the value's
        8-byte little-endian words, seeded with its byte length;
      * nulls: `NULL_HASH`.

    Any other type raises TypeError."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return key_hash(col.chunk(0))
        return np.concatenate([np.empty(0, np.uint64)]
                              + [key_hash(c) for c in col.chunks])
    t = col.type
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        v = np.frombuffer(col.buffers()[1], dtype=np.dtype(t.to_pandas_dtype()),
                          count=len(col), offset=col.offset * t.byte_width)
        if pa.types.is_floating(t):
            v = (v.astype(np.float64) + 0.0).view(np.uint64)
        h = splitmix64(v)
    elif pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        h = _bytes_hash(col)
    else:
        raise TypeError(f"key_hash: unsupported key type {t}")
    if col.null_count:
        h[col.is_null().to_numpy(zero_copy_only=False)] = NULL_HASH
    return h


def _sql_mulmod64(zexpr: str, b: int) -> str:
    """(zexpr * b) mod 2^64 over UBIGINT, with the 64x64 product decomposed
    into 32-bit halves: a full product of two ~2^64 values overflows
    DuckDB's INT128."""
    bh, bl = b >> 32, b & 0xFFFFFFFF
    return (
        f"CAST((({zexpr} % 4294967296::UBIGINT)::HUGEINT * {bl}::HUGEINT "
        f"+ (((({zexpr} % 4294967296::UBIGINT)::HUGEINT * {bh}::HUGEINT "
        f"+ ({zexpr} // 4294967296::UBIGINT)::HUGEINT * {bl}::HUGEINT) "
        f"% 4294967296::HUGEINT) * 4294967296::HUGEINT)) "
        f"% 18446744073709551616::HUGEINT AS UBIGINT)"
    )


def sql_splitmix64_ctes(src_sql: str, col: str, keep_cols: str,
                        prefix: str = "") -> str:
    """CTE chain computing splitmix64(col) AS h over `src_sql`, carrying
    `keep_cols` through.  Returns SQL ending in CTE `{prefix}h(keep_cols,
    h)` — append the consuming SELECT."""
    p = prefix
    return (
        f"WITH {p}z0 AS (SELECT {keep_cols}, "
        f"CAST((CAST({col} AS UBIGINT)::HUGEINT + {_C1}::HUGEINT) "
        f"% 18446744073709551616::HUGEINT AS UBIGINT) AS z FROM ({src_sql})), "
        f"{p}x0 AS (SELECT {keep_cols}, xor(z, z >> 30) AS z FROM {p}z0), "
        f"{p}z1 AS (SELECT {keep_cols}, {_sql_mulmod64('z', _C2)} AS z FROM {p}x0), "
        f"{p}x1 AS (SELECT {keep_cols}, xor(z, z >> 27) AS z FROM {p}z1), "
        f"{p}z2 AS (SELECT {keep_cols}, {_sql_mulmod64('z', _C3)} AS z FROM {p}x1), "
        f"{p}h AS (SELECT {keep_cols}, xor(z, z >> 31) AS h FROM {p}z2)"
    )
