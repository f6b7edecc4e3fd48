"""Vectorized S2CellId algebra over uint64 NumPy arrays.

Canonical semantics per the reference (/root/reference/src/cell_id.rs) and its
ported Google C++ tests (/root/reference/tests/test_s2cell_id_port.rs) —
*canonical* meaning: where the Rust port documents simplifications (linear
uv<->st at src/cell_id.rs:542-548, approximate center at :453-459, placeholder
neighbors at :696-722), this module implements the C++ semantics the port's
own tests and vendored s2geometry-cpp submodule specify (quadratic projection,
Hilbert LOOKUP_IJ decode, FromFaceIJWrap neighbors).

The cell id is ONE uint64: 3 face bits + 61 Hilbert-position bits; the level
is encoded by the lowest set bit.  It is the join / shuffle / sort key of the
whole engine: Hilbert total order == spatial locality, containment == a range
test.  All functions are NumPy-vectorized; no Python loops over rows (the
8-iteration lookup loops are over nibble positions, not rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import coords
from .coords import (
    INVERT_MASK,
    LIMIT_IJ,
    MAX_LEVEL,
    POS_TO_IJ,
    POS_TO_ORIENTATION,
    SWAP_MASK,
)

U = np.uint64

FACE_BITS = 3
NUM_FACES = 6
POS_BITS = 2 * MAX_LEVEL + 1  # 61
MAX_SIZE = LIMIT_IJ           # 2^30
LOOKUP_BITS = 4

# ---------------------------------------------------------------------------
# Hilbert 4-bit lookup tables (C++ s2cellid.cc InitLookupCell; the reference
# builds the same tables at src/cell_id.rs:574-629).
# ---------------------------------------------------------------------------
_LOOKUP_POS = np.zeros(1 << (2 * LOOKUP_BITS + 2), dtype=np.int64)
_LOOKUP_IJ = np.zeros(1 << (2 * LOOKUP_BITS + 2), dtype=np.int64)


def _init_lookup_cell(level, i, j, orig_orientation, pos, orientation):
    if level == LOOKUP_BITS:
        ij = (i << LOOKUP_BITS) + j
        _LOOKUP_POS[(ij << 2) + orig_orientation] = (pos << 2) + orientation
        _LOOKUP_IJ[(pos << 2) + orig_orientation] = (ij << 2) + orientation
    else:
        level += 1
        i <<= 1
        j <<= 1
        pos <<= 2
        r = POS_TO_IJ[orientation]
        for k in range(4):
            _init_lookup_cell(
                level,
                i + (int(r[k]) >> 1),
                j + (int(r[k]) & 1),
                orig_orientation,
                pos + k,
                orientation ^ int(POS_TO_ORIENTATION[k]),
            )


for _o in (0, SWAP_MASK, INVERT_MASK, SWAP_MASK | INVERT_MASK):
    _init_lookup_cell(0, 0, 0, _o, 0, _o)

_LOOKUP_POS_U = _LOOKUP_POS.astype(U)
_LOOKUP_IJ_U = _LOOKUP_IJ.astype(U)

_WRAP_OFFSET = U(13835058055282163712)  # uint64(6) << POS_BITS


# ---------------------------------------------------------------------------
# Encode: (face, i, j) / (lat, lng) -> leaf cell id
# ---------------------------------------------------------------------------

def from_face_ij(face, i, j):
    """(face, i, j) -> leaf cell id (C++ FromFaceIJ; src/cell_id.rs:208-238).

    face/i/j are int64 arrays, i,j in [0, 2^30); returns uint64.
    """
    face = np.asarray(face, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64).astype(U)
    j = np.asarray(j, dtype=np.int64).astype(U)
    n = face.astype(U) << U(POS_BITS - 1)
    bits = (face & SWAP_MASK).astype(U)
    mask = U((1 << LOOKUP_BITS) - 1)
    # scratch buffers reused across the 8 rounds (the loop is ~90 array
    # passes; avoiding per-op allocations roughly halves its DRAM traffic)
    idx = np.empty_like(i)
    t = np.empty_like(i)
    res = np.empty_like(i)
    for k in range(7, -1, -1):
        ku = U(k * LOOKUP_BITS)
        np.right_shift(i, ku, out=idx)
        idx &= mask
        idx <<= U(LOOKUP_BITS + 2)
        np.right_shift(j, ku, out=t)
        t &= mask
        t <<= U(2)
        idx += t
        idx += bits
        np.take(_LOOKUP_POS_U, idx.view(np.int64), out=res)
        np.right_shift(res, U(2), out=t)
        t <<= U(k * 2 * LOOKUP_BITS)
        n |= t
        np.bitwise_and(res, U(SWAP_MASK | INVERT_MASK), out=bits)
    n <<= U(1)
    n |= U(1)
    return n


def from_xyz(x, y, z):
    """xyz -> leaf cell id (C++ S2CellId(S2Point); src/cell_id.rs:175-178)."""
    face, u, v = coords.xyz_to_face_uv(x, y, z)
    i = coords.st_to_ij(coords.uv_to_st(u))
    j = coords.st_to_ij(coords.uv_to_st(v))
    return from_face_ij(face, i, j)


_ENC_CHUNK = 16384  # cache-resident slice: the encode's ~20 n-row float64
# temporaries stream ~160B/row through DRAM; at 131k-row batches 32
# concurrent workers hit the DRAM wall (same effect measured 18x on the
# wider h3 kernel, 1.5x here).  Chunking is output-identical (all per-row).


def from_latlng_deg(lat_deg, lng_deg):
    """(lat,lng) degrees -> leaf cell id — the core indexing kernel (§3.1)."""
    lat_deg = np.asarray(lat_deg, dtype=np.float64)
    lng_deg = np.asarray(lng_deg, dtype=np.float64)
    if lat_deg.ndim == 1 and lat_deg.shape[0] > _ENC_CHUNK:
        return np.concatenate(
            [
                from_latlng_deg(
                    lat_deg[i : i + _ENC_CHUNK], lng_deg[i : i + _ENC_CHUNK]
                )
                for i in range(0, lat_deg.shape[0], _ENC_CHUNK)
            ]
        )
    x, y, z = coords.latlng_deg_to_xyz(lat_deg, lng_deg)
    return from_xyz(x, y, z)


# ---------------------------------------------------------------------------
# Decode: cell id -> (face, i, j, orientation) -> center point
# ---------------------------------------------------------------------------

def to_face_ij_orientation(cell_id):
    """cell id -> (face, i, j, orientation) (C++ ToFaceIJOrientation).

    The reference port lacks this (its LOOKUP_IJ is built but never consumed,
    src/cell_id.rs:453-459 'very rough approximation'); this is the canonical
    C++ decode its tests require.
    """
    cid = np.asarray(cell_id, dtype=U)
    face = (cid >> U(POS_BITS)).astype(np.int64)
    bits = (face & SWAP_MASK).astype(U)
    i = np.zeros(cid.shape, dtype=U)
    j = np.zeros(cid.shape, dtype=U)
    nib_mask = U((1 << LOOKUP_BITS) - 1)
    for k in range(7, -1, -1):
        nbits = (MAX_LEVEL - 7 * LOOKUP_BITS) if k == 7 else LOOKUP_BITS
        bits += ((cid >> U(k * 2 * LOOKUP_BITS + 1)) & U((1 << (2 * nbits)) - 1)) << U(2)
        bits = _LOOKUP_IJ_U[bits]
        i += (bits >> U(LOOKUP_BITS + 2)) << U(k * LOOKUP_BITS)
        j += ((bits >> U(2)) & nib_mask) << U(k * LOOKUP_BITS)
        bits &= U(SWAP_MASK | INVERT_MASK)
    orient = bits.astype(np.int64)
    swap = (lsb(cid) & U(0x1111111111111110)) != U(0)
    orient = np.where(swap, orient ^ SWAP_MASK, orient)
    return face, i.astype(np.int64), j.astype(np.int64), orient


_LOOKUP_IJ_LIST = _LOOKUP_IJ.tolist()


def decode_scalar(cid: int):
    """Pure-Python scalar ToFaceIJOrientation — ~20x faster than the
    vectorized path on single ids (coverer/Cell hot loop).  Returns
    (face, i, j, orientation)."""
    cid = int(cid)
    face = cid >> POS_BITS
    bits = face & SWAP_MASK
    i = j = 0
    for k in range(7, -1, -1):
        nbits = 2 if k == 7 else 4
        bits += ((cid >> (k * 8 + 1)) & ((1 << (2 * nbits)) - 1)) << 2
        bits = _LOOKUP_IJ_LIST[bits]
        i += (bits >> 6) << (k * 4)
        j += ((bits >> 2) & 15) << (k * 4)
        bits &= 3
    if (cid & -cid) & 0x1111111111111110:
        bits ^= SWAP_MASK
    return face, i, j, bits


def get_center_si_ti(cell_id):
    """cell id -> (face, si, ti) of the cell center (C++ GetCenterSiTi)."""
    cid = np.asarray(cell_id, dtype=U)
    face, i, j, _ = to_face_ij_orientation(cid)
    is_lf = is_leaf(cid)
    # delta = 1 for leaf; else 2 if (i ^ (id >> 2)) & 1 else 0
    delta = np.where(
        is_lf, 1, np.where(((i ^ (cid >> U(2)).astype(np.int64)) & 1) != 0, 2, 0)
    )
    return face, 2 * i + delta, 2 * j + delta


def to_xyz(cell_id):
    """cell id -> un-normalized center xyz (canonical ToPointRaw)."""
    face, si, ti = get_center_si_ti(cell_id)
    return coords.face_si_ti_to_xyz(face, si, ti)


def to_latlng_deg(cell_id):
    """cell id -> (lat,lng) degrees of the cell center."""
    x, y, z = to_xyz(cell_id)
    return coords.xyz_to_latlng_deg(x, y, z)


# ---------------------------------------------------------------------------
# Bit algebra: level / parent / child / range / validity
# (src/cell_id.rs:251-363,639-692)
# ---------------------------------------------------------------------------

def lsb(cell_id):
    cid = np.asarray(cell_id, dtype=U)
    return cid & (~cid + U(1))


def lsb_for_level(level):
    level = np.asarray(level, dtype=np.int64)
    return U(1) << (U(2) * (U(MAX_LEVEL) - level.astype(U)))


def level(cell_id):
    """level = 30 - tz(id)/2 (src/cell_id.rs:263-272)."""
    cid = np.asarray(cell_id, dtype=U)
    tz = coords._trailing_zeros64(np.where(cid == 0, U(1), cid))
    return (MAX_LEVEL - (tz >> 1)).astype(np.int64)


def is_leaf(cell_id):
    return (np.asarray(cell_id, dtype=U) & U(1)) != U(0)


def is_face(cell_id):
    return (np.asarray(cell_id, dtype=U) & U((1 << 60) - 1)) == U(0)


def is_valid(cell_id):
    """face < 6 and lsb has the 0x1555... pattern (src/cell_id.rs:345-349)."""
    cid = np.asarray(cell_id, dtype=U)
    return ((cid >> U(POS_BITS)) < U(NUM_FACES)) & (
        (lsb(cid) & U(0x1555555555555555)) != U(0)
    )


def face_of(cell_id):
    return (np.asarray(cell_id, dtype=U) >> U(POS_BITS)).astype(np.int64)


def pos(cell_id):
    return np.asarray(cell_id, dtype=U) & U((1 << POS_BITS) - 1)


def parent(cell_id, level_arg):
    """Parent at a level: (id & -lsb_l) | lsb_l (src/cell_id.rs:297-307)."""
    cid = np.asarray(cell_id, dtype=U)
    nlsb = lsb_for_level(level_arg)
    return (cid & (~nlsb + U(1))) | nlsb


def immediate_parent(cell_id):
    cid = np.asarray(cell_id, dtype=U)
    nlsb = lsb(cid) << U(2)
    return (cid & (~nlsb + U(1))) | nlsb


def child(cell_id, position):
    """Child 0-3 (src/cell_id.rs:325-336): id + (2*pos-3) * (lsb>>2)."""
    cid = np.asarray(cell_id, dtype=U)
    half = lsb(cid) >> U(2)
    position = np.asarray(position, dtype=np.int64)
    off = (2 * position - 3).astype(np.int64)
    return (cid.view(np.int64) + off * half.view(np.int64)).view(U)


def children(cell_id):
    """All 4 children, shape (..., 4)."""
    cid = np.asarray(cell_id, dtype=U)
    half = (lsb(cid) >> U(2)).view(np.int64)
    base = cid.view(np.int64)[..., None]
    offs = np.array([-3, -1, 1, 3], dtype=np.int64)
    return (base + offs * half[..., None]).view(U)


def range_min(cell_id):
    cid = np.asarray(cell_id, dtype=U)
    return cid - (lsb(cid) - U(1))


def range_max(cell_id):
    cid = np.asarray(cell_id, dtype=U)
    return cid + (lsb(cid) - U(1))


def contains(a, b):
    """Cell a contains cell b  <=>  range test (src/cell_id.rs:355-358)."""
    b = np.asarray(b, dtype=U)
    return (b >= range_min(a)) & (b <= range_max(a))


def intersects(a, b):
    return (range_min(b) <= range_max(a)) & (range_max(b) >= range_min(a))


def from_face_pos_level(face, position, level_arg):
    """(face, pos, level) -> id (C++ FromFacePosLevel; src/cell_id.rs:155-170)."""
    face_bits = np.asarray(face, dtype=U) << U(POS_BITS)
    position = np.asarray(position, dtype=U)
    return parent(face_bits + (position | U(1)), level_arg)


def begin(level_arg):
    """First cell at level in Hilbert order (src/cell_id.rs:651-657):
    face 0, pos 0 => the id is just the level's lsb."""
    return lsb_for_level(level_arg)


def end(level_arg):
    """One-past-last sentinel at level: wrap offset + lsb."""
    return _WRAP_OFFSET + lsb_for_level(level_arg)


def from_face(face):
    return np.asarray(face, dtype=U) << U(POS_BITS) | (U(1) << U(POS_BITS - 1))


def next_cell(cell_id):
    cid = np.asarray(cell_id, dtype=U)
    return cid + (lsb(cid) << U(1))


def _s_range_min(v):
    return v - ((v & -v) - 1)


def _s_range_max(v):
    return v + ((v & -v) - 1)


def maximum_tile(cell_id, limit):
    """Largest aligned cell c with c.range_min == cell_id.range_min and
    c.range_max < limit (C++ maximum_tile; src/cell_id.rs:673-685).  Scalar —
    used for partition manifests / from_begin_end coverings."""
    cid, limit = int(cell_id), int(limit)
    start = _s_range_min(cid)
    if start >= _s_range_min(limit):
        return U(limit)
    if _s_range_max(cid) >= limit:
        # too large: shrink via child(0) = id - 3*(lsb>>2)
        while True:
            cid = cid - 3 * ((cid & -cid) >> 2)
            if _s_range_max(cid) < limit:
                break
        return U(cid)
    # may be too small: grow while the parent still starts at `start`
    while (cid & ((1 << 60) - 1)) != 0:  # not a face cell
        nlsb = (cid & -cid) << 2
        par = (cid & -nlsb) | nlsb
        if _s_range_min(par) != start or _s_range_max(par) >= limit:
            break
        cid = par
    return U(cid)


# ---------------------------------------------------------------------------
# Tokens (src/cell_id.rs:369-416): zero-stripped 16-hex, order preserving.
# ---------------------------------------------------------------------------

def to_token(cell_id):
    """uint64 array -> list of token strings ('X' for id 0)."""
    cid = np.atleast_1d(np.asarray(cell_id, dtype=U))
    out = []
    for v in cid:
        v = int(v)
        if v == 0:
            out.append("X")
        else:
            out.append(f"{v:016x}".rstrip("0"))
    return out


def from_token(tokens):
    """Token strings -> uint64 array (invalid/'X' -> 0)."""
    vals = []
    for t in tokens:
        t = str(t)
        if not t or len(t) > 16 or t == "X" or t == "x":
            vals.append(0)
            continue
        try:
            vals.append(int(t.ljust(16, "0"), 16))
        except ValueError:
            vals.append(0)
    return np.array(vals, dtype=U)


def to_sort_key(cell_id):
    """uint64 cell id -> int64 'sort key' that preserves Hilbert order.

    Ray Data's groupby/sort paths handle int64 natively but pickle uint64;
    XOR with 2^63 before the signed view keeps the total order (faces 4-5
    would otherwise sort before 0-3).  Inverse: from_sort_key."""
    cid = np.asarray(cell_id, dtype=U)
    return (cid ^ U(1 << 63)).view(np.int64)


def from_sort_key(key):
    return (np.asarray(key, dtype=np.int64).view(U)) ^ U(1 << 63)


def to_hex(cell_id) -> pa.StringArray:
    """Full 16-hex lowercase as an Arrow string array, fully vectorized:
    the hexlified big-endian bytes ARE the data buffer and the offsets are
    a fixed stride of 16, so no per-row string is ever built (int32
    offsets: at most 2^27 ids per call).  Oracle twin:
    lower(lpad(hex(id),16,'0'))."""
    import binascii

    cid = np.atleast_1d(np.ascontiguousarray(cell_id, dtype=U))
    hx = binascii.hexlify(cid.astype(">u8"))
    offsets = np.arange(0, 16 * len(cid) + 1, 16, dtype=np.int32)
    return pa.StringArray.from_buffers(
        len(cid), pa.py_buffer(offsets), pa.py_buffer(hx)
    )


# ---------------------------------------------------------------------------
# Neighbors (canonical C++ GetEdgeNeighbors / AppendAllNeighbors; the
# reference port is a placeholder at src/cell_id.rs:696-722).
# ---------------------------------------------------------------------------

def _from_face_ij_wrap(face, i, j):
    """C++ FromFaceIJWrap — (i,j) may be just outside [0,2^30); wraps onto the
    adjacent face via the *linear* projection (intentional in C++)."""
    face = np.asarray(face, dtype=np.int64)
    i = np.clip(np.asarray(i, dtype=np.int64), -1, MAX_SIZE)
    j = np.clip(np.asarray(j, dtype=np.int64), -1, MAX_SIZE)
    scale = 1.0 / MAX_SIZE
    limit = np.nextafter(1.0, 2.0)
    u = np.clip(scale * (2.0 * (i - MAX_SIZE // 2) + 1.0), -limit, limit)
    v = np.clip(scale * (2.0 * (j - MAX_SIZE // 2) + 1.0), -limit, limit)
    x, y, z = coords.face_uv_to_xyz(face, u, v)
    nface, nu, nv = coords.xyz_to_face_uv(x, y, z)
    ni = coords.st_to_ij(0.5 * (nu + 1.0))
    nj = coords.st_to_ij(0.5 * (nv + 1.0))
    return from_face_ij(nface, ni, nj)


def _from_face_ij_same(face, i, j, same_face):
    same_face = np.asarray(same_face, dtype=bool)
    if same_face.all():
        return from_face_ij(face, np.maximum(i, 0) % MAX_SIZE, np.maximum(j, 0) % MAX_SIZE)
    safe_i = np.clip(i, 0, MAX_SIZE - 1)
    safe_j = np.clip(j, 0, MAX_SIZE - 1)
    same = from_face_ij(face, safe_i, safe_j)
    wrap = _from_face_ij_wrap(face, i, j)
    return np.where(same_face, same, wrap)


def get_size_ij(level_arg):
    return np.int64(1) << (MAX_LEVEL - np.asarray(level_arg, dtype=np.int64))


def edge_neighbors(cell_id):
    """4 edge neighbors at the same level, shape (..., 4) (C++ GetEdgeNeighbors)."""
    cid = np.asarray(cell_id, dtype=U)
    lv = level(cid)
    size = get_size_ij(lv)
    face, i, j, _ = to_face_ij_orientation(cid)
    down = parent(_from_face_ij_same(face, i, j - size, j - size >= 0), lv)
    right = parent(_from_face_ij_same(face, i + size, j, i + size < MAX_SIZE), lv)
    up = parent(_from_face_ij_same(face, i, j + size, j + size < MAX_SIZE), lv)
    left = parent(_from_face_ij_same(face, i - size, j, i - size >= 0), lv)
    return np.stack([down, right, up, left], axis=-1)


def all_neighbors(cell_id, nbr_level=None):
    """All neighbors (edge + vertex) of ONE cell at nbr_level (C++
    AppendAllNeighbors).  Scalar in the cell, used by kNN ring expansion and
    raster boundary tracing; may contain duplicates like the C++ version does
    not (we dedup)."""
    cid = U(int(cell_id))
    lv = int(level(np.asarray([cid]))[0])
    if nbr_level is None:
        nbr_level = lv
    assert nbr_level >= lv, "neighbors must be at the cell's level or finer"
    face, i, j, _ = to_face_ij_orientation(np.asarray([cid]))
    face, i, j = int(face[0]), int(i[0]), int(j[0])
    size = int(get_size_ij(lv))
    i &= -size
    j &= -size
    nbr_size = int(get_size_ij(nbr_level))
    out = []
    k = -nbr_size
    while True:
        if k < 0:
            same_face = j + k >= 0
        elif k >= size:
            same_face = j + k < MAX_SIZE
        else:
            same_face = True
            # North and south neighbors
            out.append(
                parent(_from_face_ij_same(
                    np.array([face]), np.array([i + k]), np.array([j - nbr_size]),
                    np.array([j - size >= 0])), nbr_level)[0])
            out.append(
                parent(_from_face_ij_same(
                    np.array([face]), np.array([i + k]), np.array([j + size]),
                    np.array([j + size < MAX_SIZE])), nbr_level)[0])
        # East, west, diagonal neighbors
        out.append(
            parent(_from_face_ij_same(
                np.array([face]), np.array([i - nbr_size]), np.array([j + k]),
                np.array([same_face and i - size >= 0])), nbr_level)[0])
        out.append(
            parent(_from_face_ij_same(
                np.array([face]), np.array([i + size]), np.array([j + k]),
                np.array([same_face and i + size < MAX_SIZE])), nbr_level)[0])
        if k >= size:
            break
        k += nbr_size
    return np.unique(np.array(out, dtype=U))
