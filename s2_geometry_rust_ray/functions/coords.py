"""S2 coordinate-system transforms as vectorized NumPy kernels.

Canonical semantics (quadratic projection + Hilbert traversal tables) per the
reference's coords module (/root/reference/src/math.rs:54-430) and its ported
Google C++ tests (/root/reference/tests/test_s2coords_port.rs).  These are the
stateless substrate of every row-local kernel in the engine: all functions
take and return NumPy arrays (float64 / int64 / uint64) and contain no Python
row loops.

NOTE on bit-exact reproducibility: the encode path (lat/lng -> leaf cell id)
deliberately uses only IEEE-754 correctly-rounded operations (+ - * / sqrt)
plus sin/cos, which were verified bit-identical between NumPy and DuckDB on
this platform — this lets the driver's DuckDB oracle reproduce cell ids
exactly.  asin/atan2 (used only in the *decode* direction) are NOT bit-stable
across engines and are never part of an oracle-compared value.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
I64 = np.int64

MAX_LEVEL = 30
LIMIT_IJ = 1 << MAX_LEVEL          # 2^30
MAX_SI_TI = 1 << (MAX_LEVEL + 1)   # 2^31

SWAP_MASK = 1
INVERT_MASK = 2

# Hilbert traversal tables (src/math.rs:81-99; proven consistent by
# tests/test_s2coords_port.rs:27-68).
IJ_TO_POS = np.array(
    [
        [0, 1, 3, 2],  # canonical order
        [0, 3, 1, 2],  # axes swapped
        [2, 3, 1, 0],  # bits inverted
        [2, 1, 3, 0],  # swapped & inverted
    ],
    dtype=np.int64,
)
POS_TO_IJ = np.array(
    [
        [0, 1, 3, 2],
        [0, 2, 3, 1],
        [3, 2, 0, 1],
        [3, 1, 0, 2],
    ],
    dtype=np.int64,
)
POS_TO_ORIENTATION = np.array(
    [SWAP_MASK, 0, 0, INVERT_MASK | SWAP_MASK], dtype=np.int64
)

# Face u/v/w axes (src/math.rs:103-110) — row f is [u_axis, v_axis, norm].
FACE_UVW_AXES = np.array(
    [
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
    ],
    dtype=np.float64,
)

# Face neighbor table (src/math.rs:114-121): FACE_UVW_FACES[f][axis] =
# [face in -axis direction, face in +axis direction].
FACE_UVW_FACES = np.array(
    [
        [[4, 1], [5, 2], [3, 0]],
        [[0, 3], [5, 2], [4, 1]],
        [[0, 3], [1, 4], [5, 2]],
        [[2, 5], [1, 4], [0, 3]],
        [[2, 5], [3, 0], [1, 4]],
        [[4, 1], [3, 0], [2, 5]],
    ],
    dtype=np.int64,
)

DEG_TO_RAD = np.pi / 180.0
RAD_TO_DEG = 180.0 / np.pi
EARTH_RADIUS_METERS = 6371010.0  # src/math.rs constants


def st_to_uv(s):
    """Quadratic s->u projection (src/math.rs:126-138; C++ STtoUV)."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(
        s >= 0.5,
        (1.0 / 3.0) * (4.0 * s * s - 1.0),
        (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)),
    )


def uv_to_st(u):
    """Quadratic u->s inverse (src/math.rs:142-153; C++ UVtoST).

    Written so the positive branch is exactly `0.5*sqrt(1+3*u)` and the
    negative branch `1 - 0.5*sqrt(1-3*u)` — the same expression shapes used by
    the DuckDB oracle for bit-equality.
    """
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        pos = 0.5 * np.sqrt(1.0 + 3.0 * u)
        neg = 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u)
    return np.where(u >= 0.0, pos, neg)


def st_to_ij(s):
    """s -> leaf-cell i in [0, 2^30) (src/math.rs:166-170; trunc + clamp)."""
    s = np.asarray(s, dtype=np.float64)
    i = (np.float64(LIMIT_IJ) * s).astype(np.int64)  # trunc toward zero; s >= 0
    return np.clip(i, 0, LIMIT_IJ - 1)


def ij_to_st_min(i):
    """Leaf index -> minimum s of that leaf cell (src/math.rs:158-162)."""
    return np.asarray(i, dtype=np.float64) / np.float64(LIMIT_IJ)


def st_to_si_ti(s):
    """s -> si in [0, 2^31], round-half-up (src/math.rs:181-186)."""
    s = np.asarray(s, dtype=np.float64)
    return (s * np.float64(MAX_SI_TI) + 0.5).astype(np.int64)


def si_ti_to_st(si):
    """si -> s (src/math.rs:175-178)."""
    return np.asarray(si, dtype=np.float64) / np.float64(MAX_SI_TI)


def latlng_deg_to_xyz(lat_deg, lng_deg):
    """(lat,lng) degrees -> xyz on the unit sphere (src/latlng.rs to_point).

    Uses only sin/cos/* — bit-reproducible in the DuckDB oracle.
    """
    phi = np.asarray(lat_deg, dtype=np.float64) * DEG_TO_RAD
    theta = np.asarray(lng_deg, dtype=np.float64) * DEG_TO_RAD
    cosphi = np.cos(phi)
    return cosphi * np.cos(theta), cosphi * np.sin(theta), np.sin(phi)


def xyz_to_latlng_deg(x, y, z):
    """xyz -> (lat,lng) degrees (src/latlng.rs:127-140).

    atan2/asin based — decode direction only, never oracle-compared raw.
    """
    lat = np.arctan2(z, np.sqrt(x * x + y * y)) * RAD_TO_DEG
    lng = np.arctan2(y, x) * RAD_TO_DEG
    # normalize -0.0 -> +0.0 like the reference
    return lat + 0.0, lng + 0.0


def get_face(x, y, z):
    """Dominant-axis cube face 0-5 (src/math.rs:206-221; C++ GetFace)."""
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x < 0.0, 3, 0),
        np.where(ay >= az, np.where(y < 0.0, 4, 1), np.where(z < 0.0, 5, 2)),
    )
    return face.astype(np.int64)


_U_AXIS = np.array([1, 0, 0, 2, 2, 1], dtype=np.int64)
_U_SIGN = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
_V_AXIS = np.array([2, 2, 1, 1, 0, 0], dtype=np.int64)
_V_SIGN = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def valid_face_xyz_to_uv(face, x, y, z):
    """(face, xyz) -> (u, v); assumes xyz on the face (src/math.rs:235-246).

    One gather + one division per coordinate (vs. 6 with np.select); the
    per-face formulas u = {y/x, -x/y, -x/z, z/x, z/y, -y/z} etc. are encoded
    as (sign, numerator axis, denominator = face%3 axis).  (sign*n)/d is
    IEEE-identical to the literal -n/d forms.
    """
    face = np.asarray(face, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    xyz = np.stack([np.broadcast_to(x, np.shape(x)),
                    np.broadcast_to(np.asarray(y, dtype=np.float64), np.shape(x)),
                    np.broadcast_to(np.asarray(z, dtype=np.float64), np.shape(x))])
    if np.shape(face) == ():
        f = int(face)
        den = xyz[f % 3]
        return (_U_SIGN[f] * xyz[_U_AXIS[f]]) / den, (_V_SIGN[f] * xyz[_V_AXIS[f]]) / den
    n = face.shape[0]
    rows = np.arange(n)
    den = xyz[face % 3, rows]
    u = (_U_SIGN[face] * xyz[_U_AXIS[face], rows]) / den
    v = (_V_SIGN[face] * xyz[_V_AXIS[face], rows]) / den
    return u, v


def xyz_to_face_uv(x, y, z):
    """xyz -> (face, u, v) (src/math.rs:226-231)."""
    face = get_face(x, y, z)
    u, v = valid_face_xyz_to_uv(face, x, y, z)
    return face, u, v


def face_uv_to_xyz(face, u, v):
    """(face,u,v) -> un-normalized xyz (src/math.rs:191-201)."""
    face = np.asarray(face)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    one = np.ones_like(u)
    x = np.select(
        [face == 0, face == 1, face == 2, face == 3, face == 4, face == 5],
        [one, -u, -u, -one, v, v],
    )
    y = np.select(
        [face == 0, face == 1, face == 2, face == 3, face == 4, face == 5],
        [u, one, -v, -v, -one, u],
    )
    z = np.select(
        [face == 0, face == 1, face == 2, face == 3, face == 4, face == 5],
        [v, v, one, -u, -u, -one],
    )
    return x, y, z


def face_xyz_to_uv_scalar(face, p):
    """Scalar C++ FaceXYZtoUV (src/math.rs:251-263): (u, v) if p lies in
    this face's half-space, else None."""
    face = int(face)
    if face < 3:
        if p[face] <= 0:
            return None
    else:
        if p[face - 3] >= 0:
            return None
    u, v = valid_face_xyz_to_uv(np.int64(face), p[0], p[1], p[2])
    return float(u), float(v)


def xyz_to_face_si_ti(x, y, z):
    """xyz -> (face, si, ti, level) (src/math.rs:283-301; C++ XYZtoFaceSiTi).

    level is the cell level if (si,ti) is exactly a cell center, else -1.
    """
    face, u, v = xyz_to_face_uv(x, y, z)
    si = st_to_si_ti(uv_to_st(u))
    ti = st_to_si_ti(uv_to_st(v))
    level = _compute_cell_level(si, ti)
    return face, si, ti, level


def _compute_cell_level(si, ti):
    """(si,ti) -> level if a cell center, else -1 (src/math.rs:311-344)."""
    si = np.asarray(si, dtype=np.int64)
    ti = np.asarray(ti, dtype=np.int64)
    bad = (si == 0) | (ti == 0) | (si == MAX_SI_TI) | (ti == MAX_SI_TI)
    si_s = np.where(bad, 1, si)
    ti_s = np.where(bad, 1, ti)
    tz_si = _trailing_zeros64(si_s.astype(U64))
    tz_ti = _trailing_zeros64(ti_s.astype(U64))
    level = MAX_LEVEL - tz_si
    ok = (~bad) & (tz_si == tz_ti) & (level >= 0) & (level <= MAX_LEVEL)
    return np.where(ok, level, -1)


def face_si_ti_to_xyz(face, si, ti):
    """(face,si,ti) -> xyz (src/math.rs:303-309)."""
    u = st_to_uv(si_ti_to_st(si))
    v = st_to_uv(si_ti_to_st(ti))
    return face_uv_to_xyz(face, u, v)


def _trailing_zeros64(v):
    """Trailing-zero count of uint64 array (v must be nonzero).

    lsb = v & -v is a power of two <= 2^63; log2 of a float64 power of two is
    exact, so the cast is safe.
    """
    v = np.asarray(v, dtype=U64)
    lsb = v & (~v + U64(1))
    return np.log2(lsb.astype(np.float64)).astype(np.int64)
