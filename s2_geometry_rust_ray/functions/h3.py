"""H3-parity hexagonal index — aperture-7 icosahedral hex grid, vectorized.

Implements the *algorithmic structure* of the public H3 spec (h3geo.org:
gnomonic projection onto icosahedron faces, aperture-7 hex lattice with the
asin(sqrt(3/28)) ~= 19.1066 deg per-resolution rotation, cube-coordinate
rounding, 64-bit packed index, center-child hierarchy): latlng->cell at
res 0-15, parent/child, k-ring, polyfill.  The API and the row-local map /
groupby shapes match the S2 path keyed by `h3_cell:uint64` (SURVEY.md
§2.10).

Deliberate deviations from Uber's H3 (documented, since bit-parity with the
C library is unverifiable in this sandbox and not the point):
- icosahedron orientation is the canonical golden-ratio embedding, not
  Dymaxion; base cells are the 20 faces (not 122 pentagon-split cells);
- hierarchy is DEFINED as parent(cell) = encode(center(cell), res-1) —
  exact aperture-7 digit truncation within a face (the 7 child centers
  round to their parent), approximate only across the 20 face seams;
- no pentagon special-casing (faces own their full gnomonic neighborhoods).

Index layout (uint64): [unused:9][res:4][face:5][q+2^22:23][r+2^22:23].
"""

from __future__ import annotations

import numpy as np

U = np.uint64

MAX_RES = 15
_OFF = 1 << 22

# --- icosahedron (golden-ratio embedding), deterministic face order -------
_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _icosa():
    v = []
    for a in (-1.0, 1.0):
        for b in (-_PHI, _PHI):
            v += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.array(sorted(set(v)))
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    # faces: all vertex triples with pairwise distance == edge length
    from itertools import combinations

    d2 = ((verts[:, None, :] - verts[None, :, :]) ** 2).sum(-1)
    edge2 = np.sort(np.unique(np.round(d2, 9)))[1]
    faces = []
    for i, j, k in combinations(range(12), 3):
        if (
            abs(d2[i, j] - edge2) < 1e-9
            and abs(d2[j, k] - edge2) < 1e-9
            and abs(d2[i, k] - edge2) < 1e-9
        ):
            faces.append((i, j, k))
    faces = sorted(faces)
    assert len(faces) == 20
    centers = np.array([verts[list(f)].mean(axis=0) for f in faces])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # tangent frames: u toward first vertex, v = n x u
    u_axes, v_axes = [], []
    for fi, f in enumerate(faces):
        n = centers[fi]
        u = verts[f[0]] - n * float(verts[f[0]] @ n)
        u /= np.linalg.norm(u)
        u_axes.append(u)
        v_axes.append(np.cross(n, u))
    return centers, np.array(u_axes), np.array(v_axes)


FACE_CENTERS, FACE_U, FACE_V = _icosa()

# res-0 hex circumradius in gnomonic plane units; rotation per resolution
_S0 = 0.35
_ROT = np.arcsin(np.sqrt(3.0 / 28.0))  # aperture-7 rotation ~19.1066 deg
_SQRT7 = np.sqrt(7.0)
_SQRT3 = np.sqrt(3.0)


def _res_frame(res: int):
    """(scale, cos t, sin t) of the res-r lattice frame."""
    s = _S0 / _SQRT7**res
    t = res * _ROT
    return s, np.cos(t), np.sin(t)


def _axial_round(qf: np.ndarray, rf: np.ndarray):
    """Cube rounding of fractional axial coords (vectorized)."""
    x, z = qf, rf
    y = -x - z
    rx, ry, rz = np.round(x), np.round(y), np.round(z)
    dx, dy, dz = np.abs(rx - x), np.abs(ry - y), np.abs(rz - z)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return rx.astype(np.int64), rz.astype(np.int64)


def latlng_to_h3(lat_deg, lng_deg, res: int) -> np.ndarray:
    """Vectorized (lat,lng) degrees -> h3 cell uint64 at `res`."""
    from .coords import latlng_deg_to_xyz

    x, y, z = latlng_deg_to_xyz(np.asarray(lat_deg, float), np.asarray(lng_deg, float))
    pts = np.stack([x, y, z], axis=-1)
    return xyz_to_h3(pts, res)


def _raw_encode(pts: np.ndarray, res: int, return_margin: bool = False):
    """Point -> (face of point, rounded hex in that face's frame).

    Every float expression is explicit left-associated mul/adds (no BLAS
    matmul, no linalg.norm) so the DuckDB oracle (oracle/h3_sql.py)
    reproduces the encode bit-exactly.  With return_margin, also returns
    the best-vs-second face dot margin (used to SKIP the seam-stability
    re-encode for points provably far from any face boundary — an
    output-identical optimization, see xyz_to_h3)."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    dots = (
        x[:, None] * FACE_CENTERS[None, :, 0]
        + y[:, None] * FACE_CENTERS[None, :, 1]
        + z[:, None] * FACE_CENTERS[None, :, 2]
    )
    face = dots.argmax(axis=1)
    if return_margin:
        # best-minus-second margin via argmax reuse + masked second max:
        # same exact float difference as a top-2 partition, but ~10x
        # cheaper (np.partition over (n, 20) rows was 2.5x the cost of the
        # whole encode).  `dots` is a local temp — in-place poke is safe.
        rows = np.arange(dots.shape[0])
        max1 = dots[rows, face]
        dots[rows, face] = -np.inf
        margin = max1 - dots.max(axis=1)
    n = FACE_CENTERS[face]
    u = FACE_U[face]
    v = FACE_V[face]
    scale_p = x * n[:, 0] + y * n[:, 1] + z * n[:, 2]
    gx, gy, gz = x / scale_p, y / scale_p, z / scale_p
    a = (gx - n[:, 0]) * u[:, 0] + (gy - n[:, 1]) * u[:, 1] + (gz - n[:, 2]) * u[:, 2]
    b = (gx - n[:, 0]) * v[:, 0] + (gy - n[:, 1]) * v[:, 1] + (gz - n[:, 2]) * v[:, 2]
    s, ct, st = _res_frame(res)
    ar = (a * ct + b * st) / s
    br = (-a * st + b * ct) / s
    # planar -> fractional axial (pointy-top): q = (sqrt3/3 x - 1/3 y), r = 2/3 y
    qf = (_SQRT3 / 3.0) * ar - (1.0 / 3.0) * br
    rf = (2.0 / 3.0) * br
    q, r = _axial_round(qf, rf)
    cells = (
        (U(res) << U(51))
        | (face.astype(U) << U(46))
        | ((q + _OFF).astype(U) << U(23))
        | (r + _OFF).astype(U)
    )
    if return_margin:
        return cells, margin
    return cells


def xyz_to_h3(pts: np.ndarray, res: int) -> np.ndarray:
    """Canonical encode.  Near the 20 face seams a hex named in one face's
    frame can have its center on the neighboring face; we canonicalize by
    iterating cell -> raw_encode(center(cell)) to its attractor cycle and
    taking the cycle's min id.  This makes `xyz_to_h3(center(c)) == c` an
    exact invariant for every canonical cell, at the cost of re-encoding
    only the (tiny) unstable seam fraction more than once.

    Internally chunked to _ENC_CHUNK rows: the encode's temporaries (the
    (n,20) face-dot matrix and friends) total ~100 bytes/row, so a 131k
    batch streams ~tens of MB through DRAM per pass and 32 concurrent
    workers hit the DRAM wall (measured 1.3M rows/s aggregate unchunked vs
    23.7M chunked — 18x).  Chunking is output-identical: every step is
    per-row (elementwise + per-row argmax)."""
    if not (0 <= res <= MAX_RES):
        raise ValueError("res must be 0..15")
    pts = np.asarray(pts, dtype=np.float64)
    if pts.shape[0] > _ENC_CHUNK:
        return np.concatenate(
            [
                _xyz_to_h3_chunk(pts[i : i + _ENC_CHUNK], res)
                for i in range(0, pts.shape[0], _ENC_CHUNK)
            ]
        )
    return _xyz_to_h3_chunk(pts, res)


_ENC_CHUNK = 16384


def _xyz_to_h3_chunk(pts: np.ndarray, res: int) -> np.ndarray:
    cell, margin = _raw_encode(pts, res, return_margin=True)
    # seam prefilter (output-identical): a cell center lies within
    # gnomonic distance ~2*s of its point, moving each face dot by at most
    # ~2*s radians-worth; if the best-face margin exceeds 4*s the center's
    # argmax face cannot change, and a same-face center re-encodes to the
    # same hex (it sits at the hex CENTER, ~1e-15 from the rounding
    # boundary at distance 0.5) => e1 == e0 without computing it.  Only
    # the near-seam minority takes the decode+encode stability pass.
    s = _S0 / _SQRT7**res
    check = np.nonzero(margin <= 4.0 * s)[0]
    if check.size == 0:
        return cell
    nxt_sub = _raw_encode(h3_to_xyz(cell[check]), res)
    flipped = np.nonzero(nxt_sub != cell[check])[0]
    if flipped.size == 0:
        return cell
    unstable = check[flipped]
    # iterate the unstable subset into the cycle, then min over the cycle
    # (first iterate already computed above)
    traj = [cell[unstable], nxt_sub[flipped]]
    cur = traj[-1]
    for _ in range(4):
        cur = _raw_encode(h3_to_xyz(cur), res)
        traj.append(cur)
    canon = np.minimum.reduce(traj[-3:])  # last iterates lie in the cycle
    out = cell.copy()
    out[unstable] = canon
    return out


def h3_res(cell) -> np.ndarray:
    return ((np.asarray(cell, U) >> U(51)) & U(0xF)).astype(np.int64)


def h3_face(cell) -> np.ndarray:
    return ((np.asarray(cell, U) >> U(46)) & U(0x1F)).astype(np.int64)


def h3_qr(cell):
    c = np.asarray(cell, U)
    q = ((c >> U(23)) & U(0x7FFFFF)).astype(np.int64) - _OFF
    r = (c & U(0x7FFFFF)).astype(np.int64) - _OFF
    return q, r


def h3_to_xyz(cell) -> np.ndarray:
    """Cell center xyz (unit)."""
    cell = np.atleast_1d(np.asarray(cell, U))
    res = h3_res(cell)
    face = h3_face(cell)
    q, r = h3_qr(cell)
    out = np.zeros((len(cell), 3))
    for rr in np.unique(res):
        m = res == rr
        s, ct, st = _res_frame(int(rr))
        xr = _SQRT3 * q[m] + _SQRT3 / 2.0 * r[m]
        yr = 1.5 * r[m]
        a = (xr * ct - yr * st) * s
        b = (xr * st + yr * ct) * s
        g = (
            FACE_CENTERS[face[m]]
            + a[:, None] * FACE_U[face[m]]
            + b[:, None] * FACE_V[face[m]]
        )
        # explicit norm expression (shared with the SQL oracle)
        nrm = np.sqrt((g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]) + g[:, 2] * g[:, 2])
        out[m] = g / nrm[:, None]
    return out


def h3_parent(cell, parent_res: int) -> np.ndarray:
    """Center-child hierarchy, one aperture-7 step at a time: the single-step
    parent is encode(center, res-1) (the 7 child centers round to their
    parent — exact digit truncation), and multi-level parents CHAIN the
    single steps so the hierarchy is transitive by construction:
    parent(parent(c, m), k) == parent(c, k) for k <= m."""
    cell = np.atleast_1d(np.asarray(cell, U))
    res = h3_res(cell)
    assert np.all(res >= parent_res)
    out = cell.copy()
    for step in range(int(res.max()), parent_res, -1):
        m = h3_res(out) == step
        if m.any():
            out[m] = xyz_to_h3(h3_to_xyz(out[m]), step - 1)
    return out


def h3_children(cell, child_res: int | None = None) -> np.ndarray:
    """Children of ONE cell at child_res (default res+1): fine cells whose
    parent is this cell, found by scanning the k-ring of the center."""
    cell = U(int(np.atleast_1d(np.asarray(cell, U))[0]))
    res = int(h3_res(np.array([cell]))[0])
    if child_res is None:
        child_res = res + 1
    assert child_res > res
    center_fine = xyz_to_h3(h3_to_xyz(cell), child_res)
    k = int(np.ceil(_SQRT7 ** (child_res - res)))
    cand = k_ring(int(center_fine[0]), k)
    par = h3_parent(cand, res)
    return cand[par == cell]


def k_ring(cell: int, k: int) -> np.ndarray:
    """All cells within k hex steps (same res).  Lattice moves within the
    face; cells whose centers re-encode across a face seam are re-canonized
    by re-encoding (so seam neighbors are reachable, possibly with slight
    ring-shape distortion there — see module docstring)."""
    cell = U(int(cell))
    res = int(h3_res(np.array([cell]))[0])
    face = int(h3_face(np.array([cell]))[0])
    q0, r0 = h3_qr(np.array([cell]))
    q0, r0 = int(q0[0]), int(r0[0])
    qs, rs = [], []
    for dq in range(-k, k + 1):
        for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
            qs.append(q0 + dq)
            rs.append(r0 + dr)
    q = np.array(qs, dtype=np.int64)
    r = np.array(rs, dtype=np.int64)
    raw = (
        (U(res) << U(51))
        | (U(face) << U(46))
        | ((q + _OFF).astype(U) << U(23))
        | (r + _OFF).astype(U)
    )
    # re-canonize via centers (handles face-seam cells)
    return np.unique(xyz_to_h3(h3_to_xyz(raw), res))


def polyfill(region, res: int) -> np.ndarray:
    """Cells whose center is inside `region` (coverer.py region protocol) —
    H3-style center-containment polyfill.  Candidates come from the
    region's S2 covering (comparable granularity) expanded by one ring."""
    from ..geometry import cell_union
    from ..geometry.coverer import RegionCoverer
    from . import cellid

    # S2 level with similar cell size: hex edge ~ s0/sqrt7^res gnomonic;
    # use a level a bit finer than the hex scale
    s2_level = min(30, 2 * res + 4)
    cov = RegionCoverer(max_cells=256, max_level=s2_level).get_covering(region)
    # sample candidate centers: S2 cells at (level ~ hex size) inside cover
    cand_cells = []
    for c in cov:
        lv = int(cellid.level(np.array([c], U))[0])
        target = min(s2_level, lv + 2)
        ids = [int(c)]
        for _ in range(target - lv):
            ids = [int(ch) for cid in ids for ch in cellid.children(np.array([cid], U))[0]]
        cand_cells.extend(ids)
    x, y, z = cellid.to_xyz(np.array(cand_cells, U))
    nrm = np.sqrt(x * x + y * y + z * z)
    pts = np.stack([x / nrm, y / nrm, z / nrm], axis=-1)
    hexes = np.unique(xyz_to_h3(pts, res))
    # keep those whose center is inside the region
    centers = h3_to_xyz(hexes)
    keep = np.array([region.contains_point(c) for c in centers])
    return hexes[keep]
