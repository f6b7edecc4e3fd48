"""Ported golden assertions from /root/reference/tests/test_s2cell_id_port.rs
plus an independent scalar Hilbert encoder as a cross-implementation oracle."""

import numpy as np
import pytest

from s2_geometry_rust_ray.functions import cellid, coords

U = np.uint64


def scalar_encode(face, i, j):
    """Independent 1-bit-per-level Hilbert encoder (same algorithm family as
    the SQL oracle; distinct from the engine's 4-bit nibble tables)."""
    n, o = face, face & 1
    for lvl in range(30):
        bi = (i >> (29 - lvl)) & 1
        bj = (j >> (29 - lvl)) & 1
        p = int(coords.IJ_TO_POS[o][2 * bi + bj])
        n = n * 4 + p
        o ^= int(coords.POS_TO_ORIENTATION[p])
    return n * 2 + 1


def test_face_definitions():
    """test_s2cell_id_port.rs:84-92 — cardinal directions hit faces 0-5."""
    lats = np.array([0.0, 0.0, 90.0, 0.0, 0.0, -90.0])
    lngs = np.array([0.0, 90.0, 0.0, 180.0, -90.0, 0.0])
    faces = cellid.face_of(cellid.from_latlng_deg(lats, lngs))
    assert list(faces) == [0, 1, 2, 3, 4, 5]


def test_encode_matches_independent_scalar():
    rng = np.random.default_rng(42)
    face = rng.integers(0, 6, 3000)
    i = rng.integers(0, 2**30, 3000)
    j = rng.integers(0, 2**30, 3000)
    fast = cellid.from_face_ij(face, i, j)
    slow = np.array(
        [scalar_encode(int(f), int(a), int(b)) for f, a, b in zip(face, i, j)],
        dtype=U,
    )
    assert np.array_equal(fast, slow)


def test_decode_roundtrip():
    rng = np.random.default_rng(1)
    face = rng.integers(0, 6, 3000)
    i = rng.integers(0, 2**30, 3000)
    j = rng.integers(0, 2**30, 3000)
    cid = cellid.from_face_ij(face, i, j)
    f2, i2, j2, _ = cellid.to_face_ij_orientation(cid)
    assert np.array_equal(f2, face) and np.array_equal(i2, i) and np.array_equal(j2, j)


def test_from_face_pos_level():
    """test_s2cell_id_port.rs:95-113 — face/level/validity for all faces+levels."""
    for face in range(6):
        for lvl in range(31):
            cid = cellid.from_face_pos_level(np.array([face]), np.array([0]), lvl)
            assert cellid.face_of(cid)[0] == face
            assert cellid.level(cid)[0] == lvl
            assert cellid.is_valid(cid)[0]
            assert cellid.is_leaf(cid)[0] == (lvl == 30)
            assert cellid.is_face(cid)[0] == (lvl == 0)


def test_parent_child_relationships():
    """test_s2cell_id_port.rs:116-159."""
    rng = np.random.default_rng(123)
    leaf = cellid.from_face_ij(
        rng.integers(0, 6, 2000), rng.integers(0, 2**30, 2000), rng.integers(0, 2**30, 2000)
    )
    lvl = rng.integers(1, 31, 2000)
    cid = cellid.parent(leaf, lvl)
    par = cellid.immediate_parent(cid)
    assert np.array_equal(cellid.level(par), lvl - 1)
    assert np.all(cellid.contains(par, cid))
    # 2*id == range_min + range_max (mod 2^64)
    assert np.array_equal(
        cid * U(2), cellid.range_min(cid) + cellid.range_max(cid)
    )
    # children
    inner = cid[cellid.level(cid) < 30]
    ch = cellid.children(inner)
    assert ch.shape[-1] == 4
    for p in range(4):
        assert np.array_equal(ch[:, p], cellid.child(inner, p))
        assert np.array_equal(cellid.immediate_parent(ch[:, p]), inner)
        assert np.all(cellid.contains(inner, ch[:, p]))
        assert np.array_equal(cellid.level(ch[:, p]), cellid.level(inner) + 1)


def test_containment_and_ranges():
    """test_s2cell_id_port.rs:181-220."""
    rng = np.random.default_rng(456)
    l1 = rng.integers(0, 30, 2000)
    l2 = np.array([rng.integers(a, 31) for a in l1])
    leaf = cellid.from_face_ij(
        rng.integers(0, 6, 2000), rng.integers(0, 2**30, 2000), rng.integers(0, 2**30, 2000)
    )
    c1 = cellid.parent(leaf, l1)
    c2 = cellid.parent(leaf, l2)  # same leaf => c1 contains c2
    assert np.all(cellid.contains(c1, c2))
    assert np.all(cellid.intersects(c1, c2) & cellid.intersects(c2, c1))
    assert np.all(cellid.range_min(c2) >= cellid.range_min(c1))
    assert np.all(cellid.range_max(c2) <= cellid.range_max(c1))
    # unrelated cells on different faces never intersect
    other = cellid.parent(
        cellid.from_face_ij((cellid.face_of(leaf) + 1) % 6,
                            rng.integers(0, 2**30, 2000), rng.integers(0, 2**30, 2000)),
        l2,
    )
    assert not np.any(cellid.intersects(c1, other))


def test_center_reencode_identity():
    """Canonical decode: center of any cell re-encodes to a leaf inside it
    (exact identity at leaf level) — the port's own 'very rough' decode
    (src/cell_id.rs:453-459) fails this; the C++ semantics require it."""
    rng = np.random.default_rng(9)
    leaf = cellid.from_latlng_deg(rng.uniform(-89, 89, 2000), rng.uniform(-180, 180, 2000))
    assert np.array_equal(cellid.from_xyz(*cellid.to_xyz(leaf)), leaf)
    for lvl in [0, 3, 10, 17, 25]:
        cid = cellid.parent(leaf, lvl)
        back = cellid.from_xyz(*cellid.to_xyz(cid))
        assert np.all(cellid.contains(cid, back))


def test_tokens():
    """src/cell_id.rs:369-416 — zero-stripped hex tokens, 'X' for invalid."""
    rng = np.random.default_rng(11)
    leaf = cellid.from_latlng_deg(rng.uniform(-89, 89, 500), rng.uniform(-180, 180, 500))
    for lvl in [0, 7, 19, 30]:
        cid = cellid.parent(leaf, lvl)
        toks = cellid.to_token(cid)
        assert np.array_equal(cellid.from_token(toks), cid)
        assert all(not t.endswith("0") for t in toks)
    assert cellid.to_token(np.array([0], dtype=U)) == ["X"]
    assert cellid.from_token(["X"])[0] == 0
    assert cellid.from_token([""])[0] == 0
    # order-preserving within equal length is not required; value-roundtrip is.
    assert cellid.from_token(["3"])[0] == 0x3000000000000000


def test_to_hex_golden():
    """to_hex is an Arrow string array of f"{id:016x}" — zero-padded
    lowercase, big-endian — for any uint64, including a strided view."""
    import pyarrow as pa

    rng = np.random.default_rng(5)
    face5_leaf = cellid.from_face_ij([5], [123456789], [987654321])
    assert int(face5_leaf[0]) >> 63 == 1
    ids = np.concatenate([
        np.array([0, 1, 2**64 - 1], dtype=U), face5_leaf,
        rng.integers(0, 2**63, 64, dtype=np.int64).view(U) * U(2) + U(1),
    ])
    for arr in (ids, ids[::2], np.array([], dtype=U)):
        got = cellid.to_hex(arr)
        assert got.type == pa.string()
        assert len(got) == len(arr)
        assert got.to_pylist() == [f"{int(v):016x}" for v in arr]
    assert cellid.to_hex(ids[:3]).to_pylist() == [
        "0000000000000000", "0000000000000001", "ffffffffffffffff"]


def test_lsb_level_identities():
    rng = np.random.default_rng(3)
    leaf = cellid.from_face_ij(
        rng.integers(0, 6, 1000), rng.integers(0, 2**30, 1000), rng.integers(0, 2**30, 1000)
    )
    lvl = rng.integers(0, 31, 1000)
    cid = cellid.parent(leaf, lvl)
    assert np.array_equal(cellid.lsb(cid), cellid.lsb_for_level(lvl))
    assert np.array_equal(cellid.level(cid), lvl)


def test_edge_neighbors_symmetry():
    """Canonical GetEdgeNeighbors: neighbor relation is symmetric and
    neighbors share the level (the port's is a placeholder,
    src/cell_id.rs:696-722)."""
    rng = np.random.default_rng(21)
    leaf = cellid.from_latlng_deg(rng.uniform(-89, 89, 200), rng.uniform(-180, 180, 200))
    for lvl in [1, 5, 12]:
        cid = cellid.parent(leaf, lvl)
        nbrs = cellid.edge_neighbors(cid)
        assert np.all(cellid.level(nbrs.ravel()) == lvl)
        # symmetry: for each cell c and neighbor n, c is among n's neighbors
        for k in range(20):
            c = cid[k]
            for n in nbrs[k]:
                back = cellid.edge_neighbors(np.array([n], dtype=U))[0]
                assert c in back
        # neighbors are distinct and != self
        for k in range(20):
            assert len(set(nbrs[k].tolist())) == 4
            assert cid[k] not in nbrs[k]


def test_all_neighbors_counts():
    """Interior cells have 8 same-level neighbors; they include the 4 edge
    neighbors; corner-of-face cells have 7."""
    rng = np.random.default_rng(22)
    leaf = cellid.from_latlng_deg(rng.uniform(-80, 80, 30), rng.uniform(-180, 180, 30))
    cid = cellid.parent(leaf, 8)
    for k in range(30):
        an = cellid.all_neighbors(cid[k])
        en = cellid.edge_neighbors(cid[k : k + 1])[0]
        assert set(en.tolist()) <= set(an.tolist())
        assert len(an) in (7, 8)
    # face-corner cell: child 0 of a face cell at level 1 touches a cube corner
    corner = cellid.child(cellid.from_face(np.array([0])), 0)
    assert len(cellid.all_neighbors(corner[0])) == 7


def test_begin_end_iteration():
    for lvl in [0, 1, 2]:
        cur = cellid.begin(lvl)
        count = 0
        end = cellid.end(lvl)
        while int(cur) != int(end):
            cur = cellid.next_cell(np.asarray(cur))
            count += 1
        assert count == 6 * 4**lvl


def test_maximum_tile():
    """C++ maximum_tile semantics: greedy largest aligned cell in a leaf
    range.  Covering [leaf begin, face-1 range start) yields the face-0 cell."""
    face0 = int(cellid.from_face(np.array([0]))[0])
    face1_start = int(cellid.range_min(cellid.from_face(np.array([1])))[0])
    t = cellid.maximum_tile(int(cellid.begin(30)), face1_start)
    assert int(t) == face0
    # a misaligned start produces a smaller tile whose range stays in bounds
    start = int(cellid.range_min(np.array([cellid.child(cellid.from_face(np.array([0])), 1)[0]]))[0])
    t2 = cellid.maximum_tile(start, face1_start)
    assert int(cellid.level(np.array([t2], dtype=U))[0]) == 1
    assert int(cellid.range_max(np.array([t2], dtype=U))[0]) < face1_start


def test_sort_key_order_preserving():
    rng = np.random.default_rng(33)
    cid = cellid.from_latlng_deg(rng.uniform(-89, 89, 5000), rng.uniform(-180, 180, 5000))
    sk = cellid.to_sort_key(cid)
    assert np.array_equal(np.argsort(sk, kind="stable"), np.argsort(cid, kind="stable"))
    assert np.array_equal(cellid.from_sort_key(sk), cid)
