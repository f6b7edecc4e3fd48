"""S2Builder-style geometry construction: snap-round an edge soup into
loops/polygons.

Per the reference's builder (/root/reference/src/builder/mod.rs:140-297:
add_edge/add_loop -> snap each vertex -> dedupe into a Graph -> Layer
assembles output; snap policies at src/builder/snap_functions.rs; graph
cleanup options at src/builder/graph.rs:47-573 — remove degenerate edges,
duplicate edges, sibling pairs).  This is the geometry-INGEST normalization
stage: per-geometry and in-memory, run inside a small row-local map over the
polygon-layer table, never over the point table.
"""

from __future__ import annotations

import numpy as np

from ..functions import snap as snapfn
from .loop import Loop, Polygon, validate_loop


class Builder:
    """Collect edges, snap vertices, assemble loops.

    snap: None (identity) | ('e7', exponent) | ('cell', level) —
    the reference's IntLatLngSnapFunction / S2CellIdSnapFunction."""

    def __init__(self, snap=None, remove_duplicate_edges=True,
                 remove_sibling_pairs=True):
        self.snap = snap
        self.remove_duplicate_edges = remove_duplicate_edges
        self.remove_sibling_pairs = remove_sibling_pairs
        self._edges: list[tuple[tuple, tuple]] = []

    # -- input ---------------------------------------------------------------

    def _snap_point(self, lat: float, lng: float):
        if self.snap is None:
            return lat, lng
        kind, param = self.snap
        if kind == "e7":
            la, ln = snapfn.snap_e7(np.array([lat]), np.array([lng]), param)
            return float(la[0]), float(ln[0])
        if kind == "cell":
            la, ln, _ = snapfn.snap_to_cell_center(
                np.array([lat]), np.array([lng]), param
            )
            return float(la[0]), float(ln[0])
        raise ValueError(self.snap)

    def add_edge_latlng(self, a, b):
        """a, b: (lat_deg, lng_deg) tuples."""
        sa = self._snap_point(*a)
        sb = self._snap_point(*b)
        if sa == sb:
            return  # degenerate after snapping (graph option DISCARD)
        self._edges.append((sa, sb))

    def add_loop_latlng(self, coords):
        for i in range(len(coords)):
            self.add_edge_latlng(coords[i], coords[(i + 1) % len(coords)])

    # -- build ---------------------------------------------------------------

    def _cleaned_edges(self):
        edges = self._edges
        if self.remove_duplicate_edges:
            seen = set()
            uniq = []
            for e in edges:
                if e not in seen:
                    seen.add(e)
                    uniq.append(e)
            edges = uniq
        if self.remove_sibling_pairs:
            # cancel a->b against b->a (reference GraphOptions::SiblingPairs
            # DISCARD; src/builder/graph.rs)
            from collections import Counter

            count = Counter(edges)
            out = []
            for e in edges:
                r = (e[1], e[0])
                if count[r] > 0 and count[e] > 0:
                    count[e] -= 1
                    count[r] -= 1
                    continue
                if count[e] > 0:
                    count[e] -= 1
                    out.append(e)
            edges = out
        return edges

    def build_loops(self) -> list[np.ndarray]:
        """Chain directed edges into closed loops; returns lat/lng vertex
        arrays (m, 2).  Raises if edges don't form closed chains.

        Assembly is Hierholzer's circuit algorithm followed by simple-cycle
        decomposition (split the circuit at repeated vertices), so edge
        soups whose loops SHARE a vertex — where a greedy walk could
        dead-end depending on insertion order — always assemble, matching
        C++ S2Builder's deterministic graph assembly."""
        edges = self._cleaned_edges()
        if not edges:
            return []
        out_map: dict[tuple, list[tuple]] = {}
        for a, b in edges:
            out_map.setdefault(a, []).append(b)
        for a in out_map:
            out_map[a].sort()  # deterministic edge choice
        ptr = {a: 0 for a in out_map}
        loops: list[np.ndarray] = []
        for a0 in sorted(out_map):
            while ptr[a0] < len(out_map[a0]):
                # Hierholzer: build a closed circuit consuming unused edges
                stack, circuit = [a0], []
                while stack:
                    v = stack[-1]
                    nxts = out_map.get(v)
                    if nxts is not None and ptr.setdefault(v, 0) < len(nxts):
                        stack.append(nxts[ptr[v]])
                        ptr[v] += 1
                    else:
                        circuit.append(stack.pop())
                circuit.reverse()
                if circuit[0] != circuit[-1]:
                    raise ValueError(f"open chain at vertex {circuit[-1]}")
                # decompose the closed walk into simple cycles at repeated
                # vertices (two loops touching at a vertex -> two loops)
                path = [circuit[0]]
                pos = {circuit[0]: 0}
                for v in circuit[1:]:
                    if v in pos:
                        i = pos[v]
                        cyc = path[i:]
                        for u in cyc[1:]:
                            pos.pop(u, None)
                        path = path[: i + 1]
                        if len(cyc) >= 3:
                            loops.append(np.array(cyc))
                    else:
                        pos[v] = len(path)
                        path.append(v)
        return loops

    def build_polygon(self, validate: bool = True) -> Polygon:
        """Assemble an even-odd Polygon (S2PolygonLayer semantics,
        src/builder/layers.rs:149-357)."""
        loops = []
        for chain in self.build_loops():
            lp = Loop.from_latlng_deg(chain[:, 0], chain[:, 1])
            if validate:
                err = validate_loop(lp.v)
                if err:
                    raise ValueError(f"invalid loop: {err}")
            loops.append(lp)
        if not loops:
            raise ValueError("no loops assembled")
        return Polygon(loops)

    def build_polylines(self) -> list[np.ndarray]:
        """S2PolylineLayer: chain edges into maximal open polylines
        (consumes closed loops too, as cycles)."""
        edges = self._cleaned_edges()
        out_map: dict[tuple, list[tuple]] = {}
        in_deg: dict[tuple, int] = {}
        for a, b in edges:
            out_map.setdefault(a, []).append(b)
            in_deg[b] = in_deg.get(b, 0) + 1
        used = set()
        lines = []
        # start at vertices with out-degree > in-degree (chain heads)
        starts = [a for a in out_map if len(out_map[a]) > in_deg.get(a, 0)]
        for start_list in (starts, list(out_map)):
            for s in start_list:
                while any((s, n) not in used for n in out_map.get(s, [])):
                    chain = [s]
                    cur = s
                    while True:
                        nxts = [n for n in out_map.get(cur, []) if (cur, n) not in used]
                        if not nxts:
                            break
                        used.add((cur, nxts[0]))
                        cur = nxts[0]
                        chain.append(cur)
                    if len(chain) >= 2:
                        lines.append(np.array(chain))
        return lines
