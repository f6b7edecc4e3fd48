"""s2_geometry_rust_ray — a Ray-Data-native spatial-join + tiling engine.

Reimplements the computational semantics of the reference S2 geometry library
(/root/reference, Mortoc/s2-geometry-rust — itself a port of Google's C++ S2)
as vectorized NumPy kernels over zero-copy Arrow batches of a Ray Data
Dataset, plus the distributed operators the reference lacks entirely:
point-in-polygon joins, per-cell tile assignment, kNN, dedup, raster<->vector.

Layout:
  functions/  pure vectorized kernels (coords, cellid, angles, geo, h3, text)
  geometry/   region types, coverer, loops/polygons, cell unions
  stages/     row-local kernels and the raw-Ray operators; every row-local
              map is exchange.map_blocks or a grouped reduce's `prepare`
  sources/    readers / synthetic table generation
  pipelines/  end-to-end composed pipelines
  state/      lineage manifests / resumable writes
  oracle/     DuckDB-SQL generators mirroring the kernels bit-exactly
"""

__version__ = "0.1.0"
