"""Layered benchmark for the s2_geometry_rust_ray engine.

Run from the repository root:  python3 perfbench/run.py --workload tile_encode
--seed 1 --seconds 10 --trace 0.  See perfbench/README.md.
"""
