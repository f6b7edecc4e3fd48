"""`ray job submit` entry point (north_rule: "run via ray job submit").

    ray job submit -- python -m s2_geometry_rust_ray.jobs tile \
        --input /root/testdata/sf0.001 --level 8 --out /tmp/tiles
    python -m s2_geometry_rust_ray.jobs pip --input ... --out ...
    python -m s2_geometry_rust_ray.jobs passthrough --images DIR --out DIR

Owns its Ray session (guarded init; never runs inside the driver's)."""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None):
    p = argparse.ArgumentParser(prog="s2_geometry_rust_ray.jobs")
    p.add_argument("pipeline", choices=["tile", "pip", "knn", "h3", "passthrough",
                                        "dedup", "sessions"])
    p.add_argument("--input", default="/root/testdata/sf0.001",
                   help="sf dir with the driver tables (or images dir for passthrough)")
    p.add_argument("--out", default=None, help="output parquet dir (else print count)")
    p.add_argument("--level", type=int, default=8)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


    import ray.data

    from .stages import exchange

    def lineitem_keys():
        import pyarrow.compute as pc

        ds = ray.data.read_parquet(
            f"{args.input}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
        )

        def add_key(batch):
            k = pc.add(pc.multiply(batch["l_orderkey"], 8),
                       pc.cast(batch["l_linenumber"], batch["l_orderkey"].type))
            return batch.append_column("k", k).select(["k"])

        return exchange.map_blocks(ds, add_key)

    from .pipelines import knn, pip, textops, tiling

    if args.pipeline == "tile":
        out = tiling.tile_counts(lineitem_keys(), "k", level=args.level)
    elif args.pipeline == "h3":
        out = tiling.h3_tile_counts(lineitem_keys(), "k", res=args.level)
    elif args.pipeline == "pip":
        out = pip.pip_join(lineitem_keys(), "k")
    elif args.pipeline == "knn":
        out = knn.knn_cell(lineitem_keys(), "k", k=args.k)
    elif args.pipeline == "dedup":
        ds = ray.data.read_parquet(f"{args.input}/documents.parquet",
                                   columns=["doc_id", "text"])
        out = textops.exact_dedup(ds)
    elif args.pipeline == "sessions":
        ds = ray.data.read_parquet(f"{args.input}/events.parquet",
                                   columns=["ts", "user_id"])
        out = textops.sessionize(ds)
    elif args.pipeline == "passthrough":
        from .pipelines import flagship

        man = flagship.indexed_passthrough(args.input, args.out or "/tmp/graft_out",
                                           tile_level=args.level)
        print(json.dumps({"pipeline": "passthrough",
                          "shards": len(man.rows())}))
        ray.shutdown()
        return 0

    if args.out:
        out.write_parquet(args.out)
        print(json.dumps({"pipeline": args.pipeline, "out": args.out}))
    else:
        print(json.dumps({"pipeline": args.pipeline, "rows": out.count()}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
