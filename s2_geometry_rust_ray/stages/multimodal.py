"""Multimodal (image / audio / video) stages — row-local maps
(`exchange.map_blocks`) over opaque binary payload columns with typed
metadata.  Each stage is a callable built once where the plan is built.

The Ray-side plumbing (schema, batch sizing, stage signature, output layout)
is real and tested; the codec layer is gated: PNG decode is implemented
from scratch (sources/images.py), everything else (JPEG, audio, video
frames) raises NotImplementedError because no codec libraries exist in this
container — at deploy time, swap `_decode` for PIL/libjpeg/ffmpeg bindings
without touching the pipeline shape.

Scale notes: payload columns are WIDE — these stages use small batch_size
(payload bytes x batch_size x parallel tasks must fit worker heaps), take
Arrow batches (binary columns round-trip zero-copy; pandas would
objectify them), and emit only derived columns unless pass-through is
requested (the PSNR/caption invariants forbid rewriting payloads).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.images import decode_png
from .exchange import map_blocks, typed


def _decode(fmt: str, blob: bytes) -> np.ndarray:
    if fmt == "png":
        return decode_png(blob)
    raise NotImplementedError(
        f"no {fmt} codec in this environment; install PIL/ffmpeg bindings and "
        "extend stages/multimodal._decode"
    )


class ImageFeatures:
    """Stage: decode + cheap visual features (mean/std per channel).
    Setup (nothing heavy here, but model weights would go in __init__)
    runs once, where the plan is built."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        means = np.zeros((batch.num_rows, 3), dtype=np.float64)
        stds = np.zeros((batch.num_rows, 3), dtype=np.float64)
        ok = np.zeros(batch.num_rows, dtype=bool)
        fmts = batch["fmt"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        for i, (fmt, blob) in enumerate(zip(fmts, blobs)):
            try:
                px = _decode(fmt, blob)
                means[i] = px.reshape(-1, 3).mean(axis=0)
                stds[i] = px.reshape(-1, 3).std(axis=0)
                ok[i] = True
            except NotImplementedError:
                if self.strict:
                    raise
        return pa.table(
            {
                "image_id": batch["image_id"],
                "decode_ok": pa.array(ok),
                "mean_r": pa.array(means[:, 0]),
                "mean_g": pa.array(means[:, 1]),
                "mean_b": pa.array(means[:, 2]),
                "std_r": pa.array(stds[:, 0]),
                "std_g": pa.array(stds[:, 1]),
                "std_b": pa.array(stds[:, 2]),
            }
        )


class Resize:
    """Stage: decode -> nearest-neighbor resize -> re-encode PNG.
    Emits new payload column `bytes_resized` (originals untouched —
    invariant-preserving)."""

    def __init__(self, out_w: int, out_h: int):
        from ..sources.images import encode_png

        self.out_w, self.out_h = out_w, out_h
        self._encode = encode_png

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for fmt, blob in zip(batch["fmt"].to_pylist(), batch["bytes"].to_pylist()):
            px = _decode(fmt, blob)
            yi = (np.arange(self.out_h) * px.shape[0] // self.out_h).astype(int)
            xi = (np.arange(self.out_w) * px.shape[1] // self.out_w).astype(int)
            out.append(self._encode(px[yi][:, xi]))
        return batch.append_column("bytes_resized", pa.array(out, pa.binary()))


def image_features(ds, batch_size: int = 1024):
    """Feature-extraction pipeline (small batches: wide payload rows)."""
    return typed(ds, map_blocks(ds, ImageFeatures(), batch_size), [
        "image_id", ("decode_ok", pa.bool_()),
        *((c, pa.float64()) for c in ("mean_r", "mean_g", "mean_b",
                                      "std_r", "std_g", "std_b"))])


class PhashRecompute:
    """Stage: REAL PNG decode -> recompute the 64-bit perceptual
    hash from pixels.  The driver oracle compares the recomputed value
    against the table's stored phash column, so this is an oracle-checked
    end-to-end test of the binary-payload decode path (lossless codec =>
    bit-identical pixels => identical phash)."""

    def __init__(self):
        from ..sources.images import _phash

        self._phash = _phash

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = np.empty(batch.num_rows, dtype=np.int64)
        for i, (fmt, blob) in enumerate(
            zip(batch["fmt"].to_pylist(), batch["bytes"].to_pylist())
        ):
            out[i] = self._phash(_decode(fmt, blob))
        return pa.table({"image_id": batch["image_id"], "phash": out})


def phash_recompute(ds, batch_size: int = 1024):
    """(image_id, phash) recomputed from each image's pixels."""
    return typed(ds, map_blocks(ds, PhashRecompute(), batch_size),
                 ["image_id", ("phash", pa.int64())])
