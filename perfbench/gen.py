"""Seeded input generators.  The engine receives only these tables.

Every generator draws from ``numpy.random.default_rng([seed, stream])`` with
its own stream number, so one seed gives the same inputs on every host and
two seeds give different ones.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BLOCK_BYTES = 2 << 20  # block count follows input size, not CPU count

# 2024-01-01T00:00:00 in microseconds, the start of the template events log
EPOCH_US = 1_704_067_200_000_000
DAY_US = 86_400_000_000
# the template events log's shape: events per user, days covered
EVENTS_PER_USER, DAYS = 66, 30
# share of documents that are edited copies of an earlier one
DUP_FRAC = 0.15

# the vocabulary of the engine's synthetic `documents` table
WORDS = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def keys(seed: int, n: int) -> pa.Table:
    """n int64 row keys; the engine derives (lat, lng) from each key."""
    return pa.table({"k": _rng(seed, 1).integers(0, 1 << 32, n, dtype=np.int64)})


def events(seed: int, n: int) -> pa.Table:
    """An events log shaped like the engine's `events` table: event_id in
    log order, timestamps increasing over DAYS days, uniform users."""
    rng = _rng(seed, 2)
    ts = np.sort(rng.integers(0, DAYS * DAY_US, n, dtype=np.int64)) + EPOCH_US
    return pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": rng.integers(0, max(1, n // EVENTS_PER_USER), n, dtype=np.int64),
    })


def documents(seed: int, n: int, hot: int) -> pa.Table:
    """Docs of 8-100 vocabulary words.  DUP_FRAC of them are edited copies
    of an earlier doc (near duplicates), and `hot` share one boilerplate
    text, so one LSH bucket per band holds `hot` docs.  Rows are shuffled."""
    rng = _rng(seed, 3)
    vocab = np.array(WORDS)
    texts: list[str] = []
    for _ in range(n - hot):
        if texts and rng.random() < DUP_FRAC:
            words = texts[int(rng.integers(len(texts)))].split()
            for j in rng.integers(0, len(words), 1 + int(rng.integers(3))):
                words[j] = vocab[rng.integers(len(vocab))]
            texts.append(" ".join(words) + " dup")
        else:
            texts.append(" ".join(vocab[rng.integers(0, len(vocab), int(rng.integers(8, 101)))]))
    texts += [" ".join(vocab[rng.integers(0, len(vocab), 40)])] * hot
    order = rng.permutation(n)
    return pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": pa.array([texts[i] for i in order], pa.string()),
    })


def blocks(table: pa.Table) -> list[pa.Table]:
    """Split a table into ~BLOCK_BYTES slices."""
    n_blocks = max(1, -(-table.nbytes // BLOCK_BYTES))
    step = -(-table.num_rows // n_blocks)
    return [table.slice(i, step) for i in range(0, table.num_rows, step)]
