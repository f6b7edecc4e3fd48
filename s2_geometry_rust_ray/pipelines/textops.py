"""Training-data pipeline operators over the documents / events tables:
token stats, quality/lang scoring, exact dedup, MinHash-LSH near-dup,
fingerprinting, window aggregation, and the per-user event ops
(sessionize, as-of join, range join).

Each row-local op is one map kernel run by `exchange.map_blocks` (raw
tasks over a computed input, a `map_batches` fused with a lazy read), and
returns its declared schema; an op that needs a shuffle is a grouped
reduce from stages/agg.py, its row map the reduce's `prepare`, or a hash
exchange.
The three per-user event ops share ONE exchange, `_by_user`: a projection
in the split task, one lexsort per partition and a small numpy finish,
with no per-partition pandas.  The near-dup ops are `exchange.near_dup`
plus their bands, payload and verify (the 64-bit Hamming pair,
`hamming_near_dup`, serves SimHash here and phash in flagship.py).  The
SQL-oracle'd ops restrict themselves to cross-engine-identical operations
(ASCII regex, md5, integer sums) — see each docstring.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import text as T
from ..stages import agg, exchange


def _texts(batch: pa.Table) -> pd.Series:
    """ONLY the text column crosses into pandas-object land (the `.str`
    kernels in functions/text.py need Python-`re` semantics — the
    stopword regex has lookarounds RE2 can't run); every other column
    stays zero-copy Arrow.  The stages below all take and emit Arrow
    tables, so string ids, int keys and payloads never round-trip
    through pandas objects (r4 verdict finding #2)."""
    return batch.column("text").to_pandas()


def token_stats(ds):
    """(doc_id, n_chars, n_tokens, n_bpe_tokens) — oracle: length() +
    regexp_extract_all with the word and BPE-ish pretokenizer regexes."""

    def fn(batch: pa.Table) -> pa.Table:
        t = _texts(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": T.char_count(t),
                "n_tokens": T.token_count(t),
                "n_bpe_tokens": T.bpe_token_count(t),
            }
        )

    return exchange.typed(ds, exchange.map_blocks(ds, fn), [
        "doc_id", ("n_chars", pa.int64()), ("n_tokens", pa.int64()),
        ("n_bpe_tokens", pa.int64())])


def quality(ds):
    """(doc_id, lang, quality 0..1) — deterministic heuristic, rows-only."""

    def fn(batch: pa.Table) -> pa.Table:
        t = _texts(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_guess": pa.array(T.lang_id(t), pa.string()),
                "quality": np.round(T.quality_score(t), 6),
            }
        )

    return exchange.typed(ds, exchange.map_blocks(ds, fn), [
        "doc_id", ("lang_guess", pa.string()), ("quality", pa.float64())])


def exact_dedup(ds):
    """Exact dedup by content hash: (content_hash16, keep_id, n_dups).

    keep_id = min(doc_id) within each md5-16hex(text) group.  Scale path:
    the groupby key is the 16-hex hash (not the text), so the exchange
    carries 16-byte keys regardless of document size; the map side hashes
    and drops the text column immediately (column pruning).
    Oracle: GROUP BY substr(md5(text),1,16)."""

    def hash_stage(batch: pa.Table) -> pa.Table:
        h = [
            hashlib.md5(str(t).encode("utf-8")).hexdigest()[:16]
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "content_hash": pa.array(h, pa.string()),
                "keep_id": batch["doc_id"],
                "n_dups": np.ones(batch.num_rows, dtype=np.int64),
            }
        )

    return exchange.with_schema(agg.reduce_by_key(
        ds, "content_hash", {"keep_id": "min", "n_dups": "sum"},
        prepare=hash_stage), _EXACT_DEDUP)


_EXACT_DEDUP = pa.schema([("content_hash", pa.string()), ("keep_id", pa.int64()),
                          ("n_dups", pa.int64())])
_JACCARD_PAIRS = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("jaccard", pa.float64())])
_TERM_COUNTS = pa.schema([("term", pa.string()), ("n", pa.int64()),
                          ("rank", pa.int64())])
_SIMHASH_PAIRS = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                            ("hamming", pa.int64())])
# byte b of a 64-bit signature is (sig >> 8b) & 0xFF
_BYTE_SHIFTS = np.uint64(8) * np.arange(8, dtype=np.uint64)


def near_dup_pairs(ds, num_hashes: int = 32, band_size: int = 4,
                   threshold: float = 0.5, num_parts: int | None = None,
                   shingle_k: int = 5, shingle_mode: str = "word",
                   hot_bucket_cap: int = 1024):
    """MinHash-LSH near-duplicate pairs: (doc_a, doc_b, jaccard).

    An `exchange.near_dup` over: bands = shingle(5-gram words) -> md5 per
    distinct shingle -> num_hashes universal-hash permutations mod 2^31-1,
    batched across the whole block (functions/text.minhash_signatures_batch)
    -> integer band buckets (mod-p fold, functions/text.band_buckets — no
    per-doc string builds); payload = (doc_id, text); verify = exact
    Jaccard >= threshold.

    Scale path: NOTHING is materialized on the driver.  The band exchange
    carries (doc_id, int64 bucket) rows only; candidate pairs are deduped
    distributed (co-located by hash(doc_a) — identical pairs share doc_a);
    candidate texts arrive via two hash-partitioned equi-joins against the
    documents table, so each partition holds only its own candidates'
    texts.  jaccard = n_inter/n_union is a single IEEE division of exact
    integers => bit-exact vs the DuckDB oracle (oracle/sql.q_near_dup_pairs
    mirrors the full LSH pipeline incl. the integer band fold)."""
    sentinel = np.uint64(T.MINHASH_P)

    def bands(batch: pa.Table):
        sig = T.minhash_signatures_batch(
            _texts(batch), num_hashes, shingle_k, shingle_mode
        )
        ok = sig[:, 0] != sentinel  # no shingles -> cannot near-dup
        return (batch["doc_id"].filter(pa.array(ok)),
                T.band_buckets(sig[ok], band_size))

    def verify(batch: pa.Table):
        # vectorized exact-Jaccard: shingle each DISTINCT text once (pairs
        # are co-located by doc_a and boilerplate corpora repeat texts
        # across many pairs) into a u64 md5-hash array — same distinct
        # cardinalities as the raw shingle sets — then count every pair's
        # intersection in ONE (pair, value) lexsort + adjacent-equal scan
        # over the whole partition.  No per-pair Python set ops.
        m = batch.num_rows
        texts = np.concatenate(
            [batch["text_a"].to_numpy(zero_copy_only=False),
             batch["text_b"].to_numpy(zero_copy_only=False)]
        )
        codes, uniq = pd.factorize(texts)
        a_id, b_id = codes[:m], codes[m:]
        hl = [
            T.shingle_hashes(str(t), shingle_k, shingle_mode) for t in uniq
        ]
        lengths = np.array([len(h) for h in hl], dtype=np.int64)
        vals = np.concatenate(hl)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        # one computation per distinct TEXT pair, not per row — a hot
        # boilerplate bucket emits ~n^2/2 rows that all share one text
        # pair; identical-text pairs are 1.0 by definition (union==0 too)
        pair_key = a_id.astype(np.int64) * len(uniq) + b_id
        upairs, uidx = np.unique(pair_key, return_inverse=True)
        ua = (upairs // len(uniq)).astype(np.int64)
        ub = (upairs % len(uniq)).astype(np.int64)
        ja_u = np.ones(len(upairs), dtype=np.float64)
        ne = np.nonzero(ua != ub)[0]
        if len(ne):
            ga, gb = ua[ne], ub[ne]
            mu = len(ne)

            def gather(tid: np.ndarray):
                # ragged gather: pair index + value slice per pair's text
                ln = lengths[tid]
                tot = int(ln.sum())
                pid = np.repeat(np.arange(mu, dtype=np.int64), ln)
                starts = np.repeat(offsets[:-1][tid], ln)
                run0 = np.concatenate(([0], np.cumsum(ln)[:-1]))
                within = (
                    np.arange(tot, dtype=np.int64) - np.repeat(run0, ln)
                )
                return pid, vals[starts + within]

            pa_pid, va = gather(ga)
            pb_pid, vb = gather(gb)
            pid_all = np.concatenate([pa_pid, pb_pid])
            val_all = np.concatenate([va, vb])
            order = np.lexsort((val_all, pid_all))
            pid_s, val_s = pid_all[order], val_all[order]
            eq = (pid_s[1:] == pid_s[:-1]) & (val_s[1:] == val_s[:-1])
            n_inter = np.bincount(pid_s[:-1][eq], minlength=mu)
            n_union = lengths[ga] + lengths[gb] - n_inter
            ja_u[ne] = np.where(
                n_union > 0,
                n_inter / np.where(n_union > 0, n_union, 1),
                1.0,
            )
        ja = ja_u[uidx]
        keep = ja >= threshold
        mask = pa.array(keep)
        return batch["doc_a"].filter(mask), batch["doc_b"].filter(mask), ja[keep]

    return exchange.near_dup(
        ds, "doc_id", bands, lambda b: b.select(["doc_id", "text"]), verify,
        _JACCARD_PAIRS, num_parts, hot_bucket_cap,
    )


def hamming_near_dup(ds, id_col: str, signature, schema: pa.Schema,
                     max_hamming: int, num_parts: int | None,
                     hot_bucket_cap: int):
    """Near-duplicate pairs by the Hamming distance of a 64-bit signature,
    ``signature(block) -> (ids, int64 signatures)`` (rows it leaves out
    are never paired): rows of `schema` (id a, id b, hamming) with hamming
    <= max_hamming.  The `exchange.near_dup` of `simhash_near_dup` and
    `flagship.image_phash_near_dup`.

    Candidates share one of the signature's 8 8-bit bands (bucket
    band*256 + byte, the SQL twins' expression); a pair within hamming 7
    differs in at most 7 bands, so some band matches: no false negatives
    for max_hamming <= 7 (k+1 bands guarantee radius k).  Verification is
    exact popcount(xor)."""
    def bands(batch: pa.Table):
        sig = batch["sig"].to_numpy(zero_copy_only=False)
        byte = (sig.view(np.uint64)[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)
        return batch[id_col], np.arange(8, dtype=np.int64) * 256 + byte.astype(np.int64)

    def verify(batch: pa.Table):
        ham = T.hamming64(
            batch["sig_a"].to_numpy(zero_copy_only=False).view(np.uint64),
            batch["sig_b"].to_numpy(zero_copy_only=False).view(np.uint64))
        keep = ham <= max_hamming
        mask = pa.array(keep)
        return batch.column(0).filter(mask), batch.column(1).filter(mask), ham[keep]

    def signatures(batch: pa.Table) -> pa.Table:
        ids, sig = signature(batch)
        return pa.table({id_col: ids, "sig": sig})

    # each signature once: bands and payload both read the (id, sig) table
    return exchange.near_dup(exchange.map_blocks(ds, signatures), id_col, bands,
                             None, verify, schema, num_parts,
                             hot_bucket_cap)


def simhash_table(ds):
    """(doc_id, simhash) — 64-bit SimHash per doc (int64 view of the
    uint64 signature, kept int64 so Ray sort/exchange never pickles).
    Oracle: oracle/sql.q_simhash (pure integer votes; bit-exact)."""

    def fn(batch: pa.Table) -> pa.Table:
        sig = T.simhash64_batch(_texts(batch))
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": sig.view(np.int64)}
        )

    return exchange.typed(ds, exchange.map_blocks(ds, fn),
                          ["doc_id", ("simhash", pa.int64())])


def simhash_near_dup(ds, max_hamming: int = 7, num_parts: int | None = None,
                     hot_bucket_cap: int = 1024):
    """SimHash near-duplicate pairs: (doc_a, doc_b, hamming).

    `hamming_near_dup` over the 64-bit SimHash of each doc's text (8
    8-bit bands, no false negatives for max_hamming <= 7, exact
    popcount(xor) verify).  Empty docs (simhash 0) are excluded from
    banding.  Integer-only => bit-exact vs oracle/sql.q_simhash_near_dup."""

    def signature(batch: pa.Table):
        sig = T.simhash64_batch(_texts(batch))
        ok = sig != np.uint64(0)
        return batch["doc_id"].filter(pa.array(ok)), sig[ok].view(np.int64)

    return hamming_near_dup(ds, "doc_id", signature, _SIMHASH_PAIRS,
                            max_hamming, num_parts, hot_bucket_cap)


def fingerprints(ds):
    """(doc_id, fingerprint) rolling-hash winnowing fingerprint (rows-only)."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"],
             "fingerprint": T.fingerprint(_texts(batch))}
        )

    return exchange.typed(ds, exchange.map_blocks(ds, fn),
                          ["doc_id", ("fingerprint", pa.int64())])


def term_counts(ds, top_n: int = 100):
    """Global corpus term frequencies: top `top_n` lowercased tokens by
    (count desc, term asc).  Oracle: GROUP BY over unnested
    regexp_extract_all tokens + row_number truncation.

    Physical plan: per-batch token explode + LOCAL combine (one row per
    distinct term per batch — the map-side combine that keeps the exchange
    proportional to vocabulary, not corpus size), the hash-partitioned
    reduce (stages/agg), then the one top-k (`agg.grouped_topk`) on the
    empty key: its map-side kernel cuts each partition's counts to their
    top `top_n` in the split task, and one partition task takes the
    global top `top_n` and ranks it.  Exact: a term lives in exactly one
    partition, so every global top-N term is in its partition's top-N.
    At 100 TB the vocabulary is the shuffle payload; Zipf skew is absorbed
    by the map-side combine (a hot term contributes one row per block)."""
    def explode_count(batch: pa.Table) -> pa.Table:
        tokens = _texts(batch).str.lower().str.findall(T.TOKEN_RE)
        flat = tokens.explode().dropna()
        vc = flat.value_counts()
        return pa.table(
            {"term": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             "n": vc.to_numpy(dtype=np.int64)}
        )

    counts = agg.reduce_by_key(ds, "term", {"n": "sum"}, prepare=explode_count)
    return exchange.with_schema(agg.grouped_topk(
        counts, [], [("n", "descending"), ("term", "ascending")], top_n),
        _TERM_COUNTS)


def _ts_us(batch: pa.Table) -> np.ndarray:
    """The events `ts` column as int64 epoch microseconds."""
    ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
    return ts.astype(np.int64)


def _by_user(ds, num_parts: int | None, project, schema: pa.Schema, finish):
    """The one per-user exchange behind sessionize, the as-of join and the
    range join.  `project` (block -> table led by `user_id`) runs in the
    split task of ONE `exchange.hash_exchange_apply` by user_id; each
    partition is sorted by one `np.lexsort` over the projected columns, in
    their order, and `finish(*sorted numpy columns)` returns the output
    columns in `schema` order; an empty result is one empty block of
    `schema`."""

    def per_partition(tbl: pa.Table) -> pa.Table:
        cols = [c.to_numpy() for c in tbl.columns]
        order = np.lexsort(cols[::-1])
        return pa.table(finish(*(c[order] for c in cols)), schema=schema)

    return exchange.with_schema(exchange.hash_exchange_apply(
        ds, "user_id", num_parts, per_partition, map_fn=project
    ), schema)


def sessionize(ds, gap_minutes: int = 30, num_parts: int | None = None):
    """Session windows over the events log: per user, events sorted by ts
    split into sessions at gaps > gap_minutes.  Output (user_id,
    n_sessions, n_events) — integer-only, so the SQL oracle (lag() +
    cumulative CASE sum) matches bit-exactly.

    Physical plan: the one per-user exchange (`_by_user`).  The (user_id,
    ts_us) projection runs in the split task (16 B per row), and the
    shard narrowing of `exchange.co_partition` writes user_id as uint16
    offsets where a shard's ids span < 65536, so ~10 B per row cross the
    exchange; each partition, sorted by (user, ts), is cut into sessions
    at a new user or a gap, in numpy."""
    gap_us = gap_minutes * 60_000_000
    schema = pa.schema([("user_id", pa.int64()), ("n_sessions", pa.int64()),
                        ("n_events", pa.int64())])

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": batch["user_id"].to_numpy(zero_copy_only=False),
             "ts_us": _ts_us(batch)}
        )

    def finish(u: np.ndarray, t: np.ndarray):
        new_user = np.r_[True, u[1:] != u[:-1]]
        new_session = new_user | np.r_[True, np.diff(t) > gap_us]
        starts = np.flatnonzero(new_user)
        return (u[starts],
                np.add.reduceat(new_session.astype(np.int64), starts),
                np.diff(np.r_[starts, len(u)]))

    return _by_user(ds, num_parts, project, schema, finish)


def _left_right(left_type: str, right_type: str):
    """Projection shared by the as-of and range joins: the rows of the two
    event types as (user_id, ts_us, kind int8, event_id), kind 0 for
    `left_type` and 1 for `right_type`.  Sorted in that column order, a
    user's lefts precede the rights at an equal timestamp, and rights at
    one timestamp ascend by event_id."""

    def project(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == left_type) | (et == right_type)
        return pa.table(
            {"user_id": batch["user_id"].to_numpy(zero_copy_only=False)[keep],
             "ts_us": _ts_us(batch)[keep],
             "kind": (et[keep] != left_type).astype(np.int8),
             "event_id": batch["event_id"].to_numpy(zero_copy_only=False)[keep]}
        )

    return project


def asof_join_events(ds, left_type: str = "purchase", right_type: str = "view",
                     num_parts: int | None = None):
    """As-of join over the events log: each `left_type` event matched to the
    most recent STRICTLY-earlier `right_type` event of the same user; among
    right events at that timestamp the largest event_id wins.  Output
    (purchase_id, view_id) inner rows — integer-only, bit-exact vs
    DuckDB's ASOF JOIN over the max-event_id-per-(user, ts) right side.

    Physical plan: the one per-user exchange (`_by_user`) of the shared
    (user_id, ts_us, kind, event_id) projection.  In each sorted
    partition a running maximum gives every row the index of the last
    right row at or before it; a left row keeps it when it is the same
    user's.  Lefts sort before rights at an equal timestamp, so the match
    is strictly earlier, and the last right of a tie has the largest
    event_id."""
    schema = pa.schema([("purchase_id", pa.int64()), ("view_id", pa.int64())])

    def finish(u, t, kind, eid):
        last = np.maximum.accumulate(np.where(kind == 1, np.arange(len(u)), -1))
        j = np.maximum(last, 0)
        hit = (kind == 0) & (last >= 0) & (u[j] == u)
        return eid[hit], eid[j[hit]]

    return _by_user(ds, num_parts, _left_right(left_type, right_type),
                    schema, finish)


def sliding_window_counts(ds, window_minutes: int = 60, hop_minutes: int = 15):
    """SLIDING (hopping) windows over events: every event lands in
    window_minutes/hop_minutes overlapping windows; output (event_type,
    window_s, n, sum_floor_value) — the hopping-window companion to the
    tumbling window_counts.  Integer arithmetic only (epoch-us floor
    division), so the SQL twin (cross join over the hop offsets) is
    bit-exact.

    Physical plan: vectorized n_hops-fold row replication in the grouped
    reduce's `prepare` (the fan-out happens AFTER the projection to 3
    narrow columns), then the map-side combine + grouped reduce.
    window_counts (tumbling) is the n_hops=1 special case and delegates
    here.

    The hop grid must tile the window exactly: a non-divisible pair would
    need a variable per-event window count (and hop > window would emit
    nothing) — rejected up front rather than silently mis-windowed."""
    if window_minutes % hop_minutes != 0 or window_minutes < hop_minutes:
        raise ValueError(
            f"window_minutes ({window_minutes}) must be a positive multiple "
            f"of hop_minutes ({hop_minutes})"
        )
    n_hops = window_minutes // hop_minutes
    hop_us = hop_minutes * 60_000_000

    hop_s = hop_minutes * 60
    out = pa.schema([("event_type", pa.string()), ("window_s", pa.int64()),
                     ("n", pa.int64()), ("sum_floor_value", pa.int64())])

    def fn(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        epoch_us = ts.astype(np.int64)
        base = epoch_us // hop_us * hop_us  # latest hop-aligned start <= ts
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        val = np.floor(batch["value"].to_numpy(zero_copy_only=False)).astype(np.int64)
        # window starts base - j*hop for j in 0..n_hops-1 (every window
        # containing ts), replicated vectorized
        offs = (np.arange(n_hops, dtype=np.int64) * hop_us)[None, :]
        window_s = ((base[:, None] - offs) // 1_000_000).ravel()
        # per-batch EXACT integer composite: factorized event-type code in
        # the high bits, biased hop index in the low 40 (window_s is
        # hop-aligned, so window_s // hop_s round-trips; the 2^39 bias
        # covers pre-1970 timestamps).  No string keys anywhere.
        bias = np.int64(1 << 39)
        idx = window_s // hop_s + bias
        if len(idx) and (idx.min() < 0 or idx.max() >= (1 << 40)):
            raise ValueError("window hop index out of 40-bit range")
        codes, uniq = pd.factorize(et)
        comp = (np.repeat(codes.astype(np.int64), n_hops) << np.int64(40)) | idx
        order = np.argsort(comp, kind="stable")
        comp_s = comp[order]
        starts = np.concatenate(
            ([0], np.nonzero(comp_s[1:] != comp_s[:-1])[0] + 1)
        )
        ucomp = comp_s[starts]
        n = np.diff(np.concatenate((starts, [len(comp_s)])))
        sv = np.add.reduceat(np.repeat(val, n_hops)[order], starts)
        return pa.table(
            {
                "event_type": pa.array(
                    np.asarray(uniq, dtype=object)[ucomp >> np.int64(40)],
                    type=pa.string(),
                ),
                "window_s": ((ucomp & np.int64((1 << 40) - 1)) - bias) * hop_s,
                "n": n.astype(np.int64),
                "sum_floor_value": sv,
            }
        )

    # cross-batch merge: exact composite GROUP BY (event_type, window_s)
    return exchange.with_schema(agg.reduce_by_key(
        ds, ["event_type", "window_s"],
        {"n": "sum", "sum_floor_value": "sum"}, prepare=fn,
    ), out)


def window_counts(ds):
    """Tumbling 1-hour windows over events: (event_type, window_s, n,
    sum_floor_value).  The n_hops=1 special case of the sliding-window
    kernel — one implementation, two grids (the SQL twin matches because
    us // 3600e6 * 3600e6 // 1e6 == epoch(date_trunc('hour', ts)))."""
    return sliding_window_counts(ds, window_minutes=60, hop_minutes=60)


def range_join_counts(ds, left_type: str = "purchase",
                      right_type: str = "view", window_minutes: int = 60,
                      num_parts: int | None = None):
    """Range (interval) join over the events log: for each `left_type`
    event, the number of same-user `right_type` events with ts in
    [left_ts - window, left_ts).  Output (purchase_id, n_views) — every
    left event appears, 0 when no match (LEFT-join semantics).  Integer
    count of integer-microsecond comparisons => bit-exact vs the DuckDB
    interval-join twin.

    Physical plan: the one per-user exchange (`_by_user`) of the as-of
    join's projection, then cumulative counts per partition — no per-user
    loop, no pair blow-up: count(lo <= t < hi) = C(hi) - C(lo) where C(x)
    = number of right events strictly before (user, x) in the
    lexicographic order; the per-user baselines cancel because both
    probes live in the same user's run.  C(hi) is the running count of
    rights in the shared sort order (lefts sort before equal-timestamp
    rights); C(lo) comes from one more lexsort, with each left moved to
    ts - window, again before equal-timestamp rights — the twin's
    half-open window."""
    win_us = np.int64(window_minutes) * 60_000_000
    schema = pa.schema([("purchase_id", pa.int64()), ("n_views", pa.int64())])

    def finish(u, t, kind, eid):
        left = kind == 0
        c_hi = np.cumsum(kind, dtype=np.int64)
        order = np.lexsort((kind, np.where(left, t - win_us, t), u))
        c_lo = np.empty_like(c_hi)
        c_lo[order] = np.cumsum(kind[order], dtype=np.int64)
        return eid[left], (c_hi - c_lo)[left]

    return _by_user(ds, num_parts, _left_right(left_type, right_type),
                    schema, finish)


def quantiles_by_key(ds, key_col: str = "event_type", val_col: str = "value",
                     qs: tuple = (50, 90, 99)):
    """EXACT per-key discrete quantiles of a value column: for each key,
    the element of rank ceil(q/100 * n) (1-indexed, values ascending).
    Output (event_type, n, p50, p90, p99).  Selects ACTUAL stored doubles
    (no arithmetic on values), so the SQL twin (row_number + count window)
    is bit-exact.

    Scale path: a map-side (key, value) -> count combine bounds the
    exchange by the number of DISTINCT (key, value) pairs (real-world
    value columns are low-cardinality: prices, scores, durations), NOT by
    the row count; the per-key quantile walk is a cumsum over the distinct
    values of one key co-located by the grouped reduce.  No driver
    materialization; no assumption that one key's raw rows fit anywhere."""
    def to_pairs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch[key_col],
                val_col: batch[val_col],
                "cnt": np.ones(batch.num_rows, dtype=np.int64),
            }
        )

    counts = agg.reduce_by_key(ds, [key_col, val_col], {"cnt": "sum"},
                               prepare=to_pairs)

    def finish(tbl: pa.Table) -> pa.Table:
        k = np.asarray(tbl[key_col].to_numpy(zero_copy_only=False))
        v = tbl[val_col].to_numpy(zero_copy_only=False)
        c = tbl["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, k))
        k, v, c = k[order], v[order], c[order]
        starts = np.concatenate(([0], np.nonzero(k[1:] != k[:-1])[0] + 1))
        ends = np.concatenate((starts[1:], [len(k)]))
        out_k, out_n = [], []
        out_q = {q: [] for q in qs}
        for s, e in zip(starts, ends):
            cs = np.cumsum(c[s:e])
            n = int(cs[-1])
            out_k.append(k[s])
            out_n.append(n)
            for q in qs:
                rank = -(-q * n // 100)  # ceil(q*n/100), 1-indexed
                out_q[q].append(v[s + np.searchsorted(cs, rank)])
        cols = {key_col: pa.array(out_k, pa.string()),
                "n": np.asarray(out_n, dtype=np.int64)}
        for q in qs:
            cols[f"p{q}"] = np.asarray(out_q[q], dtype=np.float64)
        return pa.table(cols)

    # tiny second exchange: co-locate each key's distinct values
    return exchange.with_schema(exchange.hash_exchange_apply(
        counts, key_col, None, finish
    ), pa.schema([(key_col, pa.string()), ("n", pa.int64())]
                 + [(f"p{q}", pa.float64()) for q in qs]))


def hll_rho_hist(ds, key_col: str = "event_type", val_col: str = "user_id",
                 b: int = 12):
    """HyperLogLog register state per key, as an EXACTLY-verifiable
    histogram: (key, rho, n_buckets) where rho is each bucket's max
    leading-zero rank and n_buckets counts buckets sharing it (empty
    buckets omitted; n_empty = 2^b - sum(n_buckets)).

    The sketch state — unlike the float estimate — is pure integer
    arithmetic (multiplicative mod-2^64 hash, top-b bucket, suffix bit
    length), so the SQL twin (HUGEINT product, integer div/mod,
    length(bin())) matches bit-exactly; `hll_estimate` derives the
    cardinality estimate from the histogram driver-side (tested within
    HLL's published error vs exact distinct).

    Scale path: the register table is the re-reducible max-aggregate over
    (key, bucket) — the exchange carries at most keys x 2^b rows no
    matter the input size; the histogram is a second tiny sum.
    This is the approximate-distinct operator for cardinalities where
    distinct_count_by_key's exact exchange would be the bottleneck."""
    # suffix must stay < 2^53 so the f64 conversion inside the frexp
    # bit-length is lossless: b <= 10 gives 54+-bit suffixes that can
    # round UP across a power of two and corrupt rho
    assert 11 <= b <= 16, "b must be in [11, 16] for the exact frexp path"

    suffix_bits = 64 - b
    mask = np.uint64((1 << suffix_bits) - 1)

    from ..functions.hashing import key_hash

    def to_regs(batch: pa.Table) -> pa.Table:
        # splitmix64 for an integer value, not a single multiplicative
        # hash: see functions/hashing.py (a Fibonacci hash caps the
        # leading-zero ranks of sequential ids — HLL measured 53% low at
        # n=47k)
        h = key_hash(batch[val_col])
        bucket = (h >> np.uint64(suffix_bits)).astype(np.int64)
        suffix = h & mask
        # bit_length via frexp is EXACT for suffix < 2^53 (the f64
        # conversion is lossless below the mantissa width)
        _, e = np.frexp(suffix.astype(np.float64))
        rho = np.where(suffix == 0, suffix_bits + 1,
                       suffix_bits - e + 1).astype(np.int64)
        return pa.table(
            {key_col: batch[key_col], "bucket": bucket, "rho": rho}
        )

    def to_hist(batch: pa.Table) -> pa.Table:
        return pa.table(
            {key_col: batch[key_col], "rho": batch["rho"],
             "n_buckets": np.ones(batch.num_rows, dtype=np.int64)}
        )

    regs = agg.reduce_by_key(ds, [key_col, "bucket"], {"rho": "max"},
                             finish=to_hist, prepare=to_regs)
    return exchange.with_schema(
        agg.reduce_by_key(regs, [key_col, "rho"], {"n_buckets": "sum"}),
        pa.schema([(key_col, pa.string()), ("rho", pa.int64()),
                   ("n_buckets", pa.int64())]))


def hll_estimate(hist, b: int = 12) -> dict:
    """Cardinality estimates from an hll_rho_hist result (pandas frame or
    arrow table): standard HLL estimator with the small-range linear
    counting correction.  Returns {key: estimate}."""
    if hasattr(hist, "to_pandas"):
        hist = hist.to_pandas()
    m = 1 << b
    alpha = 0.7213 / (1.0 + 1.079 / m)
    out = {}
    keys = hist[hist.columns[0]].to_numpy()
    rhos, ns = hist["rho"].to_numpy(), hist["n_buckets"].to_numpy()
    for key in np.unique(keys):
        rho, n = rhos[keys == key], ns[keys == key]
        n_empty = m - int(n.sum())
        s = float((n * np.exp2(-rho.astype(np.float64))).sum()) + n_empty
        est = alpha * m * m / s
        if est <= 2.5 * m and n_empty > 0:
            est = m * np.log(m / n_empty)
        out[key] = float(est)
    return out


def sample_by_hash(ds, key_col: str, frac: float, num: int | None = None,
                   den: int | None = None):
    """Deterministic, reproducible sampling: keep rows where
    key_hash(key) < frac * 2^64 — the same keys survive on every run,
    any engine, any partitioning (the fixture-sampling primitive for
    100 TB pipelines: sample once, join debug runs against it later).
    Pass num/den to pin an exact rational fraction (frac is then
    ignored); the threshold floor(2^64 * num / den) is computed in exact
    integer arithmetic so the SQL twin matches bit-exactly.

    `functions/hashing.key_hash` is splitmix64 for an integer key, which
    `sql_splitmix64_ctes` reproduces in DuckDB.  A string key goes through
    the engine's string hash (a splitmix64 fold over its UTF-8 bytes): the
    same on every worker, run and library version, but with no SQL twin
    yet.  A null key is never kept.  Float keys (what pandas hands back for
    nullable ints) are rejected: ids >= 2^53 would round BEFORE hashing
    and NaN has no integer value, both silently breaking the same-keys
    guarantee."""
    import pyarrow as pa

    from ..functions.hashing import key_hash

    if (num is None) != (den is None):
        raise ValueError("pass BOTH num and den (or neither)")
    if num is None:
        num, den = int(round(frac * (1 << 32))), 1 << 32
    if num >= den:  # keep-everything: 2^64 overflows uint64, and h < thr
        return ds  # would wrongly drop the max-hash key — skip the filter
    if num <= 0:
        num = 0
    thr = np.uint64(((1 << 64) * num) // den)

    def fn(batch: pa.Table) -> pa.Table:
        k = batch[key_col]
        if pa.types.is_floating(k.type):
            raise TypeError(
                f"sample_by_hash needs an integer or string key column; "
                f"got {k.type} for {key_col!r}"
            )
        return batch.filter(pa.array(key_hash(k) < thr))

    return exchange.with_schema(exchange.map_blocks(ds, fn),
                                exchange.known_schema(ds))
