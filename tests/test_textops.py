"""Text / dedup / window / similarity operators vs brute-force oracles."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from s2_geometry_rust_ray.functions import text as T

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_token_count_matches_re(docs):
    import re

    n = T.token_count(docs["text"])
    for i in [0, 7, 99]:
        assert n[i] == len(re.findall(r"[A-Za-z0-9]+", docs["text"][i]))


def test_minhash_estimates_jaccard(docs):
    """MinHash signature agreement rate approximates true Jaccard."""
    a, b = docs["text"][0], docs["text"][0] + " extra tail words here"
    sa = T.minhash_signature(a, 64)
    sb = T.minhash_signature(b, 64)
    est = (sa == sb).mean()
    true = T.jaccard(T.shingles(a), T.shingles(b))
    assert abs(est - true) < 0.25
    # identical docs -> identical signatures
    assert np.array_equal(T.minhash_signature(a, 32), T.minhash_signature(a, 32))


def test_near_dup_pairs_vs_bruteforce(ray_session, docs):
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    got = textops.near_dup_pairs(ds, threshold=0.5).to_pandas()
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    # brute force all-pairs jaccard
    sh = [T.shingles(t) for t in docs["text"]]
    ids = docs["doc_id"].to_numpy()
    brute = set()
    high = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            ja = T.jaccard(sh[i], sh[j])
            if ja >= 0.5:
                brute.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
            if ja >= 0.9:
                high.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    # no false positives (every reported pair is a true near-dup)
    assert got_pairs <= brute
    # high-similarity pairs are essentially always caught by some band
    assert high <= got_pairs


def test_exact_dedup_counts(ray_session, docs):
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    got = textops.exact_dedup(ds).to_pandas()
    truth = docs.groupby("text").agg(keep_id=("doc_id", "min"), n=("doc_id", "size"))
    assert got["n_dups"].sum() == len(docs)
    assert len(got) == docs["text"].nunique()
    assert sorted(got["keep_id"]) == sorted(truth["keep_id"])


def test_ann_topk_matches_brute(ray_session):
    import ray.data

    from s2_geometry_rust_ray.stages import simsearch

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    rng = np.random.default_rng(42)
    q = rng.normal(size=(10, 64)).astype("float32")
    got = simsearch.ann_topk(ds, q, np.arange(10), k=10).to_pandas()
    # brute force: single batch through the same kernel
    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    stage = simsearch.TopKScan(q, np.arange(10), 10)
    brute = simsearch.merge_topk(stage(tbl), 10).to_pandas()
    a = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = brute.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert np.array_equal(a["vec_id"].values, b["vec_id"].values)
    assert np.allclose(a["cosine"].values, b["cosine"].values, atol=1e-6)


def test_ann_ivf_recall(ray_session):
    import ray.data

    from s2_geometry_rust_ray.stages import simsearch

    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = simsearch.batch_embeddings(tbl)
    cent = simsearch.train_centroids(emb, 16)
    rng = np.random.default_rng(1)
    q = rng.normal(size=(5, 64)).astype("float32")
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ivf = simsearch.ann_topk_ivf(ds, q, np.arange(5), cent, k=10, nprobe=6).to_pandas()
    brute = simsearch.merge_topk(
        simsearch.TopKScan(q, np.arange(5), 10)(tbl), 10
    ).to_pandas()
    # recall@10 of IVF with nprobe=6/16 should be decent
    rec = []
    for qi in range(5):
        g = set(ivf[ivf.query_id == qi]["vec_id"])
        b = set(brute[brute.query_id == qi]["vec_id"])
        rec.append(len(g & b) / len(b))
    assert np.mean(rec) >= 0.6, rec


def _assert_ivf_indexed_matches(full, indexed):
    """The same vec id at every (query, rank), and cosines equal up to
    float32 matmul rounding: a 64-term float32 dot of unit vectors summed
    in another order moves by a few float32 ulps of 1."""
    full = full.sort_values(["query_id", "rank"]).reset_index(drop=True)
    indexed = indexed.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(full) > 0
    for c in ["query_id", "rank", "vec_id"]:
        assert np.array_equal(full[c].values, indexed[c].values), c
    diff = np.abs(full["cosine"].values - indexed["cosine"].values)
    assert diff.max() <= 8 * np.finfo(np.float32).eps, diff.max()


def test_ann_ivf_indexed_matches_unindexed(ray_session, tmp_path):
    """The bucket-partitioned index path returns the full-scan IVF path's
    rows (same probe set, same per-row bucket argmax; only the I/O is
    pruned) up to float32 rounding of the cosines: the scan's BLAS
    summation order depends on the batch's row count, and the indexed
    read cuts different batches.  Checked here at sf0.001, and through
    the two driver queries on the sf0.01 documents, where two cosines
    differ in their low bits."""
    import importlib
    import os

    import ray.data

    from s2_geometry_rust_ray.stages import simsearch

    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = simsearch.batch_embeddings(tbl)
    cent = simsearch.train_centroids(emb, 16)
    rng = np.random.default_rng(1)
    q = rng.normal(size=(5, 64)).astype("float32")
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    full = simsearch.ann_topk_ivf(ds, q, np.arange(5), cent, k=10, nprobe=4)

    idx_dir = str(tmp_path / "ivf_idx")
    ds2 = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    simsearch.build_ivf_index(ds2, cent, idx_dir)
    # only probed bucket dirs should be read; assert the layout exists
    assert any(d.startswith("ivf_bucket=") for d in os.listdir(idx_dir))
    indexed = simsearch.ann_topk_ivf_indexed(
        idx_dir, q, np.arange(5), cent, k=10, nprobe=4)
    _assert_ivf_indexed_matches(full.to_pandas(), indexed.to_pandas())

    queries = importlib.import_module("__ray_entry__").queries()
    sf = SF.replace("sf0.001", "sf0.01")
    _assert_ivf_indexed_matches(queries["ann_ivf_topk"](sf).to_pandas(),
                                queries["ann_ivf_indexed_topk"](sf))


def test_window_counts_total(ray_session):
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    ds = ray.data.read_parquet(f"{SF}/events.parquet", columns=["ts", "event_type", "value"])
    got = textops.window_counts(ds).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    assert got["n"].sum() == len(ev)
    # windows are hour-aligned
    assert (got["window_s"] % 3600 == 0).all()


def test_lang_and_quality_deterministic(docs):
    q1 = T.quality_score(docs["text"][:100])
    q2 = T.quality_score(docs["text"][:100])
    assert np.array_equal(q1, q2)
    assert ((q1 >= 0) & (q1 <= 1)).all()
    l1 = T.lang_id(docs["text"][:100])
    assert set(np.unique(l1)) <= {"en", "de", "fr", "es", "und"}


def test_simhash_properties(docs):
    a = docs["text"][0]
    s1 = T.simhash64(a)
    s2 = T.simhash64(a)
    assert s1 == s2
    # small edit -> small hamming; unrelated docs -> larger hamming (usually)
    near = T.hamming64(np.array([s1]), np.array([T.simhash64(a + " tail")]))[0]
    assert near <= 16
    assert T.simhash64("") == np.uint64(0)
    # popcount sanity
    assert T.popcount64(np.array([0, 1, 3, 2**63], dtype=np.uint64)).tolist() == [0, 1, 2, 1]


def test_simhash_near_dup_vs_bruteforce(ray_session, docs):
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    got = textops.simhash_near_dup(ds, max_hamming=6).to_pandas()
    sigs = {int(i): T.simhash64(str(t)) for i, t in zip(docs["doc_id"], docs["text"])}
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    brute = set()
    ids = sorted(sigs)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if sigs[a] == 0 or sigs[b] == 0:
                continue
            if int(T.hamming64(np.array([sigs[a]]), np.array([sigs[b]]))[0]) <= 6:
                brute.add((a, b))
    # pigeonhole: hamming <= 6 < 16 guarantees a shared 16-bit band
    assert got_pairs == brute
    for _, row in got.iterrows():
        assert row["hamming"] <= 6


def test_embedding_near_dup(ray_session):
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.stages import simsearch

    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 64))
    # 10 near-duplicate pairs (tiny perturbations) + 20 unrelated vectors
    pert = base[:10] + rng.normal(scale=0.01, size=(10, 64))
    emb = np.concatenate([base, pert]).astype(np.float64)
    ids = np.arange(50, dtype=np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": list(emb)})
    ds = ray.data.from_arrow(tbl)
    got = simsearch.embedding_near_dup(ds, threshold=0.95, num_planes=12).to_pandas()
    got_pairs = set(zip(got["vec_id_a"], got["vec_id_b"]))
    # exact ground truth
    nemb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    want = set()
    for i in range(50):
        for j in range(i + 1, 50):
            if float(nemb[i] @ nemb[j]) >= 0.95:
                want.add((i, j))
    # no false positives; near-identical pairs (cos ~0.9999) all recalled
    assert got_pairs <= want
    certain = {(i, i + 40) for i in range(10)}
    assert certain <= want
    assert len(certain & got_pairs) >= 8  # LSH recall on cos~1 pairs


def test_near_dup_skewed_corpus_hot_bucket_path(ray_session):
    """Boilerplate-heavy corpus: 10%+ of docs share one string, funneling
    them into the same LSH buckets.  The hot-bucket chunk-spill path
    (hot_bucket_cap small) must produce the identical verified pair set as
    the unchunked path."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    boiler = "terms of service apply all rights reserved contact us today"
    texts, ids = [], []
    for i in range(80):
        if i % 5 == 0:  # 20% boilerplate duplicates -> hot buckets
            texts.append(boiler)
        else:
            texts.append(" ".join(rng.choice(words, size=12)))
        ids.append(i)
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.array(ids, dtype=np.int64),
                      "text": texts})
    ).repartition(4)

    def run(cap):
        out = textops.near_dup_pairs(
            ds, num_parts=4, hot_bucket_cap=cap
        ).to_pandas()
        return set(zip(out["doc_a"].tolist(), out["doc_b"].tolist()))

    hot = run(3)        # boilerplate bucket (16 docs) >> cap: spill path
    plain = run(1 << 30)
    assert hot == plain
    # the boilerplate docs must all pair with each other (exact dups)
    boiler_ids = [i for i in ids if i % 5 == 0]
    for x in range(len(boiler_ids)):
        for y in range(x + 1, len(boiler_ids)):
            assert (boiler_ids[x], boiler_ids[y]) in hot


def test_fingerprint_sql_twin_non_ascii():
    """The rolling-hash fingerprint operates on Unicode code points, so the
    DuckDB ord(substr(...)) twin must match bit-exactly on non-ASCII text
    too (and on the short-doc md5 fallback)."""
    import duckdb
    import pandas as pd

    from s2_geometry_rust_ray.functions import text as T
    from s2_geometry_rust_ray.oracle import sql as osql

    texts = [
        "héllo wörld ünïcode text",
        "日本語のテキストです、これは",
        "plain ascii text here",
        "soup",  # < window: md5 fallback
        "",
        "mixed ascii und äöü and 漢字 tail",
    ]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = T.fingerprint(docs["text"])
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(osql.q_fingerprints()).df().sort_values("doc_id")
    assert np.array_equal(got, want["fingerprint"].to_numpy())


def test_distributed_topk_merge_matches_single(ray_session):
    """merge='distributed' (hash-exchange by query_id, no repartition(1))
    must equal merge='single' for both the ANN and kNN pipelines."""
    import ray.data

    from s2_geometry_rust_ray.stages import simsearch
    from s2_geometry_rust_ray.pipelines import knn as pknn

    ds = ray.data.read_parquet(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).repartition(4)
    rng = np.random.default_rng(1)
    q = rng.normal(size=(6, 64)).astype("float32")
    a = simsearch.ann_topk(ds, q, np.arange(6), k=5).to_pandas()
    b = simsearch.ann_topk(ds, q, np.arange(6), k=5,
                           merge="distributed").to_pandas()
    cols = ["query_id", "rank", "vec_id"]
    a = a.sort_values(cols).reset_index(drop=True)
    b = b.sort_values(cols).reset_index(drop=True)
    assert a[cols].equals(b[cols])

    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id"]).repartition(4)
    ka = pknn.knn_brute(docs, "doc_id", k=3, n_queries=8).to_pandas()
    kb = pknn.knn_brute(docs, "doc_id", k=3, n_queries=8,
                        merge="distributed").to_pandas()
    cols = ["query_id", "rank", "neighbor"]
    ka = ka.sort_values(cols).reset_index(drop=True)
    kb = kb.sort_values(cols).reset_index(drop=True)
    assert ka[cols].equals(kb[cols])


def test_quality_sql_twin_adversarial():
    """doc_quality's SQL twin must match bit-exactly on adversarial inputs:
    stopwords at token boundaries, punctuation runs, marker overlaps,
    short/empty docs, clip saturation at both ends."""
    import duckdb
    import pandas as pd

    from s2_geometry_rust_ray.pipelines import textops
    from s2_geometry_rust_ray.oracle import sql as osql
    import ray.data

    texts = [
        "",  # empty: n clamps to 1
        "the",  # pure stopword, stop_score saturates
        "a9the the9 _the_ the!",  # boundary cases: only _the_ and the! count
        "x" * 500 + " the and of to " * 10,  # len_score saturated, markers
        "!!! ??? ;;; :::",  # pure punctuation, punct_score floor
        "der und die ist der und",  # German markers
        "le la et les le",  # French markers
        "el que los de la",  # Spanish markers
        "the der le el",  # cross-language tie -> engine dict order wins
        "short doc",
        "don't it's we're they've",  # apostrophes: punct + token split
    ]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = textops.quality(ray.data.from_pandas(docs)).to_pandas()
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(osql.q_quality()).df()
    g = got.sort_values("doc_id").reset_index(drop=True)
    w = want.sort_values("doc_id").reset_index(drop=True)
    assert list(g["lang_guess"]) == list(w["lang_guess"])
    assert np.array_equal(g["quality"].values, w["quality"].values)


def test_topk_with_ties_exact_order():
    """Rows tied at the k-th value must be selected by (value desc, id asc)
    — not argpartition's arbitrary subset (the oracle's row_number order)."""
    from s2_geometry_rust_ray.stages.knn import local_topk

    d = np.array([5, 9, 5, 5, 9, 1, 5], dtype=np.int64)
    ids = np.array([40, 10, 30, 20, 50, 60, 10_000], dtype=np.int64)
    # k=4: the two 9s, then 5-ties broken by id -> ids 20, 30
    sel = local_topk(-d, ids, 4)
    assert ids[sel].tolist() == [10, 50, 20, 30]
    assert d[sel].tolist() == [9, 9, 5, 5]
    # k >= n: full lexsort
    sel_all = local_topk(-d, ids, 10)
    assert ids[sel_all].tolist() == [10, 50, 20, 30, 40, 10_000, 60]


def test_q15_topk_tie_break_matches_sql_semantics(ray_session):
    """Q15 ann_topk over a corpus of duplicated vectors (maximal integer-dot
    ties) must produce exactly the SQL row_number order."""
    import duckdb
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.stages import simsearch
    from s2_geometry_rust_ray.oracle import sql as osql

    rng = np.random.default_rng(2)
    base = rng.normal(size=(6, 64))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # 30 vectors = 5 copies of each of 6 distinct vectors -> heavy ties
    emb = np.tile(base, (5, 1)).astype(np.float32)
    ids = np.arange(30, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": [list(map(float, v)) for v in emb]})
    ds = ray.data.from_pandas(df).repartition(3)
    got = simsearch.ann_topk(ds, emb[:2], ids[:2], k=8,
                             arith=simsearch.Q15).to_pandas()
    con = duckdb.connect()
    con.register("embeddings", df)
    want = con.execute(osql.q_ann_q15(n_queries=2, k=8)).df()
    cols = ["query_id", "rank", "vec_id", "dot_q15"]
    g = got[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    w = want[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert g.values.tolist() == w.values.tolist()


def test_grouped_aggregates_hash_final_matches_tree(ray_session):
    """grouped_topk and distinct_count_by_key (one hash-partitioned plan)
    equal their brute-force pandas references exactly.  The name is from
    when a second, tree-merge plan was the reference."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.stages import agg

    rng = np.random.default_rng(9)
    n = 5000
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n),
        "v": rng.integers(0, 25, n),  # many ties
        "i": rng.permutation(n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(6)
    cols = ["k", "v", "i", "rank"]
    a = agg.grouped_topk(ds, "k", "v", "i", 3).to_pandas()
    a = a[cols].sort_values(cols).reset_index(drop=True)
    # brute-force oracle: exact rows, not just the count
    want = (
        df.sort_values(["k", "v", "i"], ascending=[True, False, True])
        .groupby("k").head(3)
    )
    want = want.assign(rank=want.groupby("k").cumcount() + 1)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    assert a[cols].values.tolist() == w.values.tolist()

    da = agg.distinct_count_by_key(ds, "k", "v").to_pandas()
    assert da["k"].is_unique
    brute = df.groupby("k")["v"].nunique()
    assert dict(zip(da["k"], da["n_distinct"])) == brute.to_dict()


def test_dedup_clusters_chain_convergence(ray_session):
    """Min-label propagation must converge across multi-hop chains (label
    travels one edge per round) and leave singletons alone."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.pipelines.dedup_clusters import dedup_clusters

    ids = pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64)})
    # chain 0-1-2-3-4, triangle 5-6-7, pair 8-9; 10, 11 singletons
    pairs = pd.DataFrame({
        "doc_a": np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.int64),
        "doc_b": np.array([0, 1, 2, 3, 6, 7, 5, 9], dtype=np.int64),
    })
    out = dedup_clusters(
        ray.data.from_pandas(ids).repartition(3),
        ray.data.from_pandas(pairs).repartition(2),
        num_parts=4,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = [0, 0, 0, 0, 0, 5, 5, 5, 8, 8, 10, 11]
    assert out["cluster_id"].tolist() == want


def test_distinct_count_all_null_groups(ray_session):
    """A key whose distinct-col values are ALL null must still appear with
    n_distinct = 0 (SQL GROUP BY keeps the group; COUNT(DISTINCT) ignores
    nulls) — ADVICE r3.  Mixed-null keys count only non-null values."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.stages import agg

    df = pd.DataFrame({
        "k": [1, 1, 2, 2, 3, 3, 3],
        "v": pd.array([10, 10, None, None, 7, None, 8], dtype="Int64"),
    })
    ds = ray.data.from_pandas(df).repartition(3)
    # string distinct col with an all-null group
    df2 = pd.DataFrame({
        "k": [1, 2, 2], "v": pd.array(["x", None, None], dtype="string"),
    })
    ds2 = ray.data.from_pandas(df2).repartition(2)
    out = agg.distinct_count_by_key(ds, "k", "v").to_pandas()
    got = dict(zip(out["k"], out["n_distinct"]))
    assert got == {1: 1, 2: 0, 3: 2}, got
    out2 = agg.distinct_count_by_key(ds2, "k", "v").to_pandas()
    assert dict(zip(out2["k"], out2["n_distinct"])) == {1: 1, 2: 0}


def test_reduce_by_key_hash_final_one_row_per_key(ray_session):
    """The hash-partitioned reduce must return exactly one row per key (the
    dedup_clusters convergence certificate depends on it) and equal a
    brute-force min."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.stages import agg

    rng = np.random.default_rng(4)
    n = 20000
    df = pd.DataFrame({
        "k": rng.integers(0, 500, n),
        "x": rng.integers(-1000, 1000, n),
    })
    ds = ray.data.from_pandas(df).repartition(8)
    out = agg.reduce_by_key(ds, "k", {"x": "min"}).to_pandas()
    assert out["k"].is_unique and len(out) == df["k"].nunique()
    want = df.groupby("k")["x"].min()
    assert dict(zip(out["k"], out["x"])) == want.to_dict()


def test_range_join_counts_vs_bruteforce(ray_session):
    """Vectorized cumulative-count range join == per-purchase O(n) scan,
    including half-open boundary semantics (ts == purchase_ts excluded,
    ts == purchase_ts - window included)."""
    import pyarrow.parquet as pq
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["event_id", "ts", "user_id", "event_type"])
    got = (
        textops.range_join_counts(ray.data.from_arrow(t), num_parts=4)
        .to_pandas().sort_values("purchase_id").reset_index(drop=True)
    )
    df = t.to_pandas()
    df["us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    views = df[df["event_type"] == "view"]
    pur = df[df["event_type"] == "purchase"]
    win = 3_600_000_000
    exp = []
    for _, p in pur.iterrows():
        v = views[views["user_id"] == p["user_id"]]
        n = int(((v["us"] >= p["us"] - win) & (v["us"] < p["us"])).sum())
        exp.append((p["event_id"], n))
    exp = pd.DataFrame(exp, columns=["purchase_id", "n_views"]).sort_values(
        "purchase_id").reset_index(drop=True)
    assert len(got) == len(exp) > 0
    assert (got["purchase_id"].values == exp["purchase_id"].values).all()
    assert (got["n_views"].values == exp["n_views"].values).all()


def test_range_join_boundary_ties(ray_session):
    """Events exactly AT the window edges: ts == p.ts excluded, ts ==
    p.ts - window included (half-open [lo, hi))."""
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    base = 1_700_000_000_000_000
    win = 3_600_000_000
    rows = {
        "event_id": [1, 2, 3, 4, 5],
        "ts": np.array(
            [base, base - win, base - win - 1, base - 1, base],
            dtype="datetime64[us]",
        ),
        "user_id": [7, 7, 7, 7, 7],
        "event_type": ["purchase", "view", "view", "view", "view"],
    }
    out = textops.range_join_counts(
        ray.data.from_arrow(pa.table(rows)), num_parts=2
    ).to_pandas()
    # id2 (== lo) in, id3 (< lo) out, id4 (< hi) in, id5 (== hi) out
    assert out.to_dict("records") == [{"purchase_id": 1, "n_views": 2}]


def test_quantiles_by_key_vs_numpy(ray_session):
    """Exact rank-ceil(q*n) selection == sorted-array indexing per key."""
    import pyarrow.parquet as pq
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    t = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "value"])
    got = (
        textops.quantiles_by_key(ray.data.from_arrow(t))
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    df = t.to_pandas()
    for _, r in got.iterrows():
        v = np.sort(df[df["event_type"] == r["event_type"]]["value"].values)
        assert r["n"] == len(v)
        for q in (50, 90, 99):
            rank = -(-q * len(v) // 100)
            assert r[f"p{q}"] == v[rank - 1]


def test_hll_rho_hist_and_estimate(ray_session):
    """HLL register histogram is exactly reducible (order-independent) and
    the derived estimate tracks exact distinct counts within the sketch's
    published error in BOTH regimes: linear counting (n << m) and the raw
    HLL estimator (n >> m)."""
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    rng = np.random.default_rng(9)
    rows = []
    # key 'small': 300 distinct; key 'large': 60_000 distinct (m = 4096)
    small = rng.choice(np.arange(300, dtype=np.int64), 5000)
    large = rng.choice(np.arange(60_000, dtype=np.int64) + 10_000_000, 90_000)
    t = pa.table({
        "event_type": ["small"] * len(small) + ["large"] * len(large),
        "user_id": np.concatenate([small, large]),
    })
    hist = textops.hll_rho_hist(
        ray.data.from_arrow(t).repartition(4)
    ).to_pandas()
    est = textops.hll_estimate(hist)
    n_small = len(np.unique(small))
    n_large = len(np.unique(large))
    assert abs(est["small"] - n_small) / n_small < 0.05
    assert abs(est["large"] - n_large) / n_large < 0.06  # 1.04/sqrt(4096)~1.6%
    # register-state determinism: shuffled input gives the IDENTICAL hist
    perm = rng.permutation(t.num_rows)
    hist2 = textops.hll_rho_hist(
        ray.data.from_arrow(t.take(pa.array(perm))).repartition(7)
    ).to_pandas()
    key = ["event_type", "rho"]
    assert hist.sort_values(key).reset_index(drop=True).equals(
        hist2.sort_values(key).reset_index(drop=True))


def test_sample_by_hash_direct(ray_session):
    """Direct coverage of sample_by_hash: frac path, exact-rational path,
    keep-everything, nesting, and the integer-key guard."""
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    k = np.arange(5000, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k}))
    s10 = set(textops.sample_by_hash(ds, "k", 0.10).to_pandas()["k"])
    s20 = set(textops.sample_by_hash(ds, "k", 0.20).to_pandas()["k"])
    assert s10 <= s20
    assert 0.05 < len(s10) / 5000 < 0.15
    assert textops.sample_by_hash(ds, "k", 1.0).count() == 5000
    exact = textops.sample_by_hash(ds, "k", 0, num=3276, den=65536)
    assert 0.02 < exact.count() / 5000 < 0.08
    with pytest.raises(Exception, match="BOTH num and den"):
        textops.sample_by_hash(ds, "k", 0.05, num=3276)
    bad = ray.data.from_arrow(
        pa.table({"k": pa.array([1.5, 2.5], pa.float64())})
    )
    with pytest.raises(Exception, match="integer or string key"):
        textops.sample_by_hash(bad, "k", 0.5).count()
    # a null integer key is never kept, and the others keep their hash
    nk = ray.data.from_arrow(pa.table({"k": pa.array([None] + list(range(5000)),
                                                      pa.int64())}))
    assert set(textops.sample_by_hash(nk, "k", 0.10).to_pandas()["k"]) == s10
    # string keys: engine-deterministic (functions/hashing.key_hash),
    # nested fractions stay subsets just like the integer path
    sk = [f"doc-{i}" for i in range(2000)]
    sds = ray.data.from_arrow(pa.table({"k": pa.array(sk, pa.string())}))
    t10 = set(textops.sample_by_hash(sds, "k", 0.10).to_pandas()["k"])
    t25 = set(textops.sample_by_hash(sds, "k", 0.25).to_pandas()["k"])
    assert t10 <= t25 and 0.03 < len(t10) / 2000 < 0.2
    t10b = set(textops.sample_by_hash(sds, "k", 0.10).to_pandas()["k"])
    assert t10 == t10b  # reproducible across runs


def test_sliding_window_counts_empty_block(ray_session):
    """Ray Data can hand map_batches an empty block; the vectorized
    kernel must not IndexError on it (starts=[0] over an empty array)."""
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    full = pa.table({
        "ts": pa.array(
            np.array([0, 900_000_000], dtype="datetime64[us]")),
        "event_type": ["a", "b"],
        "value": [1.5, 2.5],
    })
    empty = full.slice(0, 0)
    ds = ray.data.from_arrow([empty, full])
    got = textops.sliding_window_counts(ds).to_pandas()
    # each event lands in 4 hopping windows
    assert got["n"].sum() == 8


@pytest.mark.parametrize("dtype", [np.float64, np.int16])
def test_vector_wire_round_trip(dtype):
    """pack_vectors -> unpack_vectors is bit-exact for a contiguous column,
    a slice (offset != 0), a two-chunk ChunkedArray and zero rows."""
    import pyarrow as pa

    from s2_geometry_rust_ray.stages.simsearch import pack_vectors, unpack_vectors

    rng = np.random.default_rng(5)
    mat = (rng.normal(size=(7, 5)) * 1000).astype(dtype)
    if dtype == np.float64:
        mat[0, 0], mat[1, 1] = -0.0, np.nan
    else:
        mat[0, 0], mat[1, 1] = -32768, 32767

    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    col = pack_vectors(mat)
    assert col.type == pa.binary(5 * mat.itemsize)
    same(unpack_vectors(col, dtype), mat)
    same(unpack_vectors(pack_vectors(np.asfortranarray(mat)), dtype), mat)
    same(unpack_vectors(col.slice(2, 3), dtype), mat[2:5])
    same(unpack_vectors(pa.chunked_array([col.slice(0, 3), col.slice(3)]), dtype), mat)
    same(unpack_vectors(pack_vectors(mat[:0]), dtype), mat[:0])
    same(unpack_vectors(col.slice(7), dtype), mat[:0])


_MIN = 60_000_000  # microseconds
_W = 60 * _MIN  # range_join_counts' default window
_GAP = 30 * _MIN  # sessionize's default gap


def _event_blocks():
    """Events in three input blocks, (event_id, user, ts_us, type) rows:
      user 1: a purchase at the timestamp of its only view (no as-of match);
      user 2: two views at one timestamp, then a purchase (view 27 wins);
      user 3: gaps of exactly 30 min (one session) and 30 min + 1 us;
      user 4: events spread over all three blocks, a purchase tied with a
              view, and a click that only sessionize counts;
      user 5: views at the range window's edges, ts - 60 min (in),
              ts - 60 min - 1 us (out), ts - 1 us (in) and ts (out);
      users 0 and 6: purchases with no view, sorted next to other users'
              views."""
    import pyarrow as pa

    t5 = 600 * _MIN
    rows = [
        [(10, 1, 100, "view"), (11, 1, 100, "purchase"), (27, 2, 200, "view"),
         (22, 2, 300, "purchase"), (40, 4, 1000, "view"), (70, 0, 999_999, "purchase")],
        [(21, 2, 200, "view"), (30, 3, 0, "view"), (31, 3, _GAP, "view"),
         (32, 3, 2 * _GAP + 1, "view"), (41, 4, 2000, "purchase"),
         (51, 5, t5 - _W, "view"), (52, 5, t5 - _W - 1, "view")],
        [(42, 4, 1500, "view"), (43, 4, 1500, "purchase"), (44, 4, 1700, "click"),
         (50, 5, t5, "purchase"), (53, 5, t5 - 1, "view"), (54, 5, t5, "view"),
         (60, 6, 5, "purchase")],
    ]
    return [
        pa.table({
            "event_id": pa.array([r[0] for r in block], pa.int64()),
            "ts": pa.array([r[2] for r in block], pa.timestamp("us")),
            "user_id": pa.array([r[1] for r in block], pa.int64()),
            "event_type": pa.array([r[3] for r in block], pa.string()),
        })
        for block in rows
    ]


@pytest.mark.parametrize("num_parts", [1, 4])
def test_user_event_ops_ties_vs_bruteforce(ray_session, num_parts):
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    blocks = _event_blocks()
    ev = [
        (e, u, t, k)
        for b in blocks
        for e, u, t, k in zip(b["event_id"].to_pylist(), b["user_id"].to_pylist(),
                              b["ts"].cast(pa.int64()).to_pylist(),
                              b["event_type"].to_pylist())
    ]
    views = [(e, u, t) for e, u, t, k in ev if k == "view"]
    buys = [(e, u, t) for e, u, t, k in ev if k == "purchase"]
    ds = ray.data.from_arrow(blocks)

    want_asof = {}
    for e, u, t in buys:
        before = [(tv, ev_) for ev_, uv, tv in views if uv == u and tv < t]
        if before:
            want_asof[e] = max(before)[1]
    got = textops.asof_join_events(ds, num_parts=num_parts).to_pandas()
    got_asof = dict(zip(got["purchase_id"], got["view_id"]))
    assert got_asof == want_asof
    assert 11 not in got_asof and got_asof[22] == 27 and got_asof[43] == 40
    assert got_asof[50] == 53 and 60 not in got_asof and 70 not in got_asof

    want_range = {
        e: sum(uv == u and t - _W <= tv < t for _, uv, tv in views)
        for e, u, t in buys
    }
    got = textops.range_join_counts(ds, num_parts=num_parts).to_pandas()
    assert dict(zip(got["purchase_id"], got["n_views"])) == want_range
    assert want_range[50] == 2 and want_range[11] == 0

    want_sessions = {}
    for u in {u for _, u, _, _ in ev}:
        ts = np.sort([t for _, uu, t, _ in ev if uu == u])
        want_sessions[u] = (1 + int((np.diff(ts) > _GAP).sum()), len(ts))
    got = textops.sessionize(ds, num_parts=num_parts).to_pandas()
    got_sessions = {
        u: (s, n) for u, s, n in zip(got["user_id"], got["n_sessions"], got["n_events"])
    }
    assert got_sessions == want_sessions
    assert got_sessions[3] == (2, 3) and got_sessions[4] == (1, 5)


_USER_EVENT_SCHEMAS = {
    "sessionize": [("user_id", "int64"), ("n_sessions", "int64"),
                   ("n_events", "int64")],
    "asof_join_events": [("purchase_id", "int64"), ("view_id", "int64")],
    "range_join_counts": [("purchase_id", "int64"), ("n_views", "int64")],
}
_EMPTY_SOURCES = {
    "limit0": lambda ds: ds.limit(0),
    "filter_all": lambda ds: ds.filter(lambda r: False),
    "map_over_limit0": lambda ds: ds.limit(0).map_batches(
        lambda b: b, batch_format="pyarrow"),
}


@pytest.mark.parametrize("source", sorted(_EMPTY_SOURCES))
@pytest.mark.parametrize("op", sorted(_USER_EVENT_SCHEMAS))
def test_user_event_ops_on_empty_input(ray_session, executors, op, source):
    """Zero rows in, zero rows out with the declared schema, as a computed
    dataset: a zero-block input, blocks a filter left column-less, and a
    zero-block input whose schema Ray cannot report.  The source is in
    memory (a `limit(0)` over a parquet read cancels in-flight read
    tasks)."""
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.pipelines import textops

    ds = _EMPTY_SOURCES[source](ray.data.from_arrow(_event_blocks()))
    out = getattr(textops, op)(ds, num_parts=2)
    tables = executors.fetch(out)
    schema = pa.schema(_USER_EVENT_SCHEMAS[op])
    assert sum(t.num_rows for t in tables) == 0
    assert tables and all(t.schema.equals(schema) for t in tables)
