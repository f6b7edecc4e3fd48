"""DuckDB-SQL twins of the S2 kernels, for the driver's correctness oracle.

Generates ANSI SQL that reproduces the engine's lat/lng -> leaf S2CellId
encode *bit-exactly*: the kernel path was deliberately restricted to IEEE
correctly-rounded ops (+ - * / sqrt) plus sin/cos (verified bit-identical
between NumPy and DuckDB on this platform), and the Hilbert traversal is
expressed as a 30-step recursive CTE over the same 4x4 traversal tables
(IJ_TO_POS / POS_TO_ORIENTATION, /root/reference/src/math.rs:81-99).

This is an *independent second implementation* (1-bit-per-level vs the
engine's 4-bit lookup nibbles), so oracle agreement is a real cross-check,
not a tautology.
"""

from __future__ import annotations

from ..functions.coords import IJ_TO_POS, POS_TO_ORIENTATION
from ..functions.geo import sql_latlng_cte

ALL_ONES = "18446744073709551615::UBIGINT"


def flit(v) -> str:
    """Float literal for DuckDB that is guaranteed to parse as DOUBLE.

    A bare numeric literal like 0.012 parses as DECIMAL and drags the
    surrounding arithmetic into decimal rounding (1-ulp drift vs the
    engine); string->DOUBLE casts are correctly rounded, i.e. identical to
    Python's float(repr(v))."""
    return f"CAST('{float(v)!r}' AS DOUBLE)"


def _lut_values() -> str:
    rows = []
    for o in range(4):
        for ij in range(4):
            pos = int(IJ_TO_POS[o][ij])
            orient = o ^ int(POS_TO_ORIENTATION[pos])
            rows.append(f"({o},{ij},{pos},{orient})")
    return ", ".join(rows)


def cte_encode(src_sql: str, key_expr: str) -> str:
    """WITH-RECURSIVE prefix ending in CTEs:

    __geo(key, lat, lng)        derived geotags (bit-exact twin of geo.py)
    __fuv(key, face, x, y, z)   cube face
    __ij(key, face, i, j)       30-bit leaf coords
    __cell(key, face, i, j, cell_id)  leaf S2 cell id (UBIGINT)
    """
    geo = sql_latlng_cte(src_sql, key_expr)
    return f"""WITH RECURSIVE {geo},
  __xyz AS (
    SELECT key, lat, lng,
           cos(lat*(pi()/180.0)) * cos(lng*(pi()/180.0)) AS x,
           cos(lat*(pi()/180.0)) * sin(lng*(pi()/180.0)) AS y,
           sin(lat*(pi()/180.0)) AS z
    FROM __geo
  ),
  __fuv AS (
    SELECT key, lat, lng, x, y, z,
           CAST(CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z)
                  THEN CASE WHEN x < 0 THEN 3 ELSE 0 END
                WHEN abs(y) >= abs(z)
                  THEN CASE WHEN y < 0 THEN 4 ELSE 1 END
                ELSE CASE WHEN z < 0 THEN 5 ELSE 2 END END AS BIGINT) AS face
    FROM __xyz
  ),
  __uv AS (
    SELECT key, lat, lng, face,
           CASE face WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                     WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
           CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                     WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
    FROM __fuv
  ),
  __st AS (
    SELECT key, lat, lng, face,
           CASE WHEN u >= 0.0 THEN 0.5 * sqrt(1.0 + 3.0*u)
                ELSE 1.0 - 0.5 * sqrt(1.0 - 3.0*u) END AS s,
           CASE WHEN v >= 0.0 THEN 0.5 * sqrt(1.0 + 3.0*v)
                ELSE 1.0 - 0.5 * sqrt(1.0 - 3.0*v) END AS t
    FROM __uv
  ),
  __ij AS (
    SELECT key, lat, lng, face,
           least(greatest(cast(trunc(1073741824.0 * s) AS BIGINT), 0), 1073741823) AS i,
           least(greatest(cast(trunc(1073741824.0 * t) AS BIGINT), 0), 1073741823) AS j
    FROM __st
  ),
  __lut(o, ij, pos, orient) AS (VALUES {_lut_values()}),
  __hil AS (
    SELECT key, 29 AS k, face::UBIGINT AS n, (face % 2) AS o, face, i, j
    FROM __ij
    UNION ALL
    SELECT h.key, h.k - 1, h.n * 4 + l.pos, l.orient, h.face, h.i, h.j
    FROM __hil h JOIN __lut l
      ON l.o = h.o AND l.ij = ((h.i >> h.k) & 1) * 2 + ((h.j >> h.k) & 1)
    WHERE h.k >= 0
  ),
  __cell AS (
    SELECT key, face, i, j, n * 2 + 1 AS cell_id
    FROM __hil WHERE k = -1
  )"""


def sql_cell_hex(expr: str) -> str:
    """UBIGINT expr -> 16-char lowercase hex (matches cellid.to_hex)."""
    return f"lower(lpad(hex({expr}), 16, '0'))"


def sql_parent(expr: str, level: int) -> str:
    """Parent cell at `level` from a *leaf* UBIGINT cell id, via
    (id & -lsb) | lsb with -lsb written as xor(lsb-1, ~0)."""
    shift = 2 * (30 - level)
    lsb = f"(1::UBIGINT << {shift})"
    return f"((({expr}) & xor({lsb} - 1, {ALL_ONES})) | {lsb})"


def q_cell_encode(src_sql: str, key_expr: str, key_name: str) -> str:
    """Per-row leaf encode: (key, lat, lng, face, cell_token)."""
    return (
        cte_encode(src_sql, key_expr)
        + f"""
  SELECT c.key AS {key_name}, g.lat, g.lng, c.face,
         {sql_cell_hex('c.cell_id')} AS cell_token
  FROM __cell c JOIN __geo g ON g.key = c.key
  ORDER BY 1"""
    )


def q_tile_counts(src_sql: str, key_expr: str, level: int) -> str:
    """Tile assignment: groupby parent cell at `level` -> count."""
    return (
        cte_encode(src_sql, key_expr)
        + f"""
  SELECT {sql_cell_hex(sql_parent('cell_id', level))} AS tile_token,
         count(*) AS n
  FROM __cell
  GROUP BY 1"""
    )


def q_snap_dedup(src_sql: str, key_expr: str, level: int) -> str:
    """Snap-to-cell dedup: (snap_token, keep_key=min, n) per level-K cell."""
    return (
        cte_encode(src_sql, key_expr)
        + f"""
  SELECT {sql_cell_hex(sql_parent('cell_id', level))} AS snap_token,
         min(key) AS keep_key,
         count(*)::BIGINT AS n
  FROM __cell
  GROUP BY 1"""
    )


def q_face_histogram(src_sql: str, key_expr: str) -> str:
    """Rows per cube face (no Hilbert needed — exercises xyz/face kernel)."""
    return (
        cte_encode(src_sql, key_expr)
        + """
  SELECT face, count(*) AS n FROM __fuv GROUP BY 1"""
    )


def q_near_dup_pairs(num_hashes: int = 32, band_size: int = 4,
                     threshold: float = 0.5, k: int = 5,
                     mode: str = "word") -> str:
    """Full SQL twin of pipelines/textops.near_dup_pairs over `documents`:
    shingle (word windows or raw char k-grams) -> md5 -> universal-hash
    minhash (mod 2^31-1) -> integer band-bucket fold (functions/
    text.band_buckets: bucket = ((b+1)*M^k + sum_t h_t * M^(k-1-t)) mod p,
    M=1000003) -> bucket self-join -> exact Jaccard >= threshold.  Every
    arithmetic step stays below 2^62, so BIGINT math matches the engine's
    uint64 math exactly; jaccard is one IEEE division of exact integers
    (bit-exact).  Tail hashes beyond (num_hashes // band_size) * band_size
    are dropped in BOTH engines."""
    from ..functions.text import BAND_M

    p = 2147483647
    n_bands = num_hashes // band_size
    n_used = n_bands * band_size
    pow_rows = ", ".join(
        f"({t},{pow(BAND_M, band_size - 1 - t, p)})" for t in range(band_size)
    )
    pow_mk = pow(BAND_M, band_size, p)
    if mode == "char":
        shing = f"""shing AS (
    SELECT doc_id,
           unnest(list_transform(range(1, length(lower(text)) - {k - 2}),
                                 i -> substr(lower(text), i, {k}))) AS s
    FROM documents WHERE length(text) >= {k}
    UNION ALL
    SELECT doc_id, lower(text) AS s
    FROM documents WHERE length(text) BETWEEN 1 AND {k - 1}
  ),"""
    else:
        shing = f"""toks AS (
    SELECT doc_id,
           list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                          t -> lower(t)) AS w
    FROM documents
  ),
  shing AS (
    SELECT doc_id,
           unnest(list_transform(range(1, len(w) - {k - 2}),
                                 i -> array_to_string(w[i:i+{k - 1}], ' '))) AS s
    FROM toks WHERE len(w) >= {k}
    UNION ALL
    SELECT doc_id, array_to_string(w, ' ') AS s
    FROM toks WHERE len(w) BETWEEN 1 AND {k - 1}
  ),"""
    return f"""WITH {shing}
  sh AS (SELECT DISTINCT doc_id, s FROM shing),
  hx AS (
    SELECT doc_id,
           CAST(CAST(('0x' || substr(md5(s), 1, 16)) AS UBIGINT)
                % {p} AS BIGINT) AS x
    FROM sh
  ),
  sig AS (
    SELECT doc_id, ii.i AS i,
           min((((ii.i * 2654435761 + 1) % {p}) * x
                + ((ii.i * 40503 + 17) % {p})) % {p}) AS h
    FROM hx CROSS JOIN (SELECT unnest(range(0, {num_hashes})) AS i) ii
    GROUP BY 1, 2
  ),
  pw(j, w) AS (VALUES {pow_rows}),
  bandsig AS (
    SELECT s.doc_id, s.i // {band_size} AS b,
           SUM((s.h * pw.w) % {p}) AS t
    FROM sig s JOIN pw ON pw.j = s.i % {band_size}
    WHERE s.i < {n_used}
    GROUP BY 1, 2
  ),
  buckets AS (
    SELECT doc_id,
           CAST((((b + 1) * {pow_mk}) % {p} + t) % {p} AS BIGINT) AS bucket
    FROM bandsig
  ),
  cand AS (
    SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
    FROM buckets x JOIN buckets y USING (bucket)
    WHERE x.doc_id < y.doc_id
  ),
  inter AS (
    SELECT c.doc_a, c.doc_b, count(*) AS n_inter
    FROM cand c
    JOIN sh sa ON sa.doc_id = c.doc_a
    JOIN sh sb ON sb.doc_id = c.doc_b AND sb.s = sa.s
    GROUP BY 1, 2
  ),
  sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
  scored AS (
    SELECT c.doc_a, c.doc_b,
           CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
             / CAST(za.n + zb.n - COALESCE(i.n_inter, 0) AS DOUBLE) AS jaccard
    FROM cand c
    JOIN sizes za ON za.doc_id = c.doc_a
    JOIN sizes zb ON zb.doc_id = c.doc_b
    LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
  )
  SELECT doc_a, doc_b, jaccard FROM scored
  WHERE jaccard >= {flit(threshold)}"""


def q_ann_q15(n_queries: int = 25, k: int = 10) -> str:
    """SQL twin of stages/simsearch.ann_topk(arith=Q15) over `embeddings`:
    Q15-quantize every vector (round_even == np.rint, exact float64
    scaling), integer dot products (ORDER-FREE sums — the property float
    cosine lacks), top-k per query with (dot desc, vec_id asc) ties.
    Queries = the vectors with vec_id < n_queries."""
    return f"""WITH qv AS (
    SELECT vec_id,
           list_transform(embedding,
             x -> CAST(least(greatest(round_even(CAST(x AS DOUBLE) * 32767.0, 0),
                                      -32768.0), 32767.0) AS BIGINT)) AS q
    FROM embeddings
  ),
  pairs AS (
    SELECT a.vec_id AS query_id, b.vec_id AS vec_id,
           CAST(list_sum(list_transform(list_zip(a.q, b.q),
                                        p -> p[1] * p[2])) AS BIGINT) AS dot_q15
    FROM qv a, qv b WHERE a.vec_id < {n_queries}
  ),
  ranked AS (
    SELECT query_id, vec_id, dot_q15,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY dot_q15 DESC, vec_id) AS rank
    FROM pairs
  )
  SELECT query_id, vec_id, dot_q15, CAST(rank AS BIGINT) AS rank
  FROM ranked WHERE rank <= {k}"""


def q_dedup_clusters(pair_sql: str,
                     universe_sql: str = "SELECT doc_id FROM documents") -> str:
    """Connected-components twin of pipelines/dedup_clusters: recursive
    transitive closure over the SAME pair query (embedded verbatim as a
    CTE), min reachable id per doc.  Pure integer => bit-exact vs the
    engine's min-label propagation."""
    return f"""WITH RECURSIVE pairs AS ({pair_sql}),
  edges AS (
    SELECT doc_a AS u, doc_b AS v FROM pairs
    UNION ALL
    SELECT doc_b AS u, doc_a AS v FROM pairs
  ),
  ids AS ({universe_sql}),
  reach(v, r) AS (
    SELECT doc_id, doc_id FROM ids
    UNION
    SELECT e.v, re.r FROM reach re JOIN edges e ON e.u = re.v
  )
  SELECT v AS doc_id, min(r) AS cluster_id FROM reach GROUP BY v"""


def q_emb_near_dup_q15(threshold_q15: int, num_planes: int = 16,
                       dim: int = 64, seed: int = 7,
                       id_offset: int = 10_000_000) -> str:
    """SQL twin of stages/simsearch.embedding_near_dup(arith=Q15) over the
    `embeddings` table unioned with an id-offset copy (the driver query's
    shape): Q15 quantization, integer hyperplane sign buckets (the plane
    constants are THE SAME int64 literals the engine uses), candidate
    pairs sharing a bucket, integer-dot verify >= threshold.  Every step
    is exact integer arithmetic."""
    from ..stages.simsearch import q15_planes

    planes = q15_planes(num_planes, dim, seed)
    plane_rows = ", ".join(
        f"({i}, [{', '.join(str(int(v)) for v in planes[i])}])"
        for i in range(num_planes)
    )
    return f"""WITH src AS (
    SELECT vec_id, embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {id_offset} AS vec_id, embedding FROM embeddings
  ),
  qv AS (
    SELECT vec_id,
           list_transform(embedding,
             x -> CAST(least(greatest(round_even(CAST(x AS DOUBLE) * 32767.0, 0),
                                      -32768.0), 32767.0) AS BIGINT)) AS q
    FROM src
  ),
  pl(i, p) AS (VALUES {plane_rows}),
  signs AS (
    SELECT qv.vec_id, pl.i,
           CASE WHEN CAST(list_sum(list_transform(list_zip(qv.q, pl.p),
                                                  x -> x[1] * x[2]))
                     AS BIGINT) > 0 THEN 1 ELSE 0 END AS b
    FROM qv CROSS JOIN pl
  ),
  bits(i, c) AS (VALUES {", ".join(f"({i},{1 << i})" for i in range(num_planes))}),
  buckets AS (
    SELECT s.vec_id, CAST(SUM(s.b * bits.c) AS BIGINT) AS bucket
    FROM signs s JOIN bits ON bits.i = s.i
    GROUP BY 1
  ),
  cand AS (
    SELECT DISTINCT x.vec_id AS vec_id_a, y.vec_id AS vec_id_b
    FROM buckets x JOIN buckets y USING (bucket)
    WHERE x.vec_id < y.vec_id
  )
  SELECT c.vec_id_a, c.vec_id_b,
         CAST(list_sum(list_transform(list_zip(qa.q, qb.q),
                                      x -> x[1] * x[2])) AS BIGINT) AS dot_q15
  FROM cand c
  JOIN qv qa ON qa.vec_id = c.vec_id_a
  JOIN qv qb ON qb.vec_id = c.vec_id_b
  WHERE CAST(list_sum(list_transform(list_zip(qa.q, qb.q),
                                     x -> x[1] * x[2])) AS BIGINT)
        >= {threshold_q15}"""


def q_quality() -> str:
    """SQL twin of pipelines/textops.quality over `documents`.

    quality: pure IEEE +-*/ over integer counts (length, ASCII punct
    matches, stopword-token membership — equivalent to the engine's
    lookbehind alternation because both boundary rules consider only
    [a-z0-9], and RE2 has no lookbehind), rounded with round_even(x, 6)
    which matches np.round's half-to-even bit-for-bit (verified on 50k
    samples incl. ties).  lang_guess: marker-substring counts via
    replace-difference (same non-overlapping greedy semantics as Python
    str.count), argmax in the engine's dict order with >=-ties-first."""
    from ..functions.text import _LANG_MARKERS, PUNCT_SQL, STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in sorted(STOPWORDS))

    def marker_count(m: str) -> str:
        esc = m.replace("'", "''")
        return (f"((length(pad) - length(replace(pad, '{esc}', '')))"
                f" // {len(m)})")

    lang_scores = {
        lang: " + ".join(marker_count(m) for m in markers)
        for lang, markers in _LANG_MARKERS.items()
    }
    order = list(_LANG_MARKERS)  # engine argmax order: first max wins
    cases = []
    for i, lang in enumerate(order[:-1]):
        conds = " AND ".join(
            f"s_{lang} >= s_{other}" for other in order[i + 1:]
        )
        cases.append(f"WHEN {conds} THEN '{lang}'")
    lang_case = ("CASE " + " ".join(cases) + f" ELSE '{order[-1]}' END")
    any_hit = " + ".join(f"s_{lang}" for lang in order)
    one, zero = flit(1.0), flit(0.0)
    return f"""WITH pad_t AS (
    SELECT doc_id, text, ' ' || lower(text) || ' ' AS pad FROM documents
  ),
  scores AS (
    SELECT doc_id, text,
           {", ".join(f"({expr}) AS s_{lang}" for lang, expr in lang_scores.items())}
    FROM pad_t
  ),
  tok AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
    FROM documents
  ),
  stopc AS (
    SELECT doc_id, count(*) AS c FROM tok
    WHERE t IN ({stop_list}) GROUP BY doc_id
  ),
  base AS (
    SELECT s.doc_id,
           CASE WHEN {any_hit} > 0 THEN {lang_case} ELSE 'und' END AS lang_guess,
           greatest(CAST(length(s.text) AS DOUBLE), {one}) AS n,
           CAST(len(regexp_extract_all(s.text, '{PUNCT_SQL}')) AS DOUBLE) AS punct,
           CAST(COALESCE(sc.c, 0) AS DOUBLE) AS stop,
           greatest(CAST(len(regexp_extract_all(s.text, '[A-Za-z0-9]+')) AS DOUBLE),
                    {one}) AS nw
    FROM scores s LEFT JOIN stopc sc USING (doc_id)
  )
  SELECT doc_id, lang_guess,
         round_even((least(greatest(n / {flit(200.0)}, {zero}), {one})
                     + ({one} - least(greatest(punct / n * {flit(4.0)}, {zero}), {one}))
                     + least(greatest(stop / nw * {flit(4.0)}, {zero}), {one}))
                    / {flit(3.0)}, 6) AS quality
  FROM base"""


def q_fingerprints(window: int = 8) -> str:
    """SQL twin of functions/text.fingerprint over `documents`: per doc,
    min over all `window`-char windows of the rolling hash
    sum_t ord(char[j+t]) * B^(w-1-t) mod 2^64 (B = 1000003).  The engine
    computes the same sum in numpy uint64 (wraparound IS mod 2^64); here
    the B^k mod 2^64 constants arrive as UBIGINT literals and products run
    through HUGEINT before reducing mod 2^64 (DuckDB UBIGINT multiply
    range-errors instead of wrapping).  Docs shorter than `window` fall
    back to the md5-prefix hash, as in the engine.  Output wraps to the
    engine's int64 view via the established HUGEINT detour."""
    mod = 1 << 64
    B = 1000003
    pow_rows = ", ".join(
        f"({t},{pow(B, window - 1 - t, mod)}::UBIGINT)" for t in range(window)
    )
    m_h = "18446744073709551616::HUGEINT"
    return f"""WITH pw(t, w) AS (VALUES {pow_rows}),
  long_docs AS (
    SELECT doc_id, text, length(text) AS n
    FROM documents WHERE length(text) >= {window}
  ),
  win AS (
    SELECT doc_id, text,
           unnest(range(1, n - {window} + 2)) AS j
    FROM long_docs
  ),
  wh AS (
    SELECT wi.doc_id, wi.j,
           CAST(SUM((CAST(ord(substr(wi.text, CAST(wi.j + pw.t AS INTEGER), 1))
                          AS HUGEINT) * CAST(pw.w AS HUGEINT)) % {m_h})
                % {m_h} AS UBIGINT) AS h
    FROM win wi CROSS JOIN pw
    GROUP BY 1, 2
  ),
  mins AS (SELECT doc_id, min(h) AS fp FROM wh GROUP BY 1),
  short_docs AS (
    SELECT doc_id, CAST(('0x' || substr(md5(text), 1, 16)) AS UBIGINT) AS fp
    FROM documents WHERE length(text) < {window}
  ),
  allfp AS (SELECT * FROM mins UNION ALL SELECT * FROM short_docs)
  SELECT doc_id,
         CAST(CAST(fp AS HUGEINT)
              - CASE WHEN fp >= 9223372036854775808::UBIGINT
                     THEN {m_h} ELSE 0::HUGEINT END AS BIGINT) AS fingerprint
  FROM allfp"""


def q_loop_measures(layer) -> str:
    """Recursive-CTE twin of pipelines/measures.loop_measures: per loop,
    the rational tangent-half-area fold over the SAME vertex float
    literals, every op in the engine's exact evaluation order (see
    geometry/measures.tan_half_area_fold)."""
    from ..pipelines.measures import loop_vertex_table

    tbl = loop_vertex_table(layer)
    rows = ", ".join(
        f"('{k}',{i},{flit(x)},{flit(y)},{flit(z)})"
        for k, i, x, y, z in zip(
            tbl["loop_key"].to_pylist(), tbl["vidx"].to_pylist(),
            tbl["x"].to_pylist(), tbl["y"].to_pylist(), tbl["z"].to_pylist(),
        )
    )
    num = ("a.x*(b.y*c.z - b.z*c.y) + a.y*(b.z*c.x - b.x*c.z)"
           " + a.z*(b.x*c.y - b.y*c.x)")
    den = ("(1.0 + (a.x*b.x + a.y*b.y + a.z*b.z))"
           " + ((b.x*c.x + b.y*c.y + b.z*c.z) + (c.x*a.x + c.y*a.y + c.z*a.z))")
    ti = f"(({num}) / ({den}))"
    return f"""WITH RECURSIVE verts(loop_key, vidx, x, y, z) AS (VALUES {rows}),
  nv AS (SELECT loop_key, count(*) AS n FROM verts GROUP BY 1),
  fold(loop_key, i, t) AS (
    SELECT loop_key, 1, CAST(0.0 AS DOUBLE) FROM nv
    UNION ALL
    SELECT f.loop_key, f.i + 1, (f.t + {ti}) / (1.0 - f.t * {ti})
    FROM fold f
    JOIN nv ON nv.loop_key = f.loop_key
    JOIN verts a ON a.loop_key = f.loop_key AND a.vidx = 0
    JOIN verts b ON b.loop_key = f.loop_key AND b.vidx = f.i
    JOIN verts c ON c.loop_key = f.loop_key AND c.vidx = f.i + 1
    WHERE f.i <= nv.n - 2
  )
  SELECT f.loop_key, nv.n AS n_vertices, f.t AS tan_half_area
  FROM fold f JOIN nv ON nv.loop_key = f.loop_key
  WHERE f.i = nv.n - 1"""


def q_cap_bounds(src_sql: str, key_expr: str, level: int) -> str:
    """Per-tile bounding-cap twin (pipelines/tiling.cap_bounds): anchor at
    min-key point, MAX of the engine's exact chord^2 expression."""
    return (
        cte_encode(src_sql, key_expr)
        + f""",
  __pt AS (
    SELECT c.key, {sql_cell_hex(sql_parent('c.cell_id', level))} AS tile_token,
           p.x, p.y, p.z
    FROM __cell c JOIN __xyz p USING (key)
  ),
  __anchor AS (SELECT tile_token, min(key) AS keep_key FROM __pt GROUP BY 1),
  __ctr AS (
    SELECT a.tile_token, a.keep_key, p.x AS cx, p.y AS cy, p.z AS cz
    FROM __anchor a
    JOIN __pt p ON p.tile_token = a.tile_token AND p.key = a.keep_key
  )
  SELECT c.tile_token, c.keep_key, count(*)::BIGINT AS n,
         max(((p.x - c.cx)*(p.x - c.cx) + (p.y - c.cy)*(p.y - c.cy))
             + (p.z - c.cz)*(p.z - c.cz)) AS r2
  FROM __pt p JOIN __ctr c USING (tile_token)
  GROUP BY 1, 2"""
    )


def _simhash_ctes() -> str:
    """CTE chain computing __sig(doc_id, sig UBIGINT) — SimHash over
    distinct lowercased tokens, strict-majority votes per bit.  The 64 bit
    values arrive as a VALUES table because DuckDB's << promotes to BIGINT
    and overflows at bit 63."""
    bit_rows = ", ".join(f"({i},{1 << i}::UBIGINT)" for i in range(64))
    return f"""toks AS (
    SELECT DISTINCT doc_id, lower(unnest(regexp_extract_all(text, '[A-Za-z0-9]+'))) AS t
    FROM documents
  ),
  hx AS (
    SELECT doc_id, CAST(('0x' || substr(md5(t), 1, 16)) AS UBIGINT) AS h
    FROM toks
  ),
  bits(i, c) AS (VALUES {bit_rows}),
  votes AS (
    SELECT doc_id, b.i, b.c,
           SUM(CASE WHEN (h >> b.i) & 1::UBIGINT = 1::UBIGINT
                    THEN 1 ELSE -1 END) AS v
    FROM hx CROSS JOIN bits b GROUP BY 1, 2, 3
  ),
  __sig AS (
    SELECT doc_id,
           CAST(COALESCE(SUM(CASE WHEN v > 0 THEN c ELSE 0::UBIGINT END),
                         0::UBIGINT) AS UBIGINT) AS sig
    FROM votes GROUP BY 1
  ),
  __allsig AS (
    SELECT d.doc_id, COALESCE(s.sig, 0::UBIGINT) AS sig
    FROM documents d LEFT JOIN __sig s USING (doc_id)
  )"""


def q_simhash() -> str:
    """(doc_id, simhash int64-view) twin of textops.simhash_table."""
    return (
        "WITH " + _simhash_ctes()
        + """
  SELECT doc_id,
         CAST(CAST(sig AS HUGEINT)
              - CASE WHEN sig >= 9223372036854775808::UBIGINT
                     THEN 18446744073709551616::HUGEINT
                     ELSE 0::HUGEINT END AS BIGINT) AS simhash
  FROM __allsig"""
    )


def q_simhash_near_dup(max_hamming: int = 7) -> str:
    """(doc_a, doc_b, hamming) twin of textops.simhash_near_dup: 8-bit
    band buckets (8 bands: pigeonhole-complete for hamming <= 7) ->
    candidate pairs -> exact popcount(xor) filter."""
    return (
        "WITH " + _simhash_ctes()
        + f""",
  bands AS (
    SELECT doc_id,
           b * 256 + CAST((sig >> (8 * b)) & 255::UBIGINT AS BIGINT) AS bucket
    FROM __allsig CROSS JOIN (SELECT unnest(range(0, 8)) AS b)
    WHERE sig <> 0::UBIGINT
  ),
  cand AS (
    SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
    FROM bands x JOIN bands y USING (bucket)
    WHERE x.doc_id < y.doc_id
  )
  SELECT c.doc_a, c.doc_b,
         CAST(bit_count(xor(sa.sig, sb.sig)) AS BIGINT) AS hamming
  FROM cand c
  JOIN __allsig sa ON sa.doc_id = c.doc_a
  JOIN __allsig sb ON sb.doc_id = c.doc_b
  WHERE bit_count(xor(sa.sig, sb.sig)) <= {max_hamming}"""
    )
