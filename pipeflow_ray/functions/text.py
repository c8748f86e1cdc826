"""Text analysis stages for the ``documents`` table: language ID, quality
scoring, token counting, document fingerprinting.

All are stateless vectorized Arrow-batch transforms (``pyarrow.compute``
regex/string kernels + pandas hashing); the language-ID stage is a callable
class so its per-language patterns compile once per actor, not per batch.
"""

from __future__ import annotations

import functools as _functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# whitespace-delimited tokens
_TOKEN_RE = r"\S+"
# BPE-ish word/punct split (public GPT-2-style shape: words, numbers, punct runs)
_BPE_RE = r"[A-Za-z]+|[0-9]{1,3}|[^A-Za-z0-9\s]+"

_STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "for", "with"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "mit", "ein"],
    "fr": ["le", "la", "les", "et", "des", "est", "dans", "pour"],
    "es": ["el", "la", "los", "que", "de", "es", "por", "con"],
}


def token_count(text_col: str = "text", out: str = "n_tokens"):
    """Whitespace token count — one vectorized regex kernel per batch."""

    def _apply(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(pc.fill_null(t[text_col], ""), _TOKEN_RE)
        return t.append_column(out, n.cast(pa.int64()))

    return _apply


def bpe_token_estimate(text_col: str = "text", out: str = "n_bpe_tokens"):
    """BPE-ish token estimate: count of word/number/punct fragments."""

    def _apply(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(pc.fill_null(t[text_col], ""), _BPE_RE)
        return t.append_column(out, n.cast(pa.int64()))

    return _apply


class QualityScore:
    """Quality scoring: length score, alpha ratio, punctuation ratio, English
    stopword ratio → composite ``quality`` in [0, 1]. Patterns are constants;
    class form keeps the stage shape uniform with heavier scorers."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop_re = r"(?i)\b(?:" + "|".join(_STOPWORDS["en"]) + r")\b"

    def __call__(self, t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[self.text_col], "")
        n_chars = pc.utf8_length(text).cast(pa.float64())
        safe_chars = pc.max_element_wise(n_chars, 1.0)
        n_alpha = pc.count_substring_regex(text, r"[A-Za-z]").cast(pa.float64())
        n_punct = pc.count_substring_regex(text, r"[^\w\s]").cast(pa.float64())
        n_tok = pc.count_substring_regex(text, _TOKEN_RE).cast(pa.float64())
        n_stop = pc.count_substring_regex(text, self.stop_re).cast(pa.float64())
        alpha_ratio = pc.divide(n_alpha, safe_chars)
        punct_ratio = pc.divide(n_punct, safe_chars)
        stop_ratio = pc.divide(n_stop, pc.max_element_wise(n_tok, 1.0))
        len_score = pc.min_element_wise(pc.divide(n_chars, 500.0), 1.0)
        quality = pc.add(
            pc.add(pc.multiply(alpha_ratio, 0.4), pc.multiply(len_score, 0.3)),
            pc.add(
                pc.multiply(pc.min_element_wise(pc.multiply(stop_ratio, 3.0), 1.0), 0.2),
                pc.multiply(pc.subtract(1.0, pc.min_element_wise(pc.multiply(punct_ratio, 2.0), 1.0)), 0.1),
            ),
        )
        # empty documents score 0, not the punct-free bonus
        quality = pc.multiply(quality, pc.min_element_wise(n_chars, 1.0))
        t = t.append_column("alpha_ratio", alpha_ratio)
        t = t.append_column("stopword_ratio", stop_ratio)
        return t.append_column("quality", quality)


class LangId:
    """N-gram/stopword-vote language ID over {en, de, fr, es} (+ 'und' for
    undetermined). Regexes compile once per actor (``__init__``), each batch
    is four vectorized count kernels + an argmax."""

    def __init__(self, text_col: str = "text", out: str = "lang_pred"):
        self.text_col = text_col
        self.out = out
        self.pats = {
            lang: r"(?i)\b(?:" + "|".join(ws) + r")\b" for lang, ws in _STOPWORDS.items()
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[self.text_col], "")
        votes = np.stack(
            [pc.count_substring_regex(text, p).to_numpy(zero_copy_only=False) for p in self.pats.values()]
        )
        langs = np.array(list(self.pats))
        best = langs[votes.argmax(axis=0)]
        best = np.where(votes.max(axis=0) == 0, "und", best)
        return t.append_column(self.out, pa.array(best, pa.string()))


WINNOW_P = np.uint64(1_099_511_628_211)  # FNV prime; k-gram rolling-hash base


def _kgram_hashes(text: str, k: int) -> np.ndarray:
    """POSITIONAL k-gram rolling polynomial hashes over the codepoint array
    (one hash per window position, duplicates kept — the winnowing input;
    ``dedup._char_shingle_hashes`` is the distinct-set variant). Texts
    shorter than k are right-padded with spaces to one k-gram."""
    cp = np.frombuffer(text.encode("utf-32-le", "ignore"), dtype=np.uint32).astype(np.uint64)
    if len(cp) < k:
        cp = np.pad(cp, (0, k - len(cp)), constant_values=32)
    powers = WINNOW_P ** np.arange(k, dtype=np.uint64)
    return np.lib.stride_tricks.sliding_window_view(cp, k) @ powers  # wraps mod 2^64


class WinnowFingerprint:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    "Winnowing: Local Algorithms for Document Fingerprinting", SIGMOD 2003):
    k-gram rolling hash at every position, then the minimum hash of each
    window of *w* consecutive k-grams is selected; the distinct selected
    hashes are the doc's fingerprint set. Guarantees any shared substring of
    length ≥ w+k−1 contributes a shared fingerprint — the local-sampling
    property plain whole-doc hashing (``fingerprint``) lacks.

    Emits two derived columns: ``n_fp`` (fingerprint count) and ``fp_xor``
    (xor digest of the set, an order-independent checksum cheap to compare
    and to aggregate further). Per-batch work is a per-doc loop of pure
    numpy sliding-window ops; hashes never leave the task unless the caller
    keeps them."""

    def __init__(self, text_col: str = "text", k: int = 5, w: int = 4):
        if k < 1 or w < 1:
            raise ValueError(f"k and w must be >= 1, got k={k} w={w}")
        self.text_col, self.k, self.w = text_col, k, w

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        n_fp = np.empty(len(texts), np.int64)
        fp_xor = np.zeros(len(texts), np.uint64)
        for i, x in enumerate(texts):
            h = _kgram_hashes(x or "", self.k)
            if len(h) >= self.w:
                mins = np.lib.stride_tricks.sliding_window_view(h, self.w).min(axis=1)
            else:  # fewer k-grams than one window: the single global min
                mins = h.min(keepdims=True)
            fps = np.unique(mins)
            n_fp[i] = len(fps)
            fp_xor[i] = np.bitwise_xor.reduce(fps)
        t = t.append_column("n_fp", pa.array(n_fp, pa.int64()))
        return t.append_column("fp_xor", pa.array(fp_xor.view(np.int64), pa.int64()))


# --- stateless wrappers over per-process cached scorers -------------------
# Light state (compiled regexes, hash coefficients) caches per worker
# process; a per-query actor pool pays ~1 s of process spawn for the same
# effect. Heavy-state stages (multimodal decoders) keep real actor pools.

@_functools.lru_cache(maxsize=8)
def _cached_stage(cls_name: str, *args):
    cls = {"lang": LangId, "quality": QualityScore, "winnow": WinnowFingerprint}[cls_name]
    return cls(*args)


def lang_id_batch(t: pa.Table, *, text_col: str = "text", out: str = "lang_pred") -> pa.Table:
    return _cached_stage("lang", text_col, out)(t)


def quality_batch(t: pa.Table, *, text_col: str = "text") -> pa.Table:
    return _cached_stage("quality", text_col)(t)


def winnow_batch(t: pa.Table, *, text_col: str = "text", k: int = 5, w: int = 4) -> pa.Table:
    return _cached_stage("winnow", text_col, k, w)(t)


def fingerprint(text_col: str = "text", out: str = "fingerprint", normalize: bool = True):
    """64-bit document fingerprint over (optionally) normalized text —
    lowercase + collapsed whitespace, then a vectorized 64-bit hash. The
    normalized-content identity used by exact dedup."""

    def _apply(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[text_col], "")
        if normalize:
            text = pc.utf8_lower(text)
            text = pc.replace_substring_regex(text, r"\s+", " ")
            text = pc.utf8_trim_whitespace(text)
        s = text.to_pandas()
        h = pd.util.hash_array(s.to_numpy(dtype=object)).view(np.int64)
        return t.append_column(out, pa.array(h, pa.int64()))

    return _apply


def repetition_stats(text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition signals per document (the published repetition
    quality-filter family — Rae et al. 2021 appendix A1, adapted to exact
    token counts): multiplicity of the most frequent token bigram and the
    duplicate-trigram fraction over the literal space-split token stream.

    Output is exact integers plus micro-floored ratios (driver-gate float
    discipline): ``n_tokens, top_bigram_n, n_trigrams, distinct_trigrams,
    top2_micro = floor(1e6·2·top_bigram_n/n_tokens), dup3_micro =
    floor(1e6·(n_trigrams−distinct_trigrams)/n_trigrams)``.

    One Arrow literal-space split + one vectorized token hash + run-length
    counting per batch — no per-row Python. N-grams are compared by 64-bit
    multiply-add-wrap hash (collision odds ~n²/2⁻⁶⁴ per doc, negligible; the
    SQL oracle compares exact strings). Stateless: safe for the warm task
    pool, no actor pool needed.
    """

    M = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier — wrap-mod-2^64 mixing

    def _run_starts(d: np.ndarray, v: np.ndarray):
        """Sort (doc, hash) pairs; return (sorted doc ids, run-start mask,
        run lengths) — the shared primitive for max-count and distinct."""
        o = np.lexsort((v, d))
        d = d[o]
        v = v[o]
        new = np.empty(len(v), dtype=bool)
        new[0] = True
        new[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        starts = np.nonzero(new)[0]
        runlen = np.diff(np.append(starts, len(v)))
        return d, new, starts, runlen

    def _apply(t: pa.Table) -> pa.Table:
        n = t.num_rows
        texts = pc.fill_null(t[text_col], "")
        lists = pc.split_pattern(texts, " ").combine_chunks()
        off = lists.offsets.to_numpy().astype(np.int64)
        L = np.diff(off)  # tokens per doc (≥1 — '' splits to [''])
        th = pd.util.hash_array(lists.values.to_pandas().to_numpy(dtype=object)).astype(np.uint64)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), L)

        top_bigram = np.zeros(n, dtype=np.int64)
        if len(th) >= 2:
            same = doc_of[:-1] == doc_of[1:]
            if same.any():
                bd = doc_of[:-1][same]
                bh = th[:-1][same] * M + th[1:][same]
                d, _new, starts, runlen = _run_starts(bd, bh)
                np.maximum.at(top_bigram, d[starts], runlen)

        n_tri = np.maximum(L - 2, 0)
        distinct_tri = np.zeros(n, dtype=np.int64)
        if len(th) >= 3:
            same3 = doc_of[:-2] == doc_of[2:]
            if same3.any():
                td = doc_of[:-2][same3]
                t3 = (th[:-2][same3] * M + th[1:-1][same3]) * M + th[2:][same3]
                d, new, _starts, _runlen = _run_starts(td, t3)
                distinct_tri = np.bincount(d[new], minlength=n).astype(np.int64)

        top2 = np.where(
            L >= 2, np.floor(1e6 * 2.0 * top_bigram / np.maximum(L, 1)), 0
        ).astype(np.int64)
        dup3 = np.where(
            n_tri > 0, np.floor(1e6 * (n_tri - distinct_tri) / np.maximum(n_tri, 1)), 0
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": pa.array(L, pa.int64()),
                "top_bigram_n": pa.array(top_bigram, pa.int64()),
                "n_trigrams": pa.array(n_tri, pa.int64()),
                "distinct_trigrams": pa.array(distinct_tri, pa.int64()),
                "top2_micro": pa.array(top2, pa.int64()),
                "dup3_micro": pa.array(dup3, pa.int64()),
            }
        )

    return _apply


# PII patterns — RE2 syntax, deliberately: Arrow's regex kernels and DuckDB's
# regexp_* are BOTH RE2, so the redaction oracle is bit-identical by
# construction (no python-re vs RE2 semantic drift).
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE_RE = r"\b\d{3}-\d{3}-\d{4}\b"


def pii_redact(text_col: str = "text", out: str = "text_redacted"):
    """PII detection + redaction (training-data scrubbing): count and replace
    emails, IPv4 addresses and NNN-NNN-NNNN phone numbers with typed tokens.

    Fixed order (email → ip → phone, each counted before the previous
    replacement could alter it) so the composition is deterministic. Pure
    Arrow RE2 kernels — one count + one replace per category per batch;
    stateless, safe for the warm task pool.

    Appends ``n_emails, n_ips, n_phones`` (int64) and the redacted text.
    """

    def _apply(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[text_col], "")
        n_em = pc.count_substring_regex(text, PII_EMAIL_RE).cast(pa.int64())
        red = pc.replace_substring_regex(text, PII_EMAIL_RE, "<EMAIL>")
        n_ip = pc.count_substring_regex(red, PII_IP_RE).cast(pa.int64())
        red = pc.replace_substring_regex(red, PII_IP_RE, "<IP>")
        n_ph = pc.count_substring_regex(red, PII_PHONE_RE).cast(pa.int64())
        red = pc.replace_substring_regex(red, PII_PHONE_RE, "<PHONE>")
        t = t.append_column("n_emails", n_em)
        t = t.append_column("n_ips", n_ip)
        t = t.append_column("n_phones", n_ph)
        return t.append_column(out, red)

    return _apply


def _doc_token_tf(t: pa.Table, text_col: str, id_col: str) -> pd.DataFrame:
    """Per-batch explode → (doc, token, tf): one Arrow literal-space split,
    then a C-level pandas groupby over (doc, token) strings — exact (no
    hashing), each document is a single row so tf never splits across
    batches."""
    lists = pc.split_pattern(pc.fill_null(t[text_col], ""), " ").combine_chunks()
    off = lists.offsets.to_numpy().astype(np.int64)
    doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), np.diff(off))
    df = pd.DataFrame({"__row": doc_of, "token": lists.values.to_pandas()})
    g = df.groupby(["__row", "token"], sort=False).size().reset_index(name="tf")
    ids = t[id_col].to_pandas()
    return pd.DataFrame(
        {
            id_col: ids.iloc[g["__row"]].to_numpy(),
            "token": g.token.to_numpy(),
            "tf": g.tf.to_numpy(np.int64),
        }
    )


def _tfidf_reduce(df: pd.DataFrame, n_docs: int, id_col: str) -> pd.DataFrame:
    """Per-token-bucket reduce: document frequency + rational tf-idf score.
    Rows arrive one-per-(doc, token), so df = group size."""
    dfc = df.groupby("token", sort=False)["tf"].transform("size").to_numpy(np.int64)
    out = pd.DataFrame(
        {
            id_col: df[id_col].to_numpy(),
            "token": df.token.to_numpy(),
            "tf": df.tf.to_numpy(np.int64),
            "df": dfc,
        }
    )
    # rational idf (tf·N/df), micro-floored: ln-free so the score is a single
    # float division of exact ints — bit-identical across engines (the same
    # reason the driver-gate discipline avoids float accumulation)
    out["tfidf_micro"] = np.floor(
        1e6 * out.tf.to_numpy() * float(n_docs) / dfc
    ).astype(np.int64)
    return out


def _inverted_reduce(df: pd.DataFrame, id_col: str, sep: str) -> pd.DataFrame:
    """Per-token-bucket reduce: df, total tf, and the ascending-doc-id
    posting string. One C-level join per TOKEN (the group_concat
    discipline), never per row."""
    df = df.sort_values(["token", id_col], kind="stable")
    ids = df[id_col].astype(str)
    g = df.groupby("token", sort=False)
    out = g.agg(df_docs=(id_col, "size"), total_tf=("tf", "sum")).reset_index()
    out["postings"] = g[id_col].agg(
        lambda s: sep.join(ids.loc[s.index])).to_numpy()
    out["df_docs"] = out.df_docs.astype(np.int64)
    out["total_tf"] = out.total_tf.astype(np.int64)
    return out[["token", "df_docs", "total_tf", "postings"]]


def inverted_index(docs, text_col: str = "text", id_col: str = "doc_id",
                   num_buckets: int | None = None, sep: str = ","):
    """Inverted index build: one row per token with document frequency,
    total term frequency, and the ascending-id posting list (joined string)
    — the IR index stage over a curated corpus. Same shape as
    :func:`tfidf_terms`: per-batch explode to (doc, token, tf) rows, ONE
    token-keyed exchange co-locating each term's postings. Hot-token skew
    note as there: a stopword's postings land in one bucket — cap or drop
    stopword-frequency terms at corpus scale."""
    import functools

    from pipeflow_ray.stages.core import grouped_by_bucket

    tf = docs.map_batches(
        functools.partial(_doc_token_tf, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )
    red = functools.partial(_inverted_reduce, id_col=id_col, sep=sep)
    return grouped_by_bucket(tf, ["token"], red, num_buckets=num_buckets,
                             batch_format="pandas")


def tfidf_terms(docs, text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int | None = None):
    """Corpus vocabulary statistics + per-(doc, token) tf-idf scores — the
    vocabulary-build stage of a training-data pipeline.

    Shape: per-batch explode computes exact per-doc term frequencies (each
    doc is one row, so no combiner is needed), ONE token-keyed exchange
    co-locates each term's postings to count document frequency and attach
    it back — no driver aggregation, no second pass. Corpus size N is a
    Dataset count (metadata-cheap). Hot-token skew note: a stopword's
    postings land in one bucket; at corpus scale pre-aggregate or broadcast
    the df table for bounded vocabularies instead.
    """
    import functools

    from pipeflow_ray.stages.core import grouped_by_bucket

    n_docs = docs.count()
    tf = docs.map_batches(
        functools.partial(_doc_token_tf, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )
    red = functools.partial(_tfidf_reduce, n_docs=n_docs, id_col=id_col)
    return grouped_by_bucket(tf, ["token"], red, num_buckets=num_buckets,
                             batch_format="pandas")


NGRAM_SEP = "\x1f"  # unit separator — token n-gram join char (cannot occur in
# space-split tokens, so the joined string is a bijective n-gram encoding)


def _token_ngrams(t: pa.Table, text_col: str, k: int):
    """(doc_of, ngram_strings) for every k-token window position (duplicates
    kept). Vectorized: one Arrow split + k-1 shifted pandas str concats."""
    lists = pc.split_pattern(pc.fill_null(t[text_col], ""), " ").combine_chunks()
    off = lists.offsets.to_numpy().astype(np.int64)
    L = np.diff(off)
    doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), L)
    toks = lists.values.to_pandas()
    n = len(toks)
    if n < k:
        return np.empty(0, np.int64), pd.Series([], dtype=object)
    same = doc_of[: n - k + 1] == doc_of[k - 1 :]
    grams = toks.iloc[: n - k + 1].reset_index(drop=True)
    for j in range(1, k):
        grams = grams + NGRAM_SEP + toks.iloc[j : n - k + 1 + j].reset_index(drop=True)
    return doc_of[: n - k + 1][same], grams[same]


def build_ngram_blocklist(texts, k: int = 3) -> np.ndarray:
    """Distinct k-token n-grams of *texts* (a list/Series/Arrow column) — the
    decontamination reference set (eval benchmarks, held-out sets). These
    lists are small by nature; callers ``ray.put`` the result once and read
    it through the per-worker broadcast cache."""
    t = pa.table({"text": pa.array([x if x is not None else "" for x in texts], pa.string())})
    _d, grams = _token_ngrams(t, "text", k)
    return grams.unique()


def contamination_check(blocklist_ref, k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Per-document contamination against a broadcast n-gram blocklist:
    ``n_hits`` = number of k-token window positions whose n-gram appears in
    the blocklist, ``contaminated`` = n_hits > 0 (as int64 for SQL parity).

    The blocklist travels as ONE object-store entry (`ray.put` by the
    caller), fetched once per worker process via the broadcast cache — never
    re-shipped per batch; membership is a C-level ``Series.isin``. Stateless
    fn over the warm task pool."""
    from pipeflow_ray.stages.core import cached_broadcast

    def _apply(t: pa.Table) -> pa.Table:
        block = cached_broadcast(blocklist_ref)
        doc_of, grams = _token_ngrams(t, text_col, k)
        n_hits = np.zeros(t.num_rows, dtype=np.int64)
        if len(grams):
            hit = grams.isin(block).to_numpy()
            if hit.any():
                n_hits = np.bincount(doc_of[hit], minlength=t.num_rows).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array((n_hits > 0).astype(np.int64), pa.int64()),
            }
        )

    return _apply


_BLOOM_ODD = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5], dtype=np.uint64)


def build_ngram_bloom(texts, k: int = 3, bits_per_gram: int = 16,
                      n_hashes: int = 4) -> dict:
    """Bloom filter over a blocklist's k-token n-grams — the scale path for
    decontamination when the exact gram set is too large to broadcast (a
    10^9-gram eval-suite blocklist is ~100 GB of strings but ~2 GB of bloom
    bits at 16 bits/gram). Deterministic: grams hash via the same stable
    64-bit hash as the exact path, positions via odd-multiplier
    multiply-shift.

    Membership is APPROXIMATE one-sided: no false negatives; false-positive
    rate ≈ (1 − e^{−k/bits_per_gram·n})^n ≈ 0.2% at 16 bits / 4 hashes
    (asserted in tests). Use the exact set when it fits."""
    grams = build_ngram_blocklist(texts, k)
    n = max(1, len(grams))
    log2m = max(8, int(np.ceil(np.log2(n * bits_per_gram))))
    m = 1 << log2m
    bits = np.zeros(m >> 6, dtype=np.uint64)
    h = pd.util.hash_array(np.asarray(grams, dtype=object)).astype(np.uint64)
    for j in range(n_hashes):
        pos = (h * _BLOOM_ODD[j]) >> np.uint64(64 - log2m)
        np.bitwise_or.at(bits, pos >> np.uint64(6),
                         np.uint64(1) << (pos & np.uint64(63)))
    return {"bits": bits, "log2m": log2m, "n_hashes": n_hashes, "k": k}


def _bloom_contains(bloom: dict, grams: pd.Series) -> np.ndarray:
    if not len(grams):
        return np.zeros(0, dtype=bool)
    h = pd.util.hash_array(grams.to_numpy(dtype=object)).astype(np.uint64)
    log2m = bloom["log2m"]
    bits = bloom["bits"]
    hit = np.ones(len(h), dtype=bool)
    for j in range(bloom["n_hashes"]):
        pos = (h * _BLOOM_ODD[j]) >> np.uint64(64 - log2m)
        hit &= ((bits[pos >> np.uint64(6)] >> (pos & np.uint64(63)))
                & np.uint64(1)).astype(bool)
    return hit


def contamination_check_bloom(bloom_ref, k: int = 3, text_col: str = "text",
                              id_col: str = "doc_id"):
    """Bloom-filter form of :func:`contamination_check`: same output schema,
    one-sided approximate (hits are a SUPERSET of the exact hits; FP rate
    per the bloom's sizing). The bloom broadcasts as one bit array via
    ``ray.put`` + the per-worker cache."""
    from pipeflow_ray.stages.core import cached_broadcast

    def _apply(t: pa.Table) -> pa.Table:
        bloom = cached_broadcast(bloom_ref)
        doc_of, grams = _token_ngrams(t, text_col, k)
        n_hits = np.zeros(t.num_rows, dtype=np.int64)
        if len(grams):
            hit = _bloom_contains(bloom, grams)
            if hit.any():
                n_hits = np.bincount(doc_of[hit], minlength=t.num_rows).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array((n_hits > 0).astype(np.int64), pa.int64()),
            }
        )

    return _apply


# ---------------------------------------------------------------------------
# BM25 lexical retrieval (rational-idf variant, cross-engine deterministic)
# ---------------------------------------------------------------------------

def _split_tokens(t: pa.Table, text_col: str):
    """(dl, doc_of, tokens) for a batch: one Arrow split, list offsets give
    per-row token counts — no Python per-row work."""
    lists = pc.split_pattern(pc.fill_null(t[text_col], ""), " ").combine_chunks()
    off = lists.offsets.to_numpy().astype(np.int64)
    dl = np.diff(off)
    doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), dl)
    return dl, doc_of, lists.values.to_pandas()


def _bm25_stats_partial(t: pa.Table, *, terms_ref, text_col: str) -> pa.Table:
    """Per-batch corpus-statistic partials as SPARSE (idx, val) pairs —
    idx < T is per-term document frequency, idx == T the batch doc count,
    idx == T+1 the batch token total. Sparse pairs, never positional
    vectors: Ray's iter_batches slices/coalesces block boundaries (working
    notes), so positional folding is unsafe."""
    from pipeflow_ray.stages.core import cached_broadcast

    terms = cached_broadcast(terms_ref)  # sorted ndarray[object] of query terms
    big_t = np.int64(len(terms))
    dl, doc_of, toks = _split_tokens(t, text_col)
    idxs = [np.array([big_t, big_t + 1], np.int64)]
    vals = [np.array([t.num_rows, int(dl.sum())], np.int64)]
    ti = pd.Index(terms).get_indexer(toks)  # hash lookup, -1 = not a query term
    m = ti >= 0
    if m.any():
        pair = np.unique(doc_of[m] * big_t + ti[m])  # distinct (doc, term)
        df = np.bincount((pair % big_t).astype(np.int64), minlength=len(terms))
        nz = np.nonzero(df)[0].astype(np.int64)
        idxs.append(nz)
        vals.append(df[nz].astype(np.int64))
    return pa.table({"idx": pa.array(np.concatenate(idxs), pa.int64()),
                     "val": pa.array(np.concatenate(vals), pa.int64())})


def _bm25_score_partial(t: pa.Table, *, bref, k: int, k1: float, b: float,
                        text_col: str, id_col: str) -> pa.Table:
    """Per-batch BM25 scoring + local top-k per query. Shared-term work is
    factored: each (doc, term) contribution is computed ONCE and reused by
    every query containing the term. Contributions are floored to int64
    micro-units PER TERM before summing (the driver-gate float discipline),
    so the score is bit-deterministic across engines — every float op in
    the chain is an IEEE basic op mirrored operation-for-operation by the
    SQL oracle (no ln; the idf is the rational (N-df+0.5)/(df+0.5), same
    convention as tfidf_terms' ln-free idf)."""
    from pipeflow_ray.stages.core import cached_broadcast

    terms, idf, avgdl, qterm_idx = cached_broadcast(bref)
    big_t = len(terms)
    n = t.num_rows
    dl, doc_of, toks = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    out_q, out_id, out_sc, out_nt = [], [], [], []
    ti = pd.Index(terms).get_indexer(toks)
    m = ti >= 0
    if m.any() and n:
        key = doc_of[m] * np.int64(big_t) + ti[m]
        tf_mat = np.bincount(key, minlength=n * big_t).reshape(n, big_t)
        tfd = tf_mat.astype(np.float64)
        dld = dl.astype(np.float64)[:, None]
        # mirrored by the SQL oracle token-for-token (parenthesization matters:
        # IEEE basic ops are deterministic only at fixed association order)
        denom = tfd + (k1 * ((1.0 - b) + ((b * dld) / avgdl)))
        num = tfd * (k1 + 1.0)
        contrib = np.floor(((1000000.0 * idf[None, :]) * num) / denom).astype(np.int64)
        contrib[tf_mat == 0] = 0  # floor(0/denom) is 0 already; explicit for clarity
        matched = tf_mat > 0
        for qi, tidx in enumerate(qterm_idx):
            nt = matched[:, tidx].sum(axis=1).astype(np.int64)
            hit = np.nonzero(nt)[0]
            if not len(hit):
                continue
            sc = contrib[hit][:, tidx].sum(axis=1)
            order = np.lexsort((ids[hit], -sc))[:k]  # score desc, id asc
            sel = hit[order]
            out_q.append(np.full(len(sel), qi, np.int64))
            out_id.append(ids[sel])
            out_sc.append(sc[order])
            out_nt.append(nt[sel])
    cat = (lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64))
    return pa.table({
        "query_id": pa.array(cat(out_q), pa.int64()),
        id_col: pa.array(cat(out_id), pa.int64()),
        "score_micro": pa.array(cat(out_sc), pa.int64()),
        "n_terms": pa.array(cat(out_nt), pa.int64()),
    })


def bm25_topk(docs, query_terms, k: int = 10, k1: float = 1.2, b: float = 0.75,
              text_col: str = "text", id_col: str = "doc_id"):
    """BM25 lexical retrieval: top-*k* documents per query, rational-idf
    variant (idf = (N-df+0.5)/(df+0.5), no ln — bit-deterministic across
    engines, the same convention as :func:`tfidf_terms`).

    *query_terms* is a list of term collections, one per query; scores sum
    the per-term BM25 contribution over each query's DISTINCT terms.

    Shape (two corpus passes, no shuffle — retrieval over an unindexed
    corpus cannot do better without a prebuilt posting index):

    1. **stats pass** — sparse int (idx, val) partials per batch (per-term
       df restricted to the union of query terms, doc count, token total);
       driver folds O(T) rows. Nothing text-shaped leaves the tasks.
    2. **score pass** — terms + idf + query incidence broadcast ONCE
       (``ray.put`` + per-worker cache); each batch computes every
       (doc, term) contribution once via one bincount matrix, reuses it
       across queries, and emits only its LOCAL top-k per query; the
       driver merges ≤ Q x k rows per block (the brute_force_topk merge
       pattern — not a corpus materialization).

    Output: (query_id, id_col, score_micro, n_terms, rk), rank 1..k per
    query by (score desc, id asc) — tie-safe and deterministic. Only docs
    matching >= 1 query term appear (standard retrieval semantics).
    """
    import functools

    import ray
    import ray.data as _rd

    term_union = sorted({str(w) for qts in query_terms for w in qts})
    terms = np.array(term_union, dtype=object)
    big_t = len(terms)
    terms_ref = ray.put(terms)
    parts = docs.map_batches(
        functools.partial(_bm25_stats_partial, terms_ref=terms_ref, text_col=text_col),
        batch_format="pyarrow",
    ).to_pandas()
    agg = parts.groupby("idx")["val"].sum() if len(parts) else pd.Series(dtype=np.int64)
    n_docs = int(agg.get(big_t, 0))
    if n_docs == 0:  # empty corpus: no idf, no average length, no hits
        return _rd.from_arrow(_bm25_empty(id_col))
    total_tokens = int(agg.loc[big_t + 1])
    df = np.zeros(big_t, np.int64)
    tdf = agg[agg.index < big_t]
    df[tdf.index.to_numpy()] = tdf.to_numpy()
    # integer subtract first, then convert — mirrors CAST(N - df AS DOUBLE)
    idf = ((n_docs - df).astype(np.float64) + 0.5) / (df.astype(np.float64) + 0.5)
    avgdl = float(total_tokens) / float(n_docs)
    tix = pd.Index(terms)
    qterm_idx = [np.unique(tix.get_indexer([str(w) for w in qts])) for qts in query_terms]
    bref = ray.put((terms, idf, avgdl, qterm_idx))
    partials = docs.map_batches(
        functools.partial(_bm25_score_partial, bref=bref, k=k, k1=k1, b=b,
                          text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )
    pdf = partials.to_pandas()
    if not len(pdf):  # no doc matches any query term
        return _rd.from_arrow(_bm25_empty(id_col))
    pdf = pdf.sort_values(["query_id", "score_micro", id_col],
                          ascending=[True, False, True], kind="mergesort")
    pdf = pdf.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    pdf["rk"] = (pdf.groupby("query_id").cumcount().to_numpy() + 1).astype(np.int64)
    return _rd.from_pandas(pdf)


def _bm25_empty(id_col: str) -> pa.Table:
    return pa.schema([("query_id", pa.int64()), (id_col, pa.int64()),
                      ("score_micro", pa.int64()), ("n_terms", pa.int64()),
                      ("rk", pa.int64())]).empty_table()
