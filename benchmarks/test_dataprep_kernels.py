"""Data-prep kernel scaling — scalar vs vectorized embedding path.

Times ``HashingEmbedder.embed_all`` (the vectorized kernel behind cluster
batching) against ``embed_all_reference`` (the row-by-row reference) on
record-style corpora of growing size, asserts the two produce bit-identical
matrices, and requires the vectorized path to be at least
``MIN_SPEEDUP_AT_10K``x faster at the largest size.  The k-means
convergence exit is timed on the resulting matrix as a secondary row.

Writes ``BENCH_dataprep.json`` (machine-readable: per-size wall times,
speedups, hash-cache occupancy, k-means iteration counts) for CI artifact
upload.  Environment knobs:

- ``REPRO_DATAPREP_SIZES`` — comma-separated corpus sizes
  (default ``100,1000,10000``).  CI's smoke job sets ``100``; the speedup
  floor is only asserted when a size >= 10000 is included, because the
  vectorized path's fixed setup cost dominates tiny inputs.
- ``REPRO_DATAPREP_OUT`` — output path (default ``BENCH_dataprep.json``).
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.eval.reporting import render_table
from repro.ml.kmeans import KMeans
from repro.testing.reference import embed_all_reference
from repro.text.embeddings import HashingEmbedder, clear_hash_cache, hash_cache_size

#: required scalar/vectorized wall-clock ratio at the 10k corpus
MIN_SPEEDUP_AT_10K = 5.0

DEFAULT_SIZES = (100, 1_000, 10_000)

_WORDS = (
    "stone brewing pale ale india lager stout porter amber wheat "
    "double imperial session hazy crisp malty hoppy citrus pine resin "
    "san diego portland denver chicago boston austin seattle tampa"
).split()


def _sizes():
    raw = os.environ.get("REPRO_DATAPREP_SIZES", "")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _make_corpus(n, seed):
    """Record serializations shaped like the EM/ED prompt inputs."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n):
        name = " ".join(rng.choice(_WORDS, size=3))
        style = f"{rng.choice(_WORDS)} ale"
        abv = f"{rng.uniform(3.5, 12.0):.1f}"
        corpus.append(f'[name: "{name}", style: "{style}", abv: "{abv}"]')
    return corpus


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _measure(embedder, corpus):
    """Cold/warm vectorized and scalar wall times plus both matrices."""
    # Tiny calls first: numpy's lazy first-use setup (ufunc dispatch,
    # sliding-window machinery) must not be billed to either path.
    embedder.embed_all(corpus[:32])
    embed_all_reference(embedder, corpus[:8])

    clear_hash_cache()
    started = time.perf_counter()
    cold_matrix = embedder.embed_all(corpus)
    cold_s = time.perf_counter() - started

    warm_matrix, warm_s = _best_of(lambda: embedder.embed_all(corpus), rounds=3)
    scalar_matrix, scalar_s = _best_of(
        lambda: embed_all_reference(embedder, corpus), rounds=1
    )
    return {
        "cold_s": cold_s, "warm_s": warm_s, "scalar_s": scalar_s,
        "cold_matrix": cold_matrix, "warm_matrix": warm_matrix,
        "scalar_matrix": scalar_matrix, "cache_terms": hash_cache_size(),
    }


def _sweep(sizes, seed):
    embedder = HashingEmbedder()
    out = {}
    for n in sizes:
        corpus = _make_corpus(n, seed)
        cell = _measure(embedder, corpus)

        matrix = cell["warm_matrix"]
        k = max(2, min(16, n // 20))
        started = time.perf_counter()
        early = KMeans(k=k, seed=seed).fit(matrix)
        cell["kmeans_early_s"] = time.perf_counter() - started
        started = time.perf_counter()
        full = KMeans(k=k, seed=seed, early_stop=False).fit(matrix)
        cell["kmeans_full_s"] = time.perf_counter() - started
        cell["kmeans_k"] = k
        cell["kmeans_n_iter_early"] = early.n_iter_
        cell["kmeans_n_iter_full"] = full.n_iter_
        cell["kmeans_labels_equal"] = bool(
            np.array_equal(early.labels_, full.labels_)
        )
        out[n] = cell
    return out


def test_vectorized_kernels_scale(benchmark, seed):
    sizes = _sizes()
    results = run_once(benchmark, _sweep, sizes, seed)

    rows, payload = [], {}
    for n, cell in sorted(results.items()):
        speedup_cold = cell["scalar_s"] / cell["cold_s"]
        speedup_warm = cell["scalar_s"] / cell["warm_s"]
        rows.append([
            str(n),
            f"{cell['scalar_s'] * 1e3:.1f}",
            f"{cell['cold_s'] * 1e3:.1f}",
            f"{cell['warm_s'] * 1e3:.1f}",
            f"{speedup_warm:.1f}x",
            f"{cell['kmeans_n_iter_early']}/{cell['kmeans_n_iter_full']}",
        ])
        payload[f"n_{n}"] = {
            "scalar_s": cell["scalar_s"],
            "vectorized_cold_s": cell["cold_s"],
            "vectorized_warm_s": cell["warm_s"],
            "speedup_cold": speedup_cold,
            "speedup_warm": speedup_warm,
            "hash_cache_terms": cell["cache_terms"],
            "kmeans_k": cell["kmeans_k"],
            "kmeans_early_s": cell["kmeans_early_s"],
            "kmeans_full_s": cell["kmeans_full_s"],
            "kmeans_n_iter_early": cell["kmeans_n_iter_early"],
            "kmeans_n_iter_full": cell["kmeans_n_iter_full"],
        }
    payload["meta"] = {
        "sizes": list(sizes),
        "seed": seed,
        "min_speedup_at_10k": MIN_SPEEDUP_AT_10K,
        "embedder": {"dim": HashingEmbedder().dim,
                     "ngram": HashingEmbedder().ngram},
    }
    print()
    print(render_table(
        "Data-prep kernels — scalar vs vectorized embed_all",
        ["n", "scalar ms", "cold ms", "warm ms", "speedup", "km iters"],
        rows,
    ))

    out_path = os.environ.get("REPRO_DATAPREP_OUT", "BENCH_dataprep.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out_path}")

    for n, cell in results.items():
        # The optimization contract: faster, not different.
        assert (cell["cold_matrix"] == cell["scalar_matrix"]).all()
        assert (cell["warm_matrix"] == cell["scalar_matrix"]).all()
        assert cell["kmeans_labels_equal"]
        assert cell["kmeans_n_iter_early"] <= cell["kmeans_n_iter_full"]

    large = [n for n in results if n >= 10_000]
    for n in large:
        speedup = results[n]["scalar_s"] / results[n]["warm_s"]
        assert speedup >= MIN_SPEEDUP_AT_10K, (
            f"vectorized embed_all only {speedup:.1f}x faster than scalar "
            f"at n={n}; floor is {MIN_SPEEDUP_AT_10K}x"
        )
