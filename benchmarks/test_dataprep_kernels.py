"""Data-prep kernel scaling — scalar vs vectorized embedding path, and
dynamic-programming vs bit-parallel edit distance.

Times ``HashingEmbedder.embed_all`` (the vectorized kernel behind cluster
batching) against ``embed_all_reference`` (the row-by-row reference) on
record-style corpora of growing size, asserts the two produce bit-identical
matrices, and requires the vectorized path to be at least
``MIN_SPEEDUP_AT_10K``x faster at the largest size.  The k-means
convergence exit is timed on the resulting matrix as a secondary row.

The memory row records the ``tracemalloc`` peak of a cold ``embed_all``
(hash memos cleared) and of ``KMeans.fit`` at every size.  Both work in
fixed blocks, so at 10k texts the embedding may peak at most
``EMBED_PEAK_ALLOWANCE_MIB`` above the matrix it returns, and the fit at
most ``FIT_PEAK_ALLOWANCE_MIB`` above its input.

The Levenshtein row times the bit-parallel ``levenshtein`` (behind the
error-detection solver's typo check, the lexicon's near-word check and
Magellan's edit-distance feature) against ``levenshtein_reference``, the
two-row dynamic program, on every pair of values within each
error-detection knowledge domain and on a fixed random corpus with
strings over 64 characters.  The two must agree on every pair, and at
full size the bit-parallel kernel must be ``MIN_LEVENSHTEIN_SPEEDUP``x
faster.

Writes ``BENCH_dataprep.json`` (machine-readable: per-size wall times,
speedups, hash-cache occupancy, k-means iteration counts, memory peaks,
and the ``levenshtein`` row) for CI artifact upload.  Environment knobs:

- ``REPRO_DATAPREP_SIZES`` — comma-separated corpus sizes
  (default ``100,1000,10000``).  CI's smoke job sets ``100``; the speedup
  floors and memory allowances are only asserted when a size >= 10000 is
  included, because fixed setup costs dominate tiny inputs.  The
  Levenshtein row's random corpus has ``min(largest size,
  LEVENSHTEIN_RANDOM_PAIRS)`` pairs.
- ``REPRO_DATAPREP_OUT`` — output path (default ``BENCH_dataprep.json``).
"""

import json
import os
import random
import string
import time
import tracemalloc

import numpy as np

from benchmarks.conftest import run_once
from repro.eval.reporting import render_table
from repro.llm.knowledge import KnowledgeBase
from repro.ml.kmeans import KMeans
from repro.testing.reference import embed_all_reference, levenshtein_reference
from repro.text.embeddings import HashingEmbedder, clear_hash_cache, hash_cache_size
from repro.text.similarity import levenshtein

#: required scalar/vectorized wall-clock ratio at the 10k corpus
MIN_SPEEDUP_AT_10K = 5.0

#: allowed cold ``embed_all`` tracemalloc peak above the returned matrix
#: at 10k texts: one block's transients plus the hash memos it fills
#: (2.5 MiB observed; building every n-gram at once took 55 MiB)
EMBED_PEAK_ALLOWANCE_MIB = 6.0
#: allowed ``KMeans.fit`` tracemalloc peak above its input at 10k texts:
#: the (n, k) distances and the largest cluster's member copy (5.8 MiB
#: observed; whole-matrix row reductions took 19.9 MiB)
FIT_PEAK_ALLOWANCE_MIB = 8.0

#: required dynamic-program/bit-parallel wall-clock ratio at full size
MIN_LEVENSHTEIN_SPEEDUP = 3.0
#: random pairs in the Levenshtein row at full size
LEVENSHTEIN_RANDOM_PAIRS = 2_000

DEFAULT_SIZES = (100, 1_000, 10_000)

_WORDS = (
    "stone brewing pale ale india lager stout porter amber wheat "
    "double imperial session hazy crisp malty hoppy citrus pine resin "
    "san diego portland denver chicago boston austin seattle tampa"
).split()


def _out_path():
    return os.environ.get("REPRO_DATAPREP_OUT", "BENCH_dataprep.json")


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


def _traced_peak(fn):
    """``fn()`` and the tracemalloc peak, in MiB, of what it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


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
    cache_terms = hash_cache_size()

    clear_hash_cache()
    __, embed_peak_mib = _traced_peak(lambda: embedder.embed_all(corpus))
    return {
        "cold_s": cold_s, "warm_s": warm_s, "scalar_s": scalar_s,
        "cold_matrix": cold_matrix, "warm_matrix": warm_matrix,
        "scalar_matrix": scalar_matrix, "cache_terms": cache_terms,
        "embed_peak_mib": embed_peak_mib,
        "matrix_mib": cold_matrix.nbytes / 2**20,
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
        __, cell["fit_peak_mib"] = _traced_peak(
            lambda: KMeans(k=k, seed=seed).fit(matrix)
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
            f"{cell['matrix_mib']:.1f}",
            f"{cell['embed_peak_mib']:.1f}",
            f"{cell['fit_peak_mib']:.1f}",
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
            "matrix_mib": cell["matrix_mib"],
            "embed_cold_peak_mib": cell["embed_peak_mib"],
            "kmeans_fit_peak_mib": cell["fit_peak_mib"],
        }
    payload["meta"] = {
        "sizes": list(sizes),
        "seed": seed,
        "min_speedup_at_10k": MIN_SPEEDUP_AT_10K,
        "embed_peak_allowance_mib": EMBED_PEAK_ALLOWANCE_MIB,
        "fit_peak_allowance_mib": FIT_PEAK_ALLOWANCE_MIB,
        "embedder": {"dim": HashingEmbedder().dim,
                     "ngram": HashingEmbedder().ngram},
    }
    print()
    print(render_table(
        "Data-prep kernels — scalar vs vectorized embed_all",
        ["n", "scalar ms", "cold ms", "warm ms", "speedup", "km iters",
         "matrix MiB", "embed peak MiB", "fit peak MiB"],
        rows,
    ))

    out_path = _out_path()
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
        cell = results[n]
        assert cell["embed_peak_mib"] <= (
            cell["matrix_mib"] + EMBED_PEAK_ALLOWANCE_MIB
        ), (
            f"cold embed_all peaked at {cell['embed_peak_mib']:.1f} MiB for a "
            f"{cell['matrix_mib']:.1f} MiB matrix at n={n}; allowance is "
            f"{EMBED_PEAK_ALLOWANCE_MIB} MiB"
        )
        assert cell["fit_peak_mib"] <= FIT_PEAK_ALLOWANCE_MIB, (
            f"KMeans.fit peaked {cell['fit_peak_mib']:.1f} MiB above its input "
            f"at n={n}; allowance is {FIT_PEAK_ALLOWANCE_MIB} MiB"
        )


def _domain_pairs():
    """Every ordered pair of values within each error-detection domain."""
    pairs = []
    for domain in KnowledgeBase._domain_tables().values():
        values = sorted(domain)
        pairs.extend((a, b) for a in values for b in values)
    return pairs


def _random_pairs(n, seed):
    """A fixed corpus: near pairs (a few edits apart) and unrelated ones,
    a fifth of them longer than one 64-bit word."""
    rng = random.Random(f"levenshtein:{seed}")
    alphabet = string.ascii_lowercase + " -'é"
    pairs = []
    for index in range(n):
        size = rng.randint(65, 140) if index % 5 == 0 else rng.randint(0, 24)
        a = "".join(rng.choice(alphabet) for __ in range(size))
        if index % 2:
            b = list(a)
            for __ in range(rng.randint(0, 4)):
                at = rng.randint(0, len(b))
                edit = rng.choice(("insert", "delete", "substitute"))
                if edit == "insert" or not b:
                    b.insert(at, rng.choice(alphabet))
                elif edit == "delete":
                    del b[min(at, len(b) - 1)]
                else:
                    b[min(at, len(b) - 1)] = rng.choice(alphabet)
            b = "".join(b)
        else:
            b = "".join(
                rng.choice(alphabet) for __ in range(rng.randint(0, size + 8))
            )
        pairs.append((a, b))
    return pairs


def _time_kernel(kernel, pairs):
    started = time.perf_counter()
    distances = [kernel(a, b) for a, b in pairs]
    return distances, time.perf_counter() - started


def _levenshtein_row(n_random, seed):
    row = {}
    for name, pairs in (
        ("domains", _domain_pairs()),
        ("random", _random_pairs(n_random, seed)),
    ):
        _time_kernel(levenshtein, pairs[:32])  # warm both paths
        _time_kernel(levenshtein_reference, pairs[:32])
        fast, fast_s = _time_kernel(levenshtein, pairs)
        slow, slow_s = _time_kernel(levenshtein_reference, pairs)
        row[name] = {
            "pairs": len(pairs),
            "longest": max(max(len(a), len(b)) for a, b in pairs),
            "dp_s": slow_s,
            "bit_parallel_s": fast_s,
            "speedup": slow_s / fast_s,
            "mismatches": sum(x != y for x, y in zip(fast, slow)),
        }
    return row


def test_levenshtein_kernel(benchmark, seed):
    sizes = _sizes()
    n_random = min(max(sizes), LEVENSHTEIN_RANDOM_PAIRS)
    row = run_once(benchmark, _levenshtein_row, n_random, seed)

    print()
    print(render_table(
        "Data-prep kernels — dynamic-program vs bit-parallel levenshtein",
        ["corpus", "pairs", "longest", "dp ms", "bit-parallel ms", "speedup"],
        [
            [name, str(cell["pairs"]), str(cell["longest"]),
             f"{cell['dp_s'] * 1e3:.1f}", f"{cell['bit_parallel_s'] * 1e3:.1f}",
             f"{cell['speedup']:.1f}x"]
            for name, cell in row.items()
        ],
    ))
    out_path = _out_path()
    payload = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload["levenshtein"] = {
        **row, "min_speedup": MIN_LEVENSHTEIN_SPEEDUP, "random_pairs": n_random,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote the levenshtein row to {out_path}")

    assert row["random"]["longest"] > 64
    for cell in row.values():
        # The optimization contract: faster, not different.
        assert cell["mismatches"] == 0
    if max(sizes) >= 10_000:
        for name, cell in row.items():
            assert cell["speedup"] >= MIN_LEVENSHTEIN_SPEEDUP, (
                f"bit-parallel levenshtein only {cell['speedup']:.1f}x faster "
                f"than the dynamic program on the {name} pairs; floor is "
                f"{MIN_LEVENSHTEIN_SPEEDUP}x"
            )
