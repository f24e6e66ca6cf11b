"""Shared per-run data-prep artifacts: serialize → embed → cluster, once.

The cluster-batching path needs three derived artifacts per instance set —
the serialized prompt texts, their embedding matrix, and k-means cluster
labels.  Before this layer each consumer recomputed them independently
(``make_batches``, ``batch_homogeneity``, and prompt assembly all called
``serialize_instance`` on the same instances).  A :class:`PrepArtifacts`
object owns the whole chain and memoizes every stage:

- **texts** are memoized per instance object (identity-keyed; the
  artifacts object pins the instances it has seen so ids stay unique),
  each with its token count, which prompt assembly carries to the
  request so the question block is never re-tokenized.  An owner that
  knows an entry will not be asked for again drops it with
  :meth:`PrepArtifacts.release` (a run does, batch by batch);
- **embedding matrices** are memoized by ``(dataset fingerprint,
  embedder dim, embedder ngram)`` where the fingerprint is a blake2b
  digest over the serialized texts;
- **cluster labels** are memoized by the matrix key plus ``(k, seed)``.

Determinism: every artifact is a pure function of its cache key, so
reusing a cached value is bitwise-indistinguishable from recomputing it —
which is why threading one artifacts object through a pipeline run cannot
change predictions.  Cache traffic is counted into an optional
:class:`~repro.obs.metrics.MetricsRegistry` (deterministic counts only);
wall-clock kernel timings accumulate on :class:`PrepStats`, *outside* the
metrics registry, so byte-identical runs still snapshot identically.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.contextualize import serialize_counted
from repro.data.instances import Instance
from repro.ml.kmeans import KMeans
from repro.text.embeddings import HashingEmbedder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.metrics import MetricsRegistry


@dataclass
class PrepStats:
    """What one artifacts object computed versus served from cache.

    Counts are deterministic (identical runs produce identical stats);
    the ``*_wall_s`` fields are real elapsed seconds for the benchmark
    report and are deliberately kept out of the metrics registry.
    """

    serialize_hits: int = 0
    serialize_misses: int = 0
    serialize_evictions: int = 0
    embed_hits: int = 0
    embed_misses: int = 0
    embed_texts: int = 0
    cluster_hits: int = 0
    cluster_misses: int = 0
    kmeans_iterations: int = 0
    serialize_wall_s: float = 0.0
    embed_wall_s: float = 0.0
    kmeans_wall_s: float = 0.0

    @property
    def total_hits(self) -> int:
        return self.serialize_hits + self.embed_hits + self.cluster_hits

    @property
    def total_misses(self) -> int:
        return self.serialize_misses + self.embed_misses + self.cluster_misses


class PrepArtifacts:
    """Memoized serialize → embed → cluster chain for one run.

    One artifacts object is created per :meth:`Preprocessor.run` (and may
    be shared by any caller that works over the same instances, e.g.
    ``make_batches`` followed by ``batch_homogeneity``).  All lookups are
    lazy: nothing is serialized, embedded, or clustered until a consumer
    asks for it.
    """

    def __init__(
        self,
        embedder: HashingEmbedder | None = None,
        metrics: "MetricsRegistry | None" = None,
        max_texts: int | None = None,
    ):
        if max_texts is not None and max_texts < 1:
            raise ValueError(f"max_texts must be >= 1, got {max_texts}")
        self.embedder = embedder or HashingEmbedder()
        self._metrics = metrics
        self._max_texts = max_texts
        self.stats = PrepStats()
        # id -> (instance, (text, token count)); holding the instance pins
        # its id.  With ``max_texts`` set the dict becomes a bounded LRU
        # (insertion / touch order), so a long-lived artifacts object — the
        # serving layer keeps one across runs — cannot grow without bound.
        self._texts: OrderedDict[int, tuple[Instance, tuple[str, int]]] = (
            OrderedDict()
        )
        self._matrices: dict[tuple[str, int, int], np.ndarray] = {}
        self._labels: dict[tuple[str, int, int, int, int], np.ndarray] = {}
        self._fingerprints: dict[tuple[int, ...], str] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None and amount:
            self._metrics.counter(name).inc(amount)

    def bind_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """Attach (or detach) the registry cache traffic is counted into.

        Crash-resume re-warms the caches by replaying prompt assembly for
        journaled batches with metrics detached (their counts are restored
        from the journal instead), then binds the live registry before the
        first un-journaled batch runs.
        """
        self._metrics = metrics

    # -- serialization ----------------------------------------------------

    def text_of(self, instance: Instance) -> str:
        """The serialized prompt text of ``instance``, memoized."""
        return self.counted_of(instance)[0]

    def counted_of(self, instance: Instance) -> tuple[str, int]:
        """:meth:`text_of` and the text's token count, memoized together.

        The count is summed from the text's parts when the text is made
        (:func:`~repro.core.contextualize.serialize_counted`).
        """
        key = id(instance)
        cached = self._texts.get(key)
        if cached is not None:
            self.stats.serialize_hits += 1
            self._count("prep.serialize.hits")
            if self._max_texts is not None:
                self._texts.move_to_end(key)
            return cached[1]
        started = time.perf_counter()
        counted = serialize_counted(instance)
        self.stats.serialize_wall_s += time.perf_counter() - started
        self.stats.serialize_misses += 1
        self._count("prep.serialize.misses")
        self._texts[key] = (instance, counted)
        if self._max_texts is not None and len(self._texts) > self._max_texts:
            self._texts.popitem(last=False)
            self.stats.serialize_evictions += 1
            self._count("prep.serialize.evictions")
        return counted

    def release(self, instances: Iterable[Instance]) -> None:
        """Drop the memoized texts of ``instances``.

        For an owner that knows no later lookup asks for them: a run
        releases each batch's instances once no later batch of its plan
        holds them.  Unlike an LRU eviction a release counts nothing.  The
        owner keeps the released instances alive while it uses this
        object, so no id is reused under the id-keyed fingerprint memo.
        """
        texts = self._texts
        for instance in instances:
            texts.pop(id(instance), None)

    def texts(self, instances: Sequence[Instance]) -> list[str]:
        """Serialized texts for ``instances``, each computed at most once."""
        return [self.text_of(instance) for instance in instances]

    # -- fingerprinting ---------------------------------------------------

    def fingerprint(self, instances: Sequence[Instance]) -> str:
        """Content digest of the instance set (order-sensitive).

        Derived from the serialized texts, so two instance sequences that
        render to the same prompts share every downstream artifact.
        """
        # The id-keyed memo is only sound while every seen instance stays
        # pinned (ids stay unique).  A bounded artifacts object evicts —
        # a freed id can be reused by a different instance — so it
        # recomputes the digest from the (still memoized) texts instead.
        id_key: tuple[int, ...] | None = None
        if self._max_texts is None:
            id_key = tuple(id(instance) for instance in instances)
            cached = self._fingerprints.get(id_key)
            if cached is not None:
                return cached
        digest = hashlib.blake2b(digest_size=16)
        for text in self.texts(instances):
            digest.update(text.encode("utf-8"))
            digest.update(b"\x00")
        value = digest.hexdigest()
        if id_key is not None:
            self._fingerprints[id_key] = value
        return value

    # -- embedding --------------------------------------------------------

    def matrix(self, instances: Sequence[Instance]) -> np.ndarray:
        """The ``(n, dim)`` embedding matrix of ``instances``, memoized by
        ``(dataset fingerprint, embedder params)``."""
        key = (self.fingerprint(instances), *self.embedder.params)
        cached = self._matrices.get(key)
        if cached is not None:
            self.stats.embed_hits += 1
            self._count("prep.embed.hits")
            return cached
        started = time.perf_counter()
        matrix = self.embedder.embed_all(self.texts(instances))
        self.stats.embed_wall_s += time.perf_counter() - started
        self.stats.embed_misses += 1
        self.stats.embed_texts += len(instances)
        self._count("prep.embed.misses")
        self._count("prep.embed.texts", len(instances))
        self._matrices[key] = matrix
        return matrix

    # -- clustering -------------------------------------------------------

    def labels(
        self, instances: Sequence[Instance], k: int, seed: int
    ) -> np.ndarray:
        """k-means labels over the instances' embeddings, memoized by
        ``(dataset fingerprint, embedder params, k, seed)``."""
        key = (self.fingerprint(instances), *self.embedder.params, k, seed)
        cached = self._labels.get(key)
        if cached is not None:
            self.stats.cluster_hits += 1
            self._count("prep.cluster.hits")
            return cached
        matrix = self.matrix(instances)
        started = time.perf_counter()
        model = KMeans(k=min(k, matrix.shape[0]), seed=seed).fit(matrix)
        self.stats.kmeans_wall_s += time.perf_counter() - started
        self.stats.cluster_misses += 1
        self.stats.kmeans_iterations += model.n_iter_
        self._count("prep.cluster.misses")
        self._count("prep.kmeans.iterations", model.n_iter_)
        labels = model.labels_
        self._labels[key] = labels
        return labels

    def cluster_members(
        self, instances: Sequence[Instance], k: int, seed: int
    ) -> list[list[int]]:
        """Instance positions grouped by cluster label (non-empty groups,
        ordered by label)."""
        labels = self.labels(instances, k, seed)
        n_groups = int(labels.max()) + 1 if labels.size else 0
        groups: list[list[int]] = [[] for __ in range(n_groups)]
        for position, label in enumerate(labels):
            groups[int(label)].append(position)
        return [group for group in groups if group]
