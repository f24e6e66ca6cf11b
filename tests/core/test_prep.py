"""Tests for repro.core.prep (the shared data-prep artifact cache)."""

import numpy as np

from repro.core.batching import batch_homogeneity, make_batches
from repro.core.prep import PrepArtifacts
from repro.obs.metrics import MetricsRegistry
from repro.text.embeddings import HashingEmbedder


class TestSerializationMemo:
    def test_each_instance_serialized_once(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        first = prep.texts(instances)
        second = prep.texts(instances)
        assert first == second
        assert prep.stats.serialize_misses == len(instances)
        assert prep.stats.serialize_hits == len(instances)

    def test_text_matches_serialize_instance(self, amazon_google_dataset):
        from repro.core.contextualize import serialize_instance

        instance = list(amazon_google_dataset.instances)[0]
        assert PrepArtifacts().text_of(instance) == serialize_instance(instance)


class TestTokenCounts:
    def test_count_is_kept_beside_the_text(self, amazon_google_dataset):
        from repro.core.contextualize import serialize_instance
        from repro.text.tokenize import count_tokens

        instances = list(amazon_google_dataset.instances)[:20]
        prep = PrepArtifacts()
        for instance in instances:
            text, tokens = prep.counted_of(instance)
            assert text == serialize_instance(instance)
            assert tokens == count_tokens(text)
            assert prep.text_of(instance) is text
        # one memo: each text is made once, then read back as a hit
        assert prep.stats.serialize_misses == len(instances)
        assert prep.stats.serialize_hits == len(instances)

class TestEmbeddingMemo:
    def test_matrix_computed_once(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts(embedder=HashingEmbedder(dim=64))
        a = prep.matrix(instances)
        b = prep.matrix(instances)
        assert a is b
        assert prep.stats.embed_misses == 1
        assert prep.stats.embed_hits == 1
        assert prep.stats.embed_texts == len(instances)

    def test_matrix_matches_direct_embedding(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)[:20]
        embedder = HashingEmbedder(dim=64)
        prep = PrepArtifacts(embedder=embedder)
        direct = embedder.embed_all(
            [prep.text_of(inst) for inst in instances]
        )
        assert (prep.matrix(instances) == direct).all()

    def test_distinct_instance_sets_get_distinct_matrices(
        self, amazon_google_dataset
    ):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        a = prep.matrix(instances[:10])
        b = prep.matrix(instances[10:20])
        assert a.shape == b.shape
        assert prep.stats.embed_misses == 2


class TestClusterMemo:
    def test_labels_cached_per_k_and_seed(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        a = prep.labels(instances, k=4, seed=0)
        b = prep.labels(instances, k=4, seed=0)
        c = prep.labels(instances, k=5, seed=0)
        d = prep.labels(instances, k=4, seed=1)
        assert a is b
        assert prep.stats.cluster_misses == 3
        assert prep.stats.cluster_hits == 1
        assert len(a) == len(c) == len(d) == len(instances)

    def test_cluster_members_cover_all_positions(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        groups = prep.cluster_members(instances, k=4, seed=0)
        flat = sorted(i for group in groups for i in group)
        assert flat == list(range(len(instances)))


class TestSharedArtifactsAcrossBatchingCalls:
    def test_homogeneity_reuses_make_batches_embeddings(
        self, amazon_google_dataset
    ):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        batches = make_batches(
            instances, 7, mode="cluster", seed=0, artifacts=prep
        )
        misses_after_batching = prep.stats.embed_misses
        batch_homogeneity(instances, batches, artifacts=prep)
        # The homogeneity pass embeds nothing new.
        assert prep.stats.embed_misses == misses_after_batching
        assert prep.stats.embed_hits >= 1
        assert prep.stats.serialize_misses == len(instances)

    def test_shared_artifacts_change_no_batches(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        plain = make_batches(instances, 7, mode="cluster", seed=0)
        shared = make_batches(
            instances, 7, mode="cluster", seed=0, artifacts=PrepArtifacts()
        )
        assert plain == shared

    def test_homogeneity_same_with_and_without_artifacts(
        self, amazon_google_dataset
    ):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        batches = make_batches(
            instances, 7, mode="cluster", seed=0, artifacts=prep
        )
        assert batch_homogeneity(
            instances, batches, artifacts=prep
        ) == batch_homogeneity(instances, batches)


class TestMetricsWiring:
    def test_counters_follow_cache_traffic(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        registry = MetricsRegistry()
        prep = PrepArtifacts(metrics=registry)
        prep.matrix(instances)
        prep.matrix(instances)
        prep.labels(instances, k=4, seed=0)
        counters = registry.snapshot()["counters"]
        assert counters["prep.serialize.misses"] == len(instances)
        assert counters["prep.embed.misses"] == 1
        assert counters["prep.embed.hits"] >= 1
        assert counters["prep.embed.texts"] == len(instances)
        assert counters["prep.cluster.misses"] == 1
        assert counters["prep.kmeans.iterations"] >= 1

    def test_no_registry_still_counts_stats(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        prep.matrix(instances)
        assert prep.stats.embed_misses == 1
        assert prep.stats.embed_wall_s >= 0.0


class TestFingerprint:
    def test_same_content_same_fingerprint(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        assert prep.fingerprint(instances) == prep.fingerprint(list(instances))

    def test_order_sensitive(self, amazon_google_dataset):
        instances = list(amazon_google_dataset.instances)
        prep = PrepArtifacts()
        assert prep.fingerprint(instances) != prep.fingerprint(
            list(reversed(instances))
        )


class TestNearestNeighborTieBreak:
    def test_equal_scores_ordered_by_index(self):
        from repro.text.embeddings import nearest_neighbors

        # Five identical rows: every score ties, so the winner set must be
        # the lowest indices, in ascending order.
        row = np.ones(8) / np.sqrt(8.0)
        matrix = np.tile(row, (5, 1))
        assert nearest_neighbors(row, matrix, k=3) == [0, 1, 2]

    def test_distinct_scores_sorted_descending(self):
        from repro.text.embeddings import nearest_neighbors

        query = np.array([1.0, 0.0])
        matrix = np.array([[0.0, 1.0], [1.0, 0.0], [0.6, 0.8]])
        assert nearest_neighbors(query, matrix, k=2) == [1, 2]
