"""Property-based tests (hypothesis) for the data-prep kernel layer.

The performance contract of the vectorized kernels is that they change
*nothing*: ``embed_all`` must be bit-identical to the scalar reference and
the k-means convergence exit must land on exactly the labels the full
iteration budget would.  Neither may depend on how the work is cut into
blocks: with the embedding character budget and the k-means byte budget
patched down to a few characters or rows, every corpus and matrix spans
many blocks and must still match the whole-corpus results bit for bit.
Hypothesis hunts the corners (blank texts, unicode, ``ngram=0``, texts
longer than a block, duplicate points) that a hand-written example suite
misses.
"""

import string
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import kmeans
from repro.ml.kmeans import KMeans, row_sq_norms, sq_distances_to
from repro.testing.reference import embed_all_reference
from repro.text import embeddings
from repro.text.embeddings import HashingEmbedder

#: record-ish texts plus adversarial unicode; blank/empty included
texts = st.lists(
    st.one_of(
        st.text(min_size=0, max_size=40),
        st.text(alphabet=string.ascii_lowercase + "0123456789 :,[]\"#", max_size=60),
        st.just(""),
        st.just("   "),
    ),
    min_size=0,
    max_size=12,
)

embedder_params = st.tuples(
    st.integers(min_value=1, max_value=64),   # dim
    st.integers(min_value=0, max_value=5),    # ngram (0 disables)
)


class TestVectorizedEmbeddingEquality:
    @given(texts, embedder_params)
    @settings(max_examples=120, deadline=None)
    def test_embed_all_matches_scalar_bitwise(self, corpus, params):
        dim, ngram = params
        embedder = HashingEmbedder(dim=dim, ngram=ngram)
        scalar = embed_all_reference(embedder, corpus)
        vectorized = embedder.embed_all(corpus)
        assert scalar.shape == vectorized.shape == (len(corpus), dim)
        assert (scalar == vectorized).all()

    @given(st.text(min_size=0, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_single_text_matches_embed(self, text):
        embedder = HashingEmbedder(dim=32)
        assert (embedder.embed(text) == embedder.embed_all([text])[0]).all()

    @given(texts)
    @settings(max_examples=60, deadline=None)
    def test_rows_unit_or_zero(self, corpus):
        matrix = HashingEmbedder(dim=48).embed_all(corpus)
        norms = np.linalg.norm(matrix, axis=1)
        for norm in norms:
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@st.composite
def blocked_corpora(draw):
    """A character budget and a corpus spanning many blocks of it: an
    empty, a blank, a non-ASCII and an over-budget text always included."""
    budget = draw(st.integers(min_value=1, max_value=24))
    corpus = draw(texts) + [
        "",
        "   ",
        draw(st.text(alphabet="éßøñ東京ﬁ Ω", min_size=1, max_size=20)),
        draw(st.text(
            alphabet=string.ascii_lowercase + "0123456789",
            min_size=budget + 1, max_size=budget + 40,
        )),
    ]
    return budget, draw(st.permutations(corpus))


class TestEmbeddingBlocks:
    @given(blocked_corpora(), st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_blocked_embed_all_matches_scalar_bitwise(self, blocked, dim, ngram):
        budget, corpus = blocked
        embedder = HashingEmbedder(dim=dim, ngram=ngram)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "EMBED_BLOCK_CHARS", budget)
            matrix = embedder.embed_all(corpus)
        assert matrix.shape == (len(corpus), dim)
        assert (matrix == embed_all_reference(embedder, corpus)).all()


#: small random point clouds, duplicates allowed
points = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.floats(
                    min_value=-10, max_value=10,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=2, max_size=2,
            ),
            min_size=n, max_size=n,
        ),
    )
)


class TestKMeansEarlyExitEquality:
    @given(points, st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_early_exit_matches_full_iteration_budget(self, cloud, k, seed):
        __, rows = cloud
        X = np.array(rows, dtype=np.float64)
        early = KMeans(k=k, seed=seed).fit(X)
        full = KMeans(k=k, seed=seed, early_stop=False).fit(X)
        assert np.array_equal(early.labels_, full.labels_)
        assert early.inertia_ == full.inertia_
        assert np.array_equal(early.centroids_, full.centroids_)
        assert early.n_iter_ <= full.n_iter_

    @given(points, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_deterministic_across_fits(self, cloud, k):
        __, rows = cloud
        X = np.array(rows, dtype=np.float64)
        a = KMeans(k=k, seed=3).fit(X)
        b = KMeans(k=k, seed=3).fit(X)
        assert np.array_equal(a.labels_, b.labels_)
        assert a.inertia_ == b.inertia_


#: point clouds of 1 to 6 dimensions, duplicates likely; or embeddings
clouds = st.one_of(
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
    ).flatmap(lambda shape: st.lists(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, -1.0]),
                st.floats(
                    min_value=-10, max_value=10,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=shape[1], max_size=shape[1],
        ),
        min_size=shape[0], max_size=shape[0],
    )).map(lambda rows: np.array(rows, dtype=np.float64)),
    st.lists(
        st.text(alphabet=string.ascii_lowercase + " ", max_size=30),
        min_size=1, max_size=40,
    ).map(lambda corpus: HashingEmbedder(dim=16).embed_all(corpus)),
)


def _init_centroids_whole(X, k, rng):
    """k-means++ seeding over whole-matrix expressions: the oracle."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[int(rng.integers(n))]
    closest_sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            centroids[i] = X[int(rng.integers(n))]
            continue
        centroids[i] = X[int(rng.choice(n, p=closest_sq / total))]
        closest_sq = np.minimum(
            closest_sq, ((X - centroids[i]) ** 2).sum(axis=1)
        )
    return centroids


class TestKMeansBlocks:
    @given(clouds, st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_blocked_fit_matches_whole_matrix(self, X, k, seed, block_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmeans, "BLOCK_BYTES", 8 * X.shape[1] * block_rows)
            norms = row_sq_norms(X)
            distances = sq_distances_to(X, X[-1])
            seeded = KMeans(k=k)._init_centroids(X, np.random.default_rng(seed))
            blocked = KMeans(k=k, seed=seed).fit(X)
            predicted = blocked.predict(X)
        assert (norms == (X * X).sum(axis=1)).all()
        assert (distances == ((X - X[-1]) ** 2).sum(axis=1)).all()
        assert np.array_equal(
            seeded, _init_centroids_whole(X, k, np.random.default_rng(seed))
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmeans, "BLOCK_BYTES", sys.maxsize)
            whole = KMeans(k=k, seed=seed).fit(X)
            whole_predicted = whole.predict(X)
        assert np.array_equal(blocked.labels_, whole.labels_)
        assert np.array_equal(blocked.centroids_, whole.centroids_)
        assert blocked.inertia_ == whole.inertia_
        assert np.array_equal(predicted, whole_predicted)
