"""Property-based tests (hypothesis) for the data-prep kernel layer.

The performance contract of the vectorized kernels is that they change
*nothing*: ``embed_all`` must be bit-identical to the scalar reference and
the k-means convergence exit must land on exactly the labels the full
iteration budget would.  Hypothesis hunts the corners (blank texts,
unicode, ``ngram=0``, duplicate points) that a hand-written example suite
misses.
"""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kmeans import KMeans
from repro.testing.reference import embed_all_reference
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
