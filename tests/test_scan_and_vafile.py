"""Tests for the linear scan and VA-file access methods."""

import numpy as np
import pytest

from repro import Database, knn_query, range_query

from tests.helpers import brute_force_answers


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(41)
    return rng.random((500, 6))


@pytest.mark.parametrize("access", ["scan", "vafile"])
def test_pages_hold_their_objects_without_a_copy(vectors, access):
    db = Database(vectors, access=access, block_size=2048)
    stored = db.dataset.vectors
    for page in db.access_method.data_pages():
        assert np.shares_memory(page.objects, stored)
        assert np.array_equal(page.objects, stored[page.indices])
    words = Database(["ab", "abc", "b"], metric="levenshtein", access="scan")
    assert all(page.objects is None for page in words.access_method.data_pages())


class TestLinearScan:
    def test_knn_matches_brute_force(self, vectors):
        db = Database(vectors, access="scan", block_size=2048)
        answers = db.similarity_query(vectors[3], knn_query(7))
        expected = brute_force_answers(vectors, vectors[3], knn_query(7))
        assert sorted(a.distance for a in answers) == pytest.approx(
            [d for _, d in expected]
        )

    def test_range_matches_brute_force(self, vectors):
        db = Database(vectors, access="scan", block_size=2048)
        answers = db.similarity_query(vectors[3], range_query(0.4))
        expected = brute_force_answers(vectors, vectors[3], range_query(0.4))
        assert {a.index for a in answers} == {i for i, _ in expected}

    def test_single_query_reads_every_page_sequentially(self, vectors):
        db = Database(vectors, access="scan", block_size=2048, buffer_fraction=0.0)
        with db.measure() as run:
            db.similarity_query(vectors[0], knn_query(1))
        assert run.counters.sequential_page_reads == len(
            db.access_method.data_pages()
        )
        assert run.counters.random_page_reads == 0

    def test_single_query_computes_every_distance(self, vectors):
        db = Database(vectors, access="scan", block_size=2048, buffer_fraction=0.0)
        with db.measure() as run:
            db.similarity_query(vectors[0], knn_query(1))
        assert run.counters.distance_calculations == len(vectors)

    def test_multiple_query_reads_each_page_once(self, vectors):
        # The Sec. 5.1 scan result: I/O of a block of m queries equals
        # the I/O of one query.
        db = Database(vectors, access="scan", block_size=2048, buffer_fraction=0.0)
        m = 20
        with db.measure() as run:
            db.multiple_similarity_query([vectors[i] for i in range(m)], knn_query(5))
        assert run.counters.page_reads == len(db.access_method.data_pages())

    def test_stream_is_physical_order(self, vectors):
        db = Database(vectors, access="scan", block_size=2048)
        stream = db.access_method.page_stream(vectors[0])
        ids = [page.page_id for _, page in stream.drain()]
        assert ids == sorted(ids)

    def test_page_lower_bounds_zero(self, vectors):
        db = Database(vectors, access="scan", block_size=2048)
        page = db.access_method.data_pages()[0]
        bounds = db.access_method.page_lower_bounds(page, vectors[:4], 0.0, None)
        assert np.all(bounds == 0.0)


class TestVAFile:
    @pytest.fixture(scope="class")
    def db(self, vectors):
        return Database(vectors, access="vafile", block_size=2048)

    def test_knn_matches_brute_force(self, db, vectors):
        for qi in (0, 77, 311):
            answers = db.similarity_query(vectors[qi], knn_query(5))
            expected = brute_force_answers(vectors, vectors[qi], knn_query(5))
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            )

    def test_range_matches_brute_force(self, db, vectors):
        answers = db.similarity_query(vectors[9], range_query(0.3))
        expected = brute_force_answers(vectors, vectors[9], range_query(0.3))
        assert {a.index for a in answers} == {i for i, _ in expected}

    def test_bounds_bracket_true_distance(self, db, vectors):
        vafile = db.access_method
        q = np.random.default_rng(5).random(vectors.shape[1])
        lower = vafile.lower_bounds(q)
        upper = vafile.upper_bounds(q)
        true = np.sqrt(((vectors - q) ** 2).sum(axis=1))
        assert np.all(lower <= true + 1e-9)
        assert np.all(true <= upper + 1e-9)

    def test_more_bits_tighter_bounds(self, vectors):
        coarse = Database(
            vectors, access="vafile", index_options={"bits_per_dim": 2}
        ).access_method
        fine = Database(
            vectors, access="vafile", index_options={"bits_per_dim": 8}
        ).access_method
        q = np.random.default_rng(6).random(vectors.shape[1])
        assert fine.lower_bounds(q).sum() >= coarse.lower_bounds(q).sum()
        assert fine.upper_bounds(q).sum() <= coarse.upper_bounds(q).sum()

    def test_approximation_scan_charged(self, db, vectors):
        db.cold()
        with db.measure() as run:
            db.similarity_query(vectors[0], knn_query(3))
        # The approximation pages are read on every (cold) query.
        assert run.counters.page_reads >= len(db.access_method.approximation_pages)

    def test_knn_skips_some_vector_pages(self, vectors):
        # With enough bits the VA-file must prune at least one full page.
        db = Database(
            vectors,
            access="vafile",
            block_size=2048,
            buffer_fraction=0.0,
            index_options={"bits_per_dim": 8},
        )
        with db.measure() as run:
            db.similarity_query(vectors[0], knn_query(1))
        n_vector_pages = len(db.access_method.vector_pages)
        n_approx = len(db.access_method.approximation_pages)
        assert run.counters.page_reads < n_vector_pages + n_approx

    def test_rejects_bad_bits(self, vectors):
        with pytest.raises(ValueError):
            Database(vectors, access="vafile", index_options={"bits_per_dim": 0})

    def test_rejects_non_euclidean(self, vectors):
        with pytest.raises(ValueError):
            Database(vectors, access="vafile", metric="manhattan")

    def test_cell_interval_cache_is_read_only(self, db):
        vafile = db.access_method
        assert not vafile._cell_lo.flags.writeable
        assert not vafile._cell_hi.flags.writeable
        assert np.all(vafile._cell_hi - vafile._cell_lo > 0)

    def test_batched_bounds_match_stacked_single_queries(self, db, vectors):
        # The one-pass (m, n) kernels must agree elementwise with the
        # single-query forms they replace.
        vafile = db.access_method
        queries = np.random.default_rng(7).random((5, vectors.shape[1]))
        lower_many = vafile.lower_bounds_many(queries)
        upper_many = vafile.upper_bounds_many(queries)
        assert lower_many.shape == (5, len(vectors))
        for row, q in enumerate(queries):
            assert np.array_equal(lower_many[row], vafile.lower_bounds(q))
            assert np.array_equal(upper_many[row], vafile.upper_bounds(q))

    def test_batched_bounds_accept_a_single_query(self, db, vectors):
        vafile = db.access_method
        q = np.random.default_rng(8).random(vectors.shape[1])
        assert np.array_equal(
            vafile.lower_bounds_many(q)[0], vafile.lower_bounds(q)
        )

    def test_vectorized_bounds_keep_counter_identity(self, vectors):
        # Regression pin for the cached-cell rewrite of the bound hot
        # loop: the vectorisation is an implementation detail, so a
        # block of queries must charge exactly the same counters (and
        # return the same answers) as the historical per-call form,
        # whose counts are fixed here as literals derived from the
        # access method's contract: one mindist evaluation per object
        # per drive, every approximation page re-scanned per drive.
        db = Database(
            vectors, access="vafile", block_size=2048, buffer_fraction=0.0
        )
        queries = [vectors[i] for i in (3, 44, 215)]
        with db.measure() as run:
            answers = db.run_in_blocks(
                queries, knn_query(4), block_size=3, db_indices=[3, 44, 215]
            )
        assert run.counters.mindist_evaluations == len(vectors) * len(queries)
        for q, got in zip(queries, answers):
            expected = brute_force_answers(vectors, q, knn_query(4))
            assert sorted(a.distance for a in got) == pytest.approx(
                [d for _, d in expected]
            )
