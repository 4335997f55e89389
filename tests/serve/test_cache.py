"""Tests for repro.serve.cache."""

import numpy as np
import pytest

from repro.serve.cache import TopKCache


def _ids(*values):
    return np.asarray(values, dtype=np.int64)


class TestPrefixReads:
    def test_miss_on_unknown_user(self):
        cache = TopKCache(5)
        assert cache.get(0, 3) is None

    def test_hit_returns_prefix(self):
        cache = TopKCache(5)
        cache.put(0, _ids(9, 4, 7, 1, 2))
        assert np.array_equal(cache.get(0, 3), [9, 4, 7])
        assert np.array_equal(cache.get(0, 5), [9, 4, 7, 1, 2])

    def test_wider_than_cache_is_a_miss(self):
        cache = TopKCache(5)
        cache.put(0, _ids(9, 4, 7, 1, 2))
        assert cache.get(0, 6) is None

    def test_put_truncates_to_cache_k(self):
        cache = TopKCache(3)
        cache.put(0, _ids(9, 4, 7, 1, 2))
        assert np.array_equal(cache.get(0, 3), [9, 4, 7])

    def test_returned_array_is_a_copy(self):
        cache = TopKCache(3)
        cache.put(0, _ids(9, 4, 7))
        out = cache.get(0, 3)
        out[0] = -99
        assert np.array_equal(cache.get(0, 3), [9, 4, 7])

    def test_put_rows_bulk(self):
        cache = TopKCache(3)
        ids = np.asarray([[5, 2, 1], [8, 3, -1]], dtype=np.int64)
        cache.put_rows(_ids(10, 11), ids, _ids(3, 2))
        assert np.array_equal(cache.get(10, 3), [5, 2, 1])
        assert np.array_equal(cache.get(11, 3), [8, 3])

    def test_len_and_contains(self):
        cache = TopKCache(3)
        cache.put(4, _ids(1, 2, 3))
        assert len(cache) == 1
        assert 4 in cache
        assert 5 not in cache

    def test_rejects_nonpositive_cache_k(self):
        with pytest.raises(ValueError):
            TopKCache(0)


class TestStrictInvalidation:
    def test_invalidate_drops_entry(self):
        cache = TopKCache(3)
        cache.put(0, _ids(1, 2, 3))
        cache.invalidate(0)
        assert cache.get(0, 3) is None
        assert 0 not in cache

    def test_invalidate_unknown_user_is_noop(self):
        cache = TopKCache(3)
        cache.invalidate(7)
        assert len(cache) == 0
