"""Tests for repro.models.graph."""

import gc

import numpy as np
import pytest

from repro.data.interactions import InteractionMatrix
from repro.models.graph import (
    _ADJACENCY_CACHE,
    bipartite_adjacency,
    normalized_adjacency,
    normalized_adjacency_cached,
)
from matrix_builders import interactions_from_pairs


@pytest.fixture
def small_graph():
    # 2 users x 3 items: u0-{i0,i1}, u1-{i1}
    return interactions_from_pairs([(0, 0), (0, 1), (1, 1)], 2, 3)


class TestBipartiteAdjacency:
    def test_shape(self, small_graph):
        adj = bipartite_adjacency(small_graph)
        assert adj.shape == (5, 5)

    def test_symmetric(self, small_graph):
        adj = bipartite_adjacency(small_graph)
        assert (adj != adj.T).nnz == 0

    def test_block_structure(self, small_graph):
        dense = bipartite_adjacency(small_graph).toarray()
        # user-user and item-item blocks are zero
        assert np.all(dense[:2, :2] == 0)
        assert np.all(dense[2:, 2:] == 0)
        # user 0 connects to item nodes 2 and 3
        assert dense[0, 2] == 1 and dense[0, 3] == 1 and dense[0, 4] == 0

    def test_edge_count(self, small_graph):
        adj = bipartite_adjacency(small_graph)
        assert adj.nnz == 2 * small_graph.n_interactions


class TestNormalizedAdjacency:
    def test_symmetric(self, small_graph):
        norm = normalized_adjacency(small_graph)
        assert np.allclose(norm.toarray(), norm.toarray().T)

    def test_normalization_values(self, small_graph):
        dense = normalized_adjacency(small_graph).toarray()
        # Â[u0, i0] = 1/sqrt(deg(u0) * deg(i0)) = 1/sqrt(2*1)
        assert dense[0, 2] == pytest.approx(1 / np.sqrt(2))
        # Â[u0, i1] = 1/sqrt(2*2)
        assert dense[0, 3] == pytest.approx(0.5)
        # Â[u1, i1] = 1/sqrt(1*2)
        assert dense[1, 3] == pytest.approx(1 / np.sqrt(2))

    def test_isolated_nodes_zero_rows(self, small_graph):
        dense = normalized_adjacency(small_graph).toarray()
        # item 2 (node 4) has no interactions.
        assert np.all(dense[4] == 0)
        assert np.all(dense[:, 4] == 0)

    def test_spectral_radius_at_most_one(self, small_graph):
        dense = normalized_adjacency(small_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(eigenvalues)) <= 1.0 + 1e-9

    def test_no_nan_on_empty_matrix(self):
        empty = InteractionMatrix(2, 2, [], [])
        dense = normalized_adjacency(empty).toarray()
        assert np.all(np.isfinite(dense))
        assert np.all(dense == 0)


class TestNormalizedAdjacencyCached:
    def test_same_instance_returns_same_object(self, small_graph):
        first = normalized_adjacency_cached(small_graph)
        second = normalized_adjacency_cached(small_graph)
        assert first is second

    def test_matches_uncached_computation(self, small_graph):
        cached = normalized_adjacency_cached(small_graph)
        fresh = normalized_adjacency(small_graph)
        assert (cached != fresh).nnz == 0

    def test_models_over_same_dataset_share_structure(self, small_graph):
        from repro.models.lightgcn import LightGCN

        one_layer = LightGCN(small_graph, n_factors=4, n_layers=1, seed=0)
        two_layer = LightGCN(small_graph, n_factors=4, n_layers=2, seed=1)
        # Â is layer- and seed-independent: one entry serves every model
        # built over the same training matrix.
        assert one_layer._adjacency is two_layer._adjacency

    def test_entry_dies_with_its_dataset(self):
        transient = interactions_from_pairs([(0, 0)], 1, 1)
        normalized_adjacency_cached(transient)
        assert transient in _ADJACENCY_CACHE
        del transient
        gc.collect()
        assert not any(
            key.shape == (1, 1) for key in _ADJACENCY_CACHE.keys()
        )
