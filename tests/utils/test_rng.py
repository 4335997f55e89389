"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs


class TestAsRng:
    def test_passes_generator_through_unchanged(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_int_seed(self):
        assert np.array_equal(as_rng(5).random(3), as_rng(5).random(3))
        assert np.array_equal(
            as_rng(5).random(3), np.random.default_rng(5).random(3)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_rng(1).random(10), as_rng(2).random(10))

    def test_none_seed_allowed(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        a = as_rng(np.random.SeedSequence(7))
        b = as_rng(seq)
        assert np.array_equal(a.random(3), b.random(3))

    def test_numpy_integer_seed(self):
        assert isinstance(as_rng(np.int64(3)), np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError, match="expected None, int"):
            as_rng("not-a-seed")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rng(1.5)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_zero_is_allowed(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        assert not np.array_equal(children[0].random(10), children[1].random(10))

    def test_reproducible_from_seed(self):
        first = [g.random(5) for g in spawn_rngs(9, 3)]
        second = [g.random(5) for g in spawn_rngs(9, 3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(11), 2)
        assert len(children) == 2
