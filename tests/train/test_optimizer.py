"""Tests for repro.train.optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.train.optimizer import SGD, Adam, aggregate_rows


class TestAggregateRows:
    def test_unique_rows_pass_through(self):
        rows, grads = aggregate_rows(np.asarray([2, 0]), np.ones((2, 3)))
        assert np.array_equal(rows, [0, 2])
        assert grads.shape == (2, 3)

    def test_duplicates_summed(self):
        rows, grads = aggregate_rows(
            np.asarray([1, 1, 0]), np.asarray([[1.0], [2.0], [5.0]])
        )
        assert np.array_equal(rows, [0, 1])
        assert np.array_equal(grads, [[5.0], [3.0]])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            aggregate_rows(np.asarray([0, 1]), np.ones((3, 2)))


def unique_add_at(rows, grads):
    """The ``np.unique``/``np.add.at`` body of ``aggregate_rows``: the oracle."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    grads = np.asarray(grads, dtype=np.float64)
    unique, inverse = np.unique(rows, return_inverse=True)
    summed = np.zeros((unique.size, grads.shape[1]), dtype=np.float64)
    np.add.at(summed, inverse, grads)
    return unique, summed


class TestAggregateRowsMatchesOracle:
    """Every shape — the one- and two-row shortcut and the distinct-rows
    argsort included — must equal summing into zeros, bit for bit."""

    CASES = {
        "one-row": [7],
        "pair-ascending": [2, 9],
        "pair-descending": [9, 2],
        "pair-equal": [4, 4],
        "repeats": [3, 1, 3, 0, 1, 3],
        "triple-distinct": [5, 0, 2],
        # A conflict-free run of eight triples: 16 distinct item rows.
        "run-distinct": [12, 3, 40, 7, 0, 25, 9, 31, 18, 5, 2, 44, 60, 1, 33, 8],
        "run-one-repeat": [12, 3, 40, 7, 0, 25, 9, 31, 18, 5, 2, 44, 60, 1, 33, 3],
        "wide-distinct": list(range(1023, -1, -1)),
        "wide-repeats": [row % 512 for row in range(1024)],
    }

    @staticmethod
    def _assert_bitwise(actual, expected):
        (rows, summed), (rows_ref, summed_ref) = actual, expected
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, rows_ref)
        assert summed.dtype == np.float64
        assert summed.shape == summed_ref.shape
        np.testing.assert_array_equal(
            summed.view(np.uint64), summed_ref.view(np.uint64)
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_random_grads(self, case, rng):
        rows = np.asarray(self.CASES[case])
        grads = rng.standard_normal((rows.size, 4))
        self._assert_bitwise(aggregate_rows(rows, grads), unique_add_at(rows, grads))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_negative_zero_grads_become_positive_zero(self, case):
        rows = np.asarray(self.CASES[case])
        grads = np.full((rows.size, 3), -0.0)
        out = aggregate_rows(rows, grads)
        self._assert_bitwise(out, unique_add_at(rows, grads))
        assert not np.signbit(out[1]).any()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_float32_grads_upcast(self, case, rng):
        rows = np.asarray(self.CASES[case])
        grads = rng.standard_normal((rows.size, 2)).astype(np.float32)
        self._assert_bitwise(aggregate_rows(rows, grads), unique_add_at(rows, grads))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 40), min_size=1, max_size=48),
        dtype=st.sampled_from([np.float64, np.float32]),
        data=st.data(),
    )
    def test_any_rows(self, rows, dtype, data):
        # Finite floats, -0.0 among them; float32 grads upcast first.
        values = st.floats(allow_nan=False, allow_infinity=False, width=32)
        grads = np.asarray(
            data.draw(st.lists(values, min_size=3 * len(rows), max_size=3 * len(rows))),
            dtype=dtype,
        ).reshape(len(rows), 3)
        rows = np.asarray(rows)
        self._assert_bitwise(aggregate_rows(rows, grads), unique_add_at(rows, grads))

    def test_returned_grads_are_a_fresh_array(self):
        grads = np.ones((1, 3))
        _, summed = aggregate_rows(np.asarray([0]), grads)
        summed[0, 0] = 5.0
        assert grads[0, 0] == 1.0


class TestSGD:
    def test_row_update(self):
        param = np.ones((4, 2))
        SGD(0.5).update_rows("p", param, np.asarray([1, 3]), np.ones((2, 2)))
        assert np.array_equal(param[1], [0.5, 0.5])
        assert np.array_equal(param[0], [1.0, 1.0])

    def test_dense_update(self):
        param = np.ones((2, 2))
        SGD(0.25).update_dense("p", param, np.full((2, 2), 2.0))
        assert np.allclose(param, 0.5)

    def test_lr_mutable(self):
        opt = SGD(0.1)
        opt.lr = 0.01
        assert opt.lr == 0.01

    def test_lr_validated(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        opt = SGD(0.1)
        with pytest.raises(ValueError):
            opt.lr = -1.0


class TestAdam:
    def test_first_step_is_signed_lr(self):
        """Bias correction makes the first Adam step ≈ lr · sign(grad)."""
        param = np.zeros((1, 3))
        Adam(lr=0.1).update_rows(
            "p", param, np.asarray([0]), np.asarray([[1.0, -2.0, 0.5]])
        )
        assert np.allclose(param, [[-0.1, 0.1, -0.1]], atol=1e-6)

    def test_dense_first_step(self):
        param = np.zeros((2, 2))
        Adam(lr=0.05).update_dense("p", param, np.ones((2, 2)))
        assert np.allclose(param, -0.05, atol=1e-6)

    def test_sparse_rows_keep_independent_state(self):
        """Row 0 stepped twice, row 1 once: bias correction must differ."""
        param = np.zeros((2, 1))
        opt = Adam(lr=0.1)
        opt.update_rows("p", param, np.asarray([0]), np.asarray([[1.0]]))
        opt.update_rows("p", param, np.asarray([0, 1]), np.asarray([[1.0], [1.0]]))
        assert opt._steps["p"][0] == 2
        assert opt._steps["p"][1] == 1

    def test_converges_on_quadratic(self):
        """Adam must drive a quadratic bowl to its minimum."""
        param = np.asarray([[5.0, -3.0]])
        target = np.asarray([[1.0, 2.0]])
        opt = Adam(lr=0.1)
        for _ in range(500):
            grad = param - target
            opt.update_dense("p", param, grad)
        assert np.allclose(param, target, atol=0.01)

    def test_adapts_to_gradient_scale(self):
        """Directions with tiny gradients still make progress (vs SGD)."""
        param = np.asarray([[0.0, 0.0]])
        opt = Adam(lr=0.1)
        for _ in range(50):
            grad = np.asarray([[1.0, 1e-4]])
            opt.update_rows("p", param, np.asarray([0]), grad)
        # Both coordinates moved by a comparable amount despite the 1e4
        # gradient-scale gap.
        assert abs(param[0, 1]) > 0.5 * abs(param[0, 0])

    def test_shape_change_rejected(self):
        opt = Adam()
        opt.update_dense("p", np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="changed shape"):
            opt.update_dense("p", np.zeros((3, 2)), np.ones((3, 2)))

    def test_hyperparameters_validated(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=0.0)
        with pytest.raises(ValueError):
            Adam(eps=0.0)

    def test_separate_parameters_separate_state(self):
        opt = Adam()
        a, b = np.zeros((1, 1)), np.zeros((1, 1))
        opt.update_dense("a", a, np.ones((1, 1)))
        opt.update_dense("b", b, np.ones((1, 1)))
        assert set(opt._m) == {"a", "b"}
