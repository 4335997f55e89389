"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2, "x") == 2.0

    def test_returns_float(self):
        assert isinstance(check_positive(np.int32(2), "x"), float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="> 0"):
            check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(float("inf"), "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError, match="real number"):
            check_positive("2", "x")


class TestRealNumberCheck:
    """Every check first requires a finite real number (``_check_real``)."""

    @pytest.mark.parametrize(
        "value, expected",
        [(np.int64(3), 3.0), (np.float32(0.1), float(np.float32(0.1))), (2**62, 2.0**62)],
    )
    def test_numpy_and_python_numbers_become_floats(self, value, expected):
        out = check_non_negative(value, "x")
        assert type(out) is float and out == expected

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None])
    def test_non_numbers_raise_type_error(self, value):
        with pytest.raises(TypeError, match="real number"):
            check_non_negative(value, "x")

    @pytest.mark.parametrize(
        "value",
        [np.float32("nan"), np.float64("inf"), float("-inf"), 10**400],
        ids=["nan32", "inf", "minus_inf", "int_10_400"],
    )
    def test_non_finite_raise_value_error(self, value):
        """``10**400`` has no float: it is as infinite as ``inf``."""
        with pytest.raises(ValueError, match="x must be finite"):
            check_non_negative(value, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative(-0.1, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability(value, "p")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, 1.0, 2.0, "x") == 1.0
        assert check_in_range(2.0, 1.0, 2.0, "x") == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError, match=r"\(1.0, 2.0\)"):
            check_in_range(1.0, 1.0, 2.0, "x", inclusive=False)

    def test_inside_exclusive(self):
        assert check_in_range(1.5, 1.0, 2.0, "x", inclusive=False) == 1.5

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            check_in_range(3.0, 1.0, 2.0, "x")
