"""Tests for repro.data.ratings.RatingLog."""

import numpy as np
import pytest

from repro.data.ratings import RatingLog


def make_log(**overrides):
    defaults = dict(
        n_users=3,
        n_items=4,
        user_ids=[0, 0, 1, 2],
        item_ids=[0, 1, 2, 3],
        ratings=[5.0, 3.0, 4.0, 1.0],
    )
    defaults.update(overrides)
    return RatingLog(**defaults)


class TestValidation:
    def test_basic(self):
        log = make_log()
        assert log.n_events == 4

    def test_mismatched_pairs(self):
        with pytest.raises(ValueError, match="parallel"):
            make_log(user_ids=[0, 1])

    def test_user_out_of_range(self):
        with pytest.raises(ValueError, match="user id"):
            make_log(user_ids=[0, 0, 1, 3])

    def test_item_out_of_range(self):
        with pytest.raises(ValueError, match="item id"):
            make_log(item_ids=[0, 1, 2, 4])

    def test_ratings_length_checked(self):
        with pytest.raises(ValueError, match="ratings"):
            make_log(ratings=[5.0])

    def test_ratings_optional(self):
        assert make_log(ratings=None).ratings is None

    def test_occupations_length_checked(self):
        with pytest.raises(ValueError, match="user_occupations"):
            make_log(user_occupations=[0, 1])

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_log(user_occupations=[0, -1, 2])

    def test_non_positive_universe(self):
        with pytest.raises(ValueError, match="positive"):
            make_log(n_users=0, user_ids=[], item_ids=[], ratings=None)


class TestProperties:
    def test_n_occupations(self):
        log = make_log(user_occupations=[0, 4, 2])
        assert log.n_occupations == 5

    def test_n_occupations_absent(self):
        assert make_log().n_occupations == 0

    def test_to_implicit_binary(self):
        matrix = make_log().to_implicit()
        assert matrix.n_interactions == 4
        assert matrix.contains(0, 1)

    def test_to_implicit_drops_rating_values(self):
        low = make_log(ratings=[1.0, 1.0, 1.0, 1.0]).to_implicit()
        high = make_log(ratings=[5.0, 5.0, 5.0, 5.0]).to_implicit()
        assert low == high
