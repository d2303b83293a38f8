import math

import numpy as np
import pytest

from oracles import (
    best_subset_reward,
    minimize_expected_turn_loss,
    project_to_simplex,
    random_simplex_points,
)


class TestProjectToSimplex:
    def test_interior_shift(self):
        assert np.allclose(project_to_simplex(np.array([0.3, 0.3])), [0.5, 0.5])

    def test_point_on_simplex_is_fixed(self):
        p = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(p), p, atol=1e-15)

    def test_clips_dominated_coordinates(self):
        proj = project_to_simplex(np.array([10.0, 0.0, 0.0]))
        assert np.allclose(proj, [1.0, 0.0, 0.0])

    def test_random_vectors_land_on_simplex_idempotently(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(1, 12)))
            p = project_to_simplex(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.allclose(project_to_simplex(p), p, atol=1e-12)


class TestMinimizeExpectedTurnLoss:
    def test_symmetric_case_is_uniform(self):
        c = minimize_expected_turn_loss([0.4] * 8, 3)
        assert np.max(np.abs(c - 0.125)) < 1e-9

    def test_result_dominates_random_simplex_points(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(3, 11))
            mu = rng.uniform(0.01, 1.0, size=s)
            c = minimize_expected_turn_loss(mu, n)
            value = np.sum((1 - c) ** n * mu)
            cloud = random_simplex_points(1000, s, rng)
            assert np.all(value <= np.sum((1 - cloud) ** n * mu, axis=1) + 1e-12)

    def test_two_players_linear_exponent(self):
        # N=2 keeps the stationarity condition linear; solve by hand:
        # (1-c_i) mu_i equal across arms with sum(c)=1
        mu = np.array([0.8, 0.4])
        c = minimize_expected_turn_loss(mu, 2)
        level = (2 - 1) / (1 / 0.8 + 1 / 0.4)
        assert np.allclose(c, 1 - level / mu, atol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            minimize_expected_turn_loss([0.5, -0.1], 3)
        with pytest.raises(ValueError, match="2 players"):
            minimize_expected_turn_loss([0.5, 0.5], 1)


class TestBestSubsetReward:
    def test_known_case(self):
        assert best_subset_reward([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01], 5) == 3.5

    def test_single_player_takes_best_arm(self):
        assert best_subset_reward([0.2, 0.7, 0.5], 1) == 0.7

    def test_all_arms(self):
        means = [0.3, 0.1, 0.2]
        assert best_subset_reward(means, 3) == math.fsum(means)

    def test_rejects_more_players_than_arms(self):
        with pytest.raises(ValueError, match="distinct arms"):
            best_subset_reward([0.5, 0.5], 3)


class TestRandomSimplexPoints:
    def test_shape_and_support(self, rng):
        pts = random_simplex_points(500, 7, rng)
        assert pts.shape == (500, 7)
        assert np.all(pts >= 0)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
