"""Kernel parity suite: the named numpy kernels must not move a single bit.

``golden_numpy_f64.json`` was captured from direct numpy kernels at
float64.  The float64 path through :data:`repro.backend.kernels` — the
default — must reproduce every scoring output, top-K ranking, metric,
and loss curve **bitwise** (sha256 of raw array bytes, hex-exact
floats).  The float32 fast mode is held to statistical closeness, never
bitwise.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backend import kernels, resolve_dtype
from repro.data.interactions import InteractionMatrix
from repro.data.registry import load_dataset
from repro.eval.protocol import Evaluator
from repro.eval.topk import top_k_items_batch
from repro.experiments.config import RunSpec
from repro.experiments.runner import run_spec
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.utils.rng import make_rng

GOLDEN_PATH = Path(__file__).parent / "golden_numpy_f64.json"

N_USERS, N_ITEMS, D = 40, 120, 8


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def probes():
    """The exact fixture the goldens were captured with (seeded draws)."""
    rng = make_rng(1234)
    users = rng.integers(N_USERS, size=400)
    items = rng.integers(N_ITEMS, size=400)
    interactions = InteractionMatrix(N_USERS, N_ITEMS, users, items)
    probe_users = np.arange(0, N_USERS, 3)
    probe_items = rng.integers(N_ITEMS, size=(probe_users.size, 5))
    return interactions, probe_users, probe_items


def _build_models(interactions, **kwargs):
    return {
        "mf": MatrixFactorization(N_USERS, N_ITEMS, D, seed=7, **kwargs),
        "biased_mf": BiasedMatrixFactorization(
            N_USERS, N_ITEMS, D, seed=7, **kwargs
        ),
        "lightgcn": LightGCN(
            interactions, n_factors=D, n_layers=1, seed=7, **kwargs
        ),
    }


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestBitwiseParity:
    """The float64 kernels reproduce the golden outputs bit for bit."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # the default policy
            {"dtype": "float64"},
            {"dtype": np.dtype(np.float64)},
        ],
        ids=["defaults", "by-name", "by-instance"],
    )
    @pytest.mark.parametrize("name", ["mf", "biased_mf", "lightgcn"])
    def test_scoring_kernels_bitwise(self, golden, probes, name, kwargs):
        interactions, probe_users, probe_items = probes
        model = _build_models(interactions, **kwargs)[name]
        expected = golden["models"][name]

        block = model.scores_batch(probe_users)
        assert block.dtype == np.float64
        assert _sha(block) == expected["scores_batch_sha"]
        assert _sha(model.score_items_batch(probe_users, probe_items)) == (
            expected["score_items_batch_sha"]
        )
        assert _sha(model.score_matrix()) == expected["score_matrix_sha"]
        assert _sha(model.score_pairs(probe_users, probe_items[:, 0])) == (
            expected["score_pairs_sha"]
        )

    @pytest.mark.parametrize("name", ["mf", "biased_mf", "lightgcn"])
    def test_topk_bitwise_through_kernel_and_backend(
        self, golden, probes, name
    ):
        interactions, probe_users, _ = probes
        model = _build_models(interactions)[name]
        expected = golden["models"][name]
        masked = model.scores_batch(probe_users).copy()
        rows, cols = interactions.positives_in_rows(probe_users)
        masked[rows, cols] = -np.inf

        ids, lengths = top_k_items_batch(masked, 10)
        assert _sha(ids) == expected["topk_ids_sha"]
        assert _sha(lengths) == expected["topk_lengths_sha"]
        # The shared kernel's topk delegates to the same canonical kernel.
        ids_bk, lengths_bk = kernels.topk(masked, 10)
        np.testing.assert_array_equal(ids_bk, ids)
        np.testing.assert_array_equal(lengths_bk, lengths)

    @pytest.mark.parametrize("name", ["mf", "biased_mf", "lightgcn"])
    def test_scores_batch_sample_values_hex_exact(self, golden, probes, name):
        interactions, probe_users, _ = probes
        model = _build_models(interactions)[name]
        flat = model.scores_batch(probe_users).ravel()
        for index, hexval in golden["models"][name][
            "scores_batch_sample"
        ].items():
            assert float(flat[int(index)]).hex() == hexval


class TestRunGoldens:
    """Whole seeded runs (train + eval, CDF estimators included)."""

    CASES = {
        "mf": {"model": "mf"},
        "lightgcn": {"model": "lightgcn"},
        "mf-cdf-subsampled-64": {"model": "mf", "cdf": "subsampled:64"},
        "mf-cdf-cached-2": {"model": "mf", "cdf": "cached:2"},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_bitwise_vs_golden(self, golden, case):
        spec = RunSpec(
            dataset="tiny",
            sampler="bns",
            epochs=3,
            batch_size=16,
            lr=0.05,
            seed=0,
            **self.CASES[case],
        )
        result = run_spec(spec, load_dataset("tiny", seed=0))
        expected = golden["runs"][case]
        assert {
            k: float(v).hex() for k, v in sorted(result.metrics.items())
        } == expected["metrics"]
        assert [float(v).hex() for v in result.loss_curve] == (
            expected["loss_curve"]
        )


class TestFloat32FastMode:
    """float32 is statistically equivalent, never bitwise-pinned."""

    def test_scoring_close_to_float64(self, probes):
        interactions, probe_users, probe_items = probes
        exact = _build_models(interactions, dtype="float64")
        fast = _build_models(interactions, dtype="float32")
        for name in exact:
            b64 = exact[name].scores_batch(probe_users)
            b32 = fast[name].scores_batch(probe_users)
            assert b32.dtype == np.float32
            np.testing.assert_allclose(b32, b64, rtol=1e-4, atol=1e-5)
            s64 = exact[name].score_items_batch(probe_users, probe_items)
            s32 = fast[name].score_items_batch(probe_users, probe_items)
            assert s32.dtype == np.float32
            np.testing.assert_allclose(s32, s64, rtol=1e-4, atol=1e-5)

    def test_full_run_trains_and_stays_close(self):
        dataset = load_dataset("tiny", seed=0)
        base = dict(dataset="tiny", sampler="bns", epochs=3, batch_size=16,
                    lr=0.05, seed=0)
        exact = run_spec(RunSpec(**base), dataset)
        fast = run_spec(RunSpec(dtype="float32", **base), dataset)
        assert np.allclose(
            fast.loss_curve, exact.loss_curve, rtol=1e-3, atol=1e-3
        )
        for metric, value in exact.metrics.items():
            assert abs(fast.metrics[metric] - value) < 0.05, metric

    def test_evaluator_preserves_float32_blocks(self, probes):
        interactions, _, _ = probes
        dataset = load_dataset("tiny", seed=0)
        model = MatrixFactorization(
            dataset.n_users, dataset.n_items, 8, seed=7, dtype="float32"
        )
        metrics = Evaluator(dataset, ks=(5,)).evaluate(model)
        assert all(np.isfinite(v) for v in metrics.values())


class TestDtypePolicy:
    def test_resolve_dtype(self):
        assert resolve_dtype("float64") == np.dtype(np.float64)
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float32) == np.dtype(np.float32)
        with pytest.raises(ValueError, match="float16"):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype("int32")

    def test_runspec_validates_dtype_names(self):
        with pytest.raises(ValueError, match="dtype"):
            RunSpec(dtype="float16")
        assert RunSpec(dtype="float32").dtype == "float32"
