"""The batch-1 waves route: one ``train_step`` per conflict-free run.

At ``batch_size=1``, a ``NONE`` sampler (it never reads the model) and a
row-local model (MF, BiasedMF) let the trainer draw the epoch's negatives
up front and step each maximal run of triples that share no user and no
item row at once (``repro.train.trainer``).  The oracle is the
per-triple route: the same model class with ``row_local_step = False``.
Parameters, per-epoch ``info`` and negatives must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ImplicitDataset
from repro.data.interactions import InteractionMatrix
from repro.models.biased_mf import BiasedMatrixFactorization
from repro.models.lightgcn import LightGCN
from repro.models.mf import MatrixFactorization
from repro.samplers import make_sampler
from repro.samplers.rns import RandomNegativeSampler
from repro.train import Trainer, TrainingConfig
from repro.train.optimizer import SGD, Adam
from repro.train.trainer import conflict_free_runs


class PerTripleMF(MatrixFactorization):
    row_local_step = False


class PerTripleBiasedMF(BiasedMatrixFactorization):
    row_local_step = False


ORACLE = {
    MatrixFactorization: PerTripleMF,
    BiasedMatrixFactorization: PerTripleBiasedMF,
}

OPTIMIZERS = {"sgd": lambda: SGD(0.05), "adam": lambda: Adam(0.01)}


def count_steps(trainer):
    """Record the batch size of every ``train_step`` the trainer makes."""
    sizes = []
    original = trainer.model.train_step

    def spy(users, pos, neg, *args, **kwargs):
        sizes.append(users.size)
        return original(users, pos, neg, *args, **kwargs)

    trainer.model.train_step = spy
    return sizes


def train(model_cls, dataset, sampler, optimizer="sgd", dtype="float64", epochs=3):
    """``epochs`` of batch-1 training; returns (model, history, step sizes)."""
    model = model_cls(
        dataset.n_users, dataset.n_items, n_factors=8, seed=3, dtype=dtype
    )
    trainer = Trainer(
        model,
        dataset,
        sampler,
        TrainingConfig(epochs=epochs, batch_size=1, lr=0.05, seed=11),
        optimizer=OPTIMIZERS[optimizer](),
    )
    sizes = count_steps(trainer)
    return model, trainer.fit(), sizes


def parameter_bytes(model):
    tables = [model.user_factors, model.item_factors]
    if isinstance(model, BiasedMatrixFactorization):
        tables.append(model.item_bias)
    return [table.tobytes() for table in tables]


def assert_bitwise_equal(run, oracle):
    (model, history, _), (model_ref, history_ref, _) = run, oracle
    assert parameter_bytes(model) == parameter_bytes(model_ref)
    assert len(history) == len(history_ref)
    for stats, ref in zip(history, history_ref):
        for field in ("users", "pos_items", "neg_items", "info"):
            assert getattr(stats, field).tobytes() == getattr(ref, field).tobytes()
        assert stats.mean_loss.hex() == ref.mean_loss.hex()


class TestWavesMatchPerTriple:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("sampler", ["rns", "pns"])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("model_cls", list(ORACLE), ids=lambda cls: cls.__name__)
    def test_parameters_info_and_negatives(
        self, tiny_dataset, model_cls, optimizer, sampler, dtype
    ):
        waves = train(model_cls, tiny_dataset, make_sampler(sampler), optimizer, dtype)
        oracle = train(
            ORACLE[model_cls], tiny_dataset, make_sampler(sampler), optimizer, dtype
        )
        assert_bitwise_equal(waves, oracle)
        triples = 3 * tiny_dataset.train.n_interactions
        assert sum(oracle[2]) == len(oracle[2]) == triples
        assert sum(waves[2]) == triples
        assert len(waves[2]) < triples / 2  # the runs really were batched

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bns2_across_its_switch_to_bns(self, tiny_dataset, dtype):
        """``bns-2`` is RNS in its warm-up epochs and BNS after, so the
        route is re-checked every epoch: waves first, then per triple."""

        def bns2():
            return make_sampler("bns-2", warmup_epochs=1)

        waves = train(MatrixFactorization, tiny_dataset, bns2(), dtype=dtype)
        oracle = train(PerTripleMF, tiny_dataset, bns2(), dtype=dtype)
        assert_bitwise_equal(waves, oracle)
        n = tiny_dataset.train.n_interactions
        sizes = waves[2]
        first_epoch_calls = len(sizes) - 2 * n
        assert 0 < first_epoch_calls < n / 2
        assert sizes[first_epoch_calls:] == [1] * (2 * n)

    def test_a_longer_epoch(self):
        """``ml-100k-small``: mean runs of ~7 triples, every run length."""
        from repro.data.registry import load_dataset

        dataset = load_dataset("ml-100k-small", seed=5)
        waves = train(MatrixFactorization, dataset, RandomNegativeSampler(), epochs=1)
        oracle = train(PerTripleMF, dataset, RandomNegativeSampler(), epochs=1)
        assert_bitwise_equal(waves, oracle)
        assert len(waves[2]) < dataset.train.n_interactions / 4


class TestRoute:
    def test_one_step_per_run(self, tiny_dataset):
        _, history, sizes = train(
            MatrixFactorization, tiny_dataset, RandomNegativeSampler()
        )
        expected = []
        for stats in history:
            bounds = conflict_free_runs(stats.users, stats.pos_items, stats.neg_items)
            expected += np.diff(bounds).tolist()
            assert not stats.neg_items.flags.writeable
        assert sizes == expected

    def test_full_block_sampler_steps_per_triple(self, tiny_dataset):
        _, _, sizes = train(
            MatrixFactorization, tiny_dataset, make_sampler("dns"), epochs=1
        )
        assert sizes == [1] * tiny_dataset.train.n_interactions

    def test_lightgcn_steps_per_triple(self, tiny_dataset):
        model = LightGCN(tiny_dataset.train, n_factors=8, seed=3)
        assert not model.row_local_step
        trainer = Trainer(
            model,
            tiny_dataset,
            RandomNegativeSampler(),
            TrainingConfig(epochs=1, batch_size=1, seed=11),
            optimizer=Adam(0.01),
        )
        sizes = count_steps(trainer)
        trainer.fit()
        assert sizes == [1] * tiny_dataset.train.n_interactions


triples = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 9), st.integers(0, 9)),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(triples)
def test_runs_are_a_maximal_conflict_free_partition(rows):
    users, pos, neg = (np.asarray(column, dtype=np.int64) for column in zip(*rows))
    bounds = conflict_free_runs(users, pos, neg)
    assert bounds[0] == 0 and bounds[-1] == len(rows)
    assert all(start < stop for start, stop in zip(bounds, bounds[1:]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        run_users = [user for user, _, _ in rows[start:stop]]
        run_items = [item for _, i, j in rows[start:stop] for item in {i, j}]
        assert len(set(run_users)) == len(run_users)
        assert len(set(run_items)) == len(run_items)
        if stop < len(rows):  # maximal: the next triple conflicts
            user, i, j = rows[stop]
            assert user in run_users or {i, j} & set(run_items)


def with_cache_budget(dataset, max_cache_cells):
    """A fresh copy of ``dataset`` whose train matrix has the given budget
    (1 forces the per-row draws: no negative table fits)."""
    train = InteractionMatrix(
        dataset.n_users, dataset.n_items, *dataset.train.pairs()
    )
    train.max_cache_cells = max_cache_cells
    return ImplicitDataset(train, dataset.test)


def shuffled_pairs(dataset):
    users, pos = dataset.train.pairs()
    order = np.random.default_rng(4).permutation(users.size)
    return users[order], pos[order]


class TestSampleInOrder:
    """RNS draws an epoch with one ``rng.random(n)``; it must equal ``n``
    one-row draws — same negatives, same generator state after."""

    @pytest.mark.parametrize("budget", [None, 1], ids=["table", "per-row"])
    def test_rns_equals_one_row_draws(self, tiny_dataset, budget):
        dataset = tiny_dataset
        if budget is not None:
            dataset = with_cache_budget(tiny_dataset, budget)
            assert not dataset.train.supports_negative_table()
        users, pos = shuffled_pairs(dataset)
        sampler, reference = RandomNegativeSampler(), RandomNegativeSampler()
        sampler.bind(dataset, None, 9)
        reference.bind(dataset, None, 9)
        got = sampler.sample_in_order(users, pos)
        want = [reference.uniform_negatives(int(u), 1)[0] for u in users]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state

    @pytest.mark.parametrize("budget", [None, 1], ids=["table", "per-row"])
    def test_rns_user_without_negatives_raises(self, budget):
        # User 1 has interacted with every item.
        train = InteractionMatrix.from_pairs(
            [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)], 3, 3
        )
        if budget is not None:
            train.max_cache_cells = budget
        dataset = ImplicitDataset(train, InteractionMatrix.from_pairs([], 3, 3))
        sampler = RandomNegativeSampler()
        sampler.bind(dataset, None, 0)
        with pytest.raises(ValueError) as one_row:
            sampler.uniform_negatives(1, 1)
        with pytest.raises(ValueError) as in_order:
            sampler.sample_in_order(np.array([0, 1, 2]), np.array([0, 0, 2]))
        assert str(in_order.value) == str(one_row.value)

    def test_pns_equals_one_row_sample_for_user(self, tiny_dataset):
        users, pos = shuffled_pairs(tiny_dataset)
        sampler, reference = make_sampler("pns"), make_sampler("pns")
        sampler.bind(tiny_dataset, None, 9)
        reference.bind(tiny_dataset, None, 9)
        got = sampler.sample_in_order(users, pos)
        want = [
            reference.sample_for_user(int(u), pos[t : t + 1], None)[0]
            for t, u in enumerate(users)
        ]
        assert got.tolist() == want
        assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_score_based_sampler_refuses(self, tiny_dataset, tiny_model):
        sampler = make_sampler("dns")
        sampler.bind(tiny_dataset, tiny_model, 0)
        with pytest.raises(ValueError, match="reads model scores"):
            sampler.sample_in_order(np.array([0]), tiny_dataset.train.items_of(0)[:1])
