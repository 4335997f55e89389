"""Negative-sampler interface and shared sampling utilities.

The trainer forms each mini-batch, groups it by user **once**
(:func:`group_batch_by_user`), provides the score data the sampler's
:class:`ScoreRequest` asks for — a full ``(U, n_items)`` block via
:meth:`~repro.models.base.ScoreModel.scores_batch` for ``FULL_BLOCK``
samplers, nothing for ``SPARSE`` samplers (which gather-score only the
item ids they touch) — and dispatches one
:meth:`NegativeSampler.sample_batch` — handing the precomputed
:class:`BatchGroups` along so no sampler re-derives the grouping — to
obtain one negative per positive in the batch.  A one-row batch (every
batch of the paper's ``batch_size=1`` SGD) skips the grouping: the
trainer scores that one user with ``scores`` and calls
:meth:`NegativeSampler.sample_for_user`; at ``batch_size=1`` a ``NONE``
sampler instead draws the whole epoch with one
:meth:`NegativeSampler.sample_in_order` call.  Per-user scoring cost stays
O(candidates) per triple on top of one shared O(n_items · d) score
computation per user per batch — the linear-time budget the paper claims
for BNS — but the constant factors move from Python into a handful of
whole-batch NumPy calls.

Randomness contract (RNG parity)
--------------------------------
``sample_batch`` and the scalar path (grouping the batch by sorted unique
user and calling :meth:`NegativeSampler.sample_for_user` per group) must
produce **bit-identical negatives for a bound seed** when given the same
score values.  Every built-in batched implementation therefore consumes the
bound generator in sorted-unique-user order, drawing for each user exactly
what the scalar path would draw for that user's rows (the draw core lives
in :meth:`repro.data.interactions.InteractionMatrix.uniform_negatives`);
only the deterministic math — candidate scoring, empirical CDFs, priors,
risk — is vectorized across the whole batch.  A property test pins this
equivalence for every registered sampler
(``tests/property/test_property_sampler_batch.py``).

The one documented divergence sits a layer above: score *values* from
``ScoreModel.scores_batch`` can differ from per-user ``scores`` in the last
ulp (BLAS gemm vs gemv rounding), so the trainer's one-row route and its
batch route are statistically, not bitwise, interchangeable.  At the
sampler layer, same scores in → same negatives out.

Score-block convention
----------------------
``sample_batch(users, pos_items, scores)`` takes ``scores`` with one row
per **sorted unique** user of the batch, i.e. row ``r`` belongs to
``np.unique(users)[r]``.  This is what the trainer naturally produces
(``model.scores_batch(np.unique(batch_users))``) and avoids duplicating
rows for repeated users.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import ImplicitDataset
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "ScoreRequest",
    "NegativeSampler",
    "BatchGroups",
    "group_batch_by_user",
]


class ScoreRequest(Enum):
    """What score data a sampler asks the trainer to precompute per batch.

    The trainer inspects :attr:`NegativeSampler.score_request` once per
    mini-batch and provides exactly what is requested — this is the knob
    that decides whether training cost is linear or sub-linear in
    ``n_items``:

    ``NONE``
        No model scores at all (RNS, PNS).  ``scores`` is ``None``, and
        the sampler must never read the model: at ``batch_size=1`` the
        trainer draws a whole epoch's negatives through
        :meth:`NegativeSampler.sample_in_order` before its first step.
    ``FULL_BLOCK``
        One full ``(U, n_items)`` score row per sorted unique batch user
        via :meth:`~repro.models.base.ScoreModel.scores_batch` — the
        classic O(n_items · d) per user per batch budget (DNS, AOBPR,
        exact-CDF BNS).
    ``SPARSE``
        Nothing precomputed; the sampler scores only the item ids it
        actually touches (candidates ∪ positives ∪ CDF subsample) through
        gather-based :meth:`~repro.models.base.ScoreModel.
        score_items_batch` calls, keeping per-triple cost independent of
        ``n_items`` (BNS with a sub-linear CDF estimator).  ``scores`` is
        ``None`` on the trainer path; a caller *may* still hand a full
        block (tests, A/B harnesses) and the sampler will gather from it.
    """

    NONE = "none"
    FULL_BLOCK = "full_block"
    SPARSE = "sparse"


@dataclass(frozen=True)
class BatchGroups:
    """Grouping of a mini-batch's rows by sorted unique user.

    Attributes
    ----------
    unique_users:
        Sorted distinct user ids, shape ``(U,)``.
    rows:
        For each batch row, the index of its user in ``unique_users``
        (``np.unique``'s inverse), shape ``(B,)``.
    order:
        Batch-row indices stably sorted by user, shape ``(B,)``.
    boundaries:
        Group ``g`` occupies ``order[boundaries[g]:boundaries[g + 1]]``.
    """

    unique_users: np.ndarray
    rows: np.ndarray
    order: np.ndarray
    boundaries: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.unique_users.size

    def row_indices(self, group: int) -> np.ndarray:
        """Batch-row indices of group ``group``, in batch order."""
        return self.order[self.boundaries[group] : self.boundaries[group + 1]]

    def iter_groups(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(group, user, row_indices)`` in sorted-user order."""
        for group in range(self.n_groups):
            yield group, int(self.unique_users[group]), self.row_indices(group)


def group_batch_by_user(users: np.ndarray) -> BatchGroups:
    """Group batch rows by user, preserving batch order within each group."""
    users = np.asarray(users, dtype=np.int64).ravel()
    unique_users, rows, counts = np.unique(
        users, return_inverse=True, return_counts=True
    )
    order = np.argsort(rows, kind="stable")
    boundaries = np.concatenate([[0], np.cumsum(counts)])
    return BatchGroups(unique_users, rows, order, boundaries)


class NegativeSampler(ABC):
    """Base class for all negative samplers.

    Lifecycle: construct → :meth:`bind` (dataset + model + rng) →
    per epoch :meth:`on_epoch_start` → per mini-batch :meth:`sample_batch`
    (or one :meth:`sample_for_user` call for a one-row mini-batch; or,
    for a ``NONE`` sampler at ``batch_size=1``, one
    :meth:`sample_in_order` call per epoch).
    """

    #: What score data the trainer must provide per batch (see
    #: :class:`ScoreRequest`).  Class-level default; samplers whose mode is
    #: decided at construction (BNS with a CDF estimator) shadow it with an
    #: instance attribute, delegating samplers with a property.
    score_request: ClassVar[ScoreRequest] = ScoreRequest.NONE
    #: Short name used in reports and experiment configs.
    name: ClassVar[str] = "base"

    def __init__(self) -> None:
        self._dataset: Optional[ImplicitDataset] = None
        self._model = None
        self._rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def bind(self, dataset: ImplicitDataset, model, seed: SeedLike = None) -> None:
        """Attach the sampler to a dataset and model before training."""
        self._dataset = dataset
        self._model = model
        self._rng = as_rng(seed)
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook; runs after :meth:`bind` stored the references."""

    def on_epoch_start(self, epoch: int) -> None:
        """Per-epoch hook (schedules, memory refresh); default no-op."""

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    @abstractmethod
    def sample_for_user(
        self,
        user: int,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray],
    ) -> np.ndarray:
        """Return one negative item per entry of ``pos_items``.

        ``scores`` is the user's full predicted score vector when
        :attr:`score_request` is ``FULL_BLOCK``, else ``None`` (``SPARSE``
        samplers score the item ids they touch themselves).
        """

    def sample_batch(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        scores: Optional[np.ndarray] = None,
        *,
        groups: Optional[BatchGroups] = None,
    ) -> np.ndarray:
        """One negative per ``(users[b], pos_items[b])`` pair, whole batch.

        ``scores`` — when :attr:`score_request` is ``FULL_BLOCK`` — is the
        score block for the batch's **sorted unique** users: row ``r`` is
        the full score vector of ``np.unique(users)[r]`` (see module
        docstring).  ``SPARSE`` samplers accept ``None`` (self-scoring) or
        a block to gather from.

        ``groups`` — when given — must be ``group_batch_by_user(users)``
        for exactly this batch; the trainer precomputes it once per
        mini-batch so the sampler does not re-derive the grouping it
        already paid for (and the grouping is deterministic, so passing it
        through cannot change the draws — RNG parity is untouched).

        This compatibility fallback groups the batch by sorted unique user
        and delegates to :meth:`sample_for_user` per group — the per-user
        reference of the RNG-parity contract; vectorized subclasses
        override it but must keep that contract.
        """
        users, pos_items = self._check_batch(users, pos_items)
        if users.size == 0:
            return np.empty(0, dtype=np.int64)
        if groups is None:
            groups = group_batch_by_user(users)
        self._check_score_block(groups, scores)
        negatives = np.empty(users.size, dtype=np.int64)
        for group, user, row_idx in groups.iter_groups():
            user_scores = scores[group] if scores is not None else None
            negatives[row_idx] = self.sample_for_user(
                user, pos_items[row_idx], user_scores
            )
        return negatives

    def sample_in_order(self, users: np.ndarray, pos_items: np.ndarray) -> np.ndarray:
        """One negative per row, drawn row by row in the given order.

        For ``NONE`` samplers only, which never read the model: the
        trainer draws a ``batch_size=1`` epoch's negatives with one call
        before its first step.  The result, and the generator state
        after it, equal one-row ``sample_for_user(users[t],
        pos_items[t:t + 1], None)`` calls for ``t = 0, 1, …`` — which is
        this default.  It suits samplers that consume a data-dependent
        number of draws per row (PNS's rejection loop); a sampler with a
        fixed draw count per row may vectorize it (RNS).  The returned
        array is freshly allocated and belongs to the caller.
        """
        if self.score_request is not ScoreRequest.NONE:
            raise ValueError(
                f"{type(self).__name__} reads model scores; only a NONE "
                "sampler can draw an epoch's negatives ahead of training"
            )
        users, pos_items = self._check_batch(users, pos_items)
        negatives = np.empty(users.size, dtype=np.int64)
        for row, user in enumerate(users.tolist()):
            negatives[row] = self.sample_for_user(
                user, pos_items[row : row + 1], None
            )[0]
        return negatives

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @property
    def dataset(self) -> ImplicitDataset:
        """The bound dataset (raises if :meth:`bind` was not called)."""
        if self._dataset is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind() first")
        return self._dataset

    @property
    def rng(self) -> np.random.Generator:
        """The bound random generator."""
        if self._rng is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind() first")
        return self._rng

    @property
    def model(self):
        """The bound score model."""
        if self._model is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind() first")
        return self._model

    def uniform_negatives(self, user: int, n: int) -> np.ndarray:
        """``n`` uniform draws from the user's un-interacted items I⁻_u.

        Delegates to the dataset's cached-negatives draw core so the scalar
        and batched paths share one draw sequence (the RNG-parity anchor).
        """
        return self.dataset.train.uniform_negatives(user, n, self.rng)

    def candidate_matrix(self, user: int, n_pos: int, m: int) -> np.ndarray:
        """An ``(n_pos, m)`` matrix of uniform negative candidates M_u."""
        if m <= 0:
            raise ValueError(f"candidate set size must be positive, got {m}")
        return self.uniform_negatives(user, n_pos * m).reshape(n_pos, m)

    def candidate_matrix_batch(self, groups: BatchGroups, m: int) -> np.ndarray:
        """A ``(B, m)`` candidate matrix for a grouped mini-batch.

        Fully vectorized: one ``rng.random(B · m)`` draw, one floor-scale
        against each row's negative count, one gather from the dataset's
        padded :meth:`~repro.data.interactions.InteractionMatrix.
        negative_table`, one scatter back to batch order.

        RNG parity holds bit-for-bit because ``Generator.random`` is
        split-invariant — one ``random(B · m)`` call yields the same
        doubles as per-user ``random(n_u · m)`` calls consumed in sorted
        order, which is exactly what the scalar path's
        :meth:`uniform_negatives` does — and the floor-scale/gather are
        the same elementwise operations on the same values.

        When the padded table would blow the dataset's ``max_cache_cells``
        budget (huge universes), the draws fall back to a per-user loop
        through :meth:`uniform_negatives` — O(1) extra memory and, by the
        same split-invariance, still bit-identical output.
        """
        if m <= 0:
            raise ValueError(f"candidate set size must be positive, got {m}")
        if not self.dataset.train.supports_negative_table():
            return self._candidate_matrix_batch_grouped(groups, m)
        sizes = np.diff(groups.boundaries)
        grouped = self._table_draws(np.repeat(groups.unique_users, sizes), m)
        out = np.empty_like(grouped)
        out[groups.order] = grouped
        return out

    def _table_draws(self, users: np.ndarray, m: int) -> np.ndarray:
        """``(users.size, m)`` uniform negatives, row ``b`` for ``users[b]``.

        One ``rng.random(users.size · m)`` call floor-scaled against each
        row's negative count and gathered from the padded
        :meth:`~repro.data.interactions.InteractionMatrix.negative_table`:
        by split-invariance, the same values as per-row
        :meth:`uniform_negatives` calls of ``m`` draws in row order.
        Callers check ``supports_negative_table()`` first.
        """
        table, counts = self.dataset.train.negative_table()
        k = counts[users]
        if k.size and k.min() == 0:
            bad = int(users[np.argmin(k)])
            raise ValueError(f"user {bad} has no un-interacted items to sample")
        k = k[:, None]
        draws = self.rng.random(users.size * m).reshape(-1, m)
        indices = np.minimum((draws * k).astype(np.int64), k - 1)
        return table[users[:, None], indices]

    def _candidate_matrix_batch_grouped(
        self, groups: BatchGroups, m: int
    ) -> np.ndarray:
        """Memory-bounded fallback: per-user draws, same stream, same output."""
        train = self.dataset.train
        rng = self.rng
        grouped = np.empty((groups.rows.size, m), dtype=np.int64)
        boundaries = groups.boundaries
        for group, user in enumerate(groups.unique_users.tolist()):
            start, stop = boundaries[group], boundaries[group + 1]
            grouped[start:stop] = train.uniform_negatives(
                user, (stop - start) * m, rng
            ).reshape(-1, m)
        out = np.empty_like(grouped)
        out[groups.order] = grouped
        return out

    def sorted_negative_block(
        self, groups: BatchGroups, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-unique-user sorted negative scores, batched.

        Returns ``(block, neg_counts)`` where ``block[r, :neg_counts[r]]``
        holds user ``unique_users[r]``'s un-interacted item scores in
        ascending order (positives are pushed to ``+inf`` padding at the
        tail).  One ``(U, n_items)`` sort replaces U per-user
        mask-allocate-and-sort passes; counts via ``side="right"``
        searchsorted against a row's prefix are bitwise identical to
        sorting ``scores[negative_mask]`` directly.
        """
        train = self.dataset.train
        block = np.array(scores, dtype=np.float64, copy=True)
        rows, cols = train.positives_in_rows(groups.unique_users)
        block[rows, cols] = np.inf
        block.sort(axis=1)
        neg_counts = train.n_items - train.degrees_of(groups.unique_users)
        return block, neg_counts

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #

    def _check_batch(
        self, users: np.ndarray, pos_items: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        users = np.asarray(users, dtype=np.int64).ravel()
        pos_items = np.asarray(pos_items, dtype=np.int64).ravel()
        if users.size != pos_items.size:
            raise ValueError(
                f"users and pos_items must be parallel arrays, got sizes "
                f"{users.size} and {pos_items.size}"
            )
        return users, pos_items

    def _check_score_block(
        self, groups: BatchGroups, scores: Optional[np.ndarray]
    ) -> None:
        if scores is None:
            if self.score_request is ScoreRequest.FULL_BLOCK:
                raise ValueError(
                    f"{type(self).__name__} requires a score block with one "
                    "row per sorted unique batch user"
                )
            return
        n_items = self.dataset.n_items
        if (
            scores.ndim != 2
            or scores.shape[0] != groups.n_groups
            or scores.shape[1] != n_items
        ):
            raise ValueError(
                f"score block must have shape ({groups.n_groups}, {n_items}) — "
                "one full score row per sorted unique batch user — got "
                f"{getattr(scores, 'shape', None)}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
