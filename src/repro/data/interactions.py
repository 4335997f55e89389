"""Binary user-item interaction matrix.

:class:`InteractionMatrix` is the data structure every other part of the
library consumes: samplers read per-user positive sets and item popularity
from it, models read its shape, the trainer iterates its (user, item) pairs,
and the evaluator compares train and test instances.

It is deliberately immutable after construction — training never mutates the
data — and is backed by canonical CSR arrays (rows in order, each row's item
ids distinct and ascending) so per-user lookups (`items_of`) are O(degree)
slices and membership checks are O(log degree) binary searches.  New
feedback enters through :meth:`~InteractionMatrix.with_appended`, which
returns a successor with the pairs inserted into those arrays.

Batched access is first class: the CSR index is exposed directly
(:attr:`indptr` / :attr:`indices`), pair membership is vectorized over whole
``(user, item)`` arrays via a lazily cached flat-key index
(:meth:`contains_pairs`, with a padding-aware row variant
:meth:`hits_in_rows` for the evaluator's ranked-id blocks), per-user
positive sets can be scattered into a
dense ``(batch, n_items)`` block in one shot (:meth:`positives_in_rows`),
and every uniform negative draw goes through one core:
:meth:`uniform_negatives` for one user and :meth:`uniform_negatives_rows`
for many, which gives the same draws and generator state as per-row
calls (the draw sequence every sampler's scalar and batched paths share).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["InteractionMatrix"]

_INT32_MAX = np.iinfo(np.int32).max


class InteractionMatrix:
    """Immutable binary user-item interaction matrix.

    Parameters
    ----------
    n_users, n_items:
        Matrix shape.  Ids outside ``[0, n_users) x [0, n_items)`` are
        rejected.
    user_ids, item_ids:
        Parallel integer arrays of interaction pairs.  Duplicate pairs are
        collapsed to a single interaction (the matrix is binary).
    """

    def __init__(
        self,
        n_users: int,
        n_items: int,
        user_ids: Iterable[int],
        item_ids: Iterable[int],
    ) -> None:
        if n_users <= 0 or n_items <= 0:
            raise ValueError(f"matrix shape must be positive, got {n_users}x{n_items}")
        users, items = _checked_pairs(user_ids, item_ids, n_users, n_items)
        matrix = sp.csr_matrix(
            (np.ones(users.size, dtype=np.int8), (users, items)),
            shape=(n_users, n_items),
        )
        # Collapse duplicate pairs and sort each row's indices; the summed
        # counts are dropped, since the matrix is binary.
        matrix.sum_duplicates()
        popularity = np.bincount(matrix.indices, minlength=n_items)
        self._finish(n_users, n_items, matrix.indptr, matrix.indices, popularity, None)

    def _finish(
        self,
        n_users: int,
        n_items: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        item_popularity: np.ndarray,
        pair_keys: Optional[np.ndarray],
    ) -> None:
        """Set every field from canonical CSR arrays.

        Row ``u`` holds the distinct item ids ``indices[indptr[u]:indptr[u
        + 1]]`` in ascending order; ``item_popularity`` counts them per
        item, and ``pair_keys`` is their flat-key index (``None`` builds it
        on first use).  The constructor and :meth:`with_appended` both end
        here, so a successor carries exactly the fields a rebuild would.
        Both index arrays are ``int32`` while every count and id fits it,
        as scipy would choose.
        """
        fits = max(n_users, n_items, indices.size) <= _INT32_MAX
        index_dtype = np.int32 if fits else np.int64
        self._indptr = indptr.astype(index_dtype, copy=False)
        self._indices = indices.astype(index_dtype, copy=False)
        self._n_users = int(n_users)
        self._n_items = int(n_items)
        self._item_popularity = item_popularity.astype(np.int64, copy=False)
        self._user_activity = np.diff(self._indptr).astype(np.int64)
        # Lazy caches (the matrix is immutable, so these never go stale).
        self._pair_keys = pair_keys
        self._negative_table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "InteractionMatrix":
        """Build from a dense 0/1 array (mostly useful in tests)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"dense matrix must be 2-D, got {dense.ndim}-D")
        users, items = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], users, items)

    # ------------------------------------------------------------------ #
    # Shape and counts
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        """Number of user rows."""
        return self._n_users

    @property
    def n_items(self) -> int:
        """Number of item columns."""
        return self._n_items

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_users, n_items)``."""
        return (self._n_users, self._n_items)

    @property
    def n_interactions(self) -> int:
        """Total number of distinct (user, item) interactions."""
        return int(self._indices.size)

    @property
    def density(self) -> float:
        """Fraction of the matrix that is observed."""
        return self.n_interactions / (self._n_users * self._n_items)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    def items_of(self, user: int) -> np.ndarray:
        """Sorted array of item ids the user interacted with (a view).

        This is the user's positive set :math:`I^+_u`.
        """
        self._check_user(user)
        start, stop = self._indptr[user], self._indptr[user + 1]
        return self._indices[start:stop]

    def contains(self, user: int, item: int) -> bool:
        """Membership test: did ``user`` interact with ``item``?"""
        positives = self.items_of(user)
        pos = int(np.searchsorted(positives, item))
        return pos < positives.size and positives[pos] == item

    def negative_mask(self, user: int) -> np.ndarray:
        """Boolean mask over items, ``True`` where the user has NOT interacted.

        This marks the user's unlabeled set :math:`I^-_u` from which
        negatives are sampled.
        """
        mask = np.ones(self._n_items, dtype=bool)
        mask[self.items_of(user)] = False
        return mask

    def degree_of(self, user: int) -> int:
        """Number of items the user interacted with."""
        self._check_user(user)
        return int(self._user_activity[user])

    def negative_items(self, user: int) -> np.ndarray:
        """Sorted array of item ids the user has NOT interacted with.

        The complement of :meth:`items_of` — the unlabeled set
        :math:`I^-_u`.  A read-only view of the user's row of
        :meth:`negative_table`, which is built once on first use (the
        matrix is immutable), so repeated queries — every
        :meth:`uniform_negatives` call, BNS with ``n_candidates=None``,
        AOBPR's global ranking — cost one slice each.
        """
        self._check_user(user)
        table, counts = self.negative_table()
        return table[user, : counts[user]]

    # ------------------------------------------------------------------ #
    # Batched lookups and sampling
    # ------------------------------------------------------------------ #

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array, shape ``(n_users + 1,)`` (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array, shape ``(n_interactions,)`` (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def degrees_of(self, users: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`degree_of` for an array of user ids."""
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self._n_users):
            raise IndexError(f"user ids out of range [0, {self._n_users})")
        return self._user_activity[users]

    def contains_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership test for parallel ``(user, item)`` arrays.

        One binary search over a lazily built flat-key index (``user *
        n_items + item`` for every stored interaction, globally sorted by
        CSR construction), so a whole batch costs O(B log nnz) instead of
        B per-user lookups.  ``users`` and ``items`` broadcast against each
        other; the result has the broadcast shape.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        # Validate both id ranges: out-of-range ids would alias into other
        # users' flat keys and silently return wrong membership answers.
        if users.size and (users.min() < 0 or users.max() >= self._n_users):
            raise IndexError(f"user ids out of range [0, {self._n_users})")
        if items.size and (items.min() < 0 or items.max() >= self._n_items):
            raise IndexError(f"item ids out of range [0, {self._n_items})")
        return self._locate(users * self._n_items + items)[1]

    def hits_in_rows(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Row-wise membership for padded per-user item lists.

        ``items`` has one row per entry of ``users``; ``out[r, j]`` is
        ``True`` iff ``items[r, j] >= 0`` and ``(users[r], items[r, j])``
        is a stored interaction.  Negative ids are padding (see
        :func:`repro.eval.topk.top_k_items_batch`) and map to ``False``.
        This is how the batched evaluator turns a chunk's ranked-id block
        into a hit matrix against the test split in one
        :meth:`contains_pairs` call.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 2 or items.shape[0] != users.size:
            raise ValueError(
                f"items must be 2-D with one row per user, got shape "
                f"{items.shape} for {users.size} users"
            )
        valid = items >= 0
        return self.contains_pairs(users[:, None], np.where(valid, items, 0)) & valid

    def positives_in_rows(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter coordinates of the users' positive sets in a dense block.

        For ``users`` of length ``U``, returns parallel ``(rows, cols)``
        arrays such that ``block[rows, cols]`` addresses every training
        positive of ``users[r]`` in row ``r`` of a ``(U, n_items)`` block —
        the vectorized replacement for building one ``negative_mask`` per
        user when masking positives out of a batched score matrix.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self._n_users):
            raise IndexError(f"user ids out of range [0, {self._n_users})")
        indptr, indices = self._indptr, self._indices
        counts = self._user_activity[users]
        total = int(counts.sum())
        rows = np.repeat(np.arange(users.size), counts)
        if total == 0:
            return rows, np.empty(0, dtype=indices.dtype)
        boundaries = np.concatenate([[0], np.cumsum(counts)])
        within = np.arange(total) - np.repeat(boundaries[:-1], counts)
        cols = indices[np.repeat(indptr[users], counts) + within]
        return rows, cols

    def uniform_negatives(
        self, user: int, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` uniform draws from the user's un-interacted items I⁻_u.

        Inverse-CDF over the cached :meth:`negative_items` array: one
        ``rng.random`` call, a floor-scale to indices, one gather — no
        rejection loop.  (``floor(u · k)`` is the classic trick; its bias
        versus ``Generator.integers`` is below ``k · 2⁻⁵³``, immaterial
        next to sampling noise, and ``rng.random`` is several times
        cheaper per call — this sits on the per-user hot path.)  Draws are
        independent (*with* replacement across the ``n`` results), matching
        how candidate sets M_u are formed in the paper's Algorithm 1.

        This is the canonical per-user draw sequence: every sampler's
        scalar path draws through it, and every batched path through
        :meth:`uniform_negatives_rows`, whose rows equal calls of this
        method — which is what keeps the two paths bit-for-bit identical
        for a bound seed (see ``repro.samplers.base``).
        """
        if n == 0:
            return np.empty(0, dtype=np.int64)
        negatives = self.negative_items(user)
        k = negatives.size
        if k == 0:
            raise ValueError(f"user {user} has no un-interacted items to sample")
        # minimum guards the measure-zero round-up of u·k to exactly k.
        indices = np.minimum((rng.random(n) * k).astype(np.int64), k - 1)
        return negatives[indices]

    def uniform_negatives_rows(
        self, users: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``m`` uniform negatives per row: a ``(len(users), m)`` matrix.

        Row ``b``, and the generator state afterwards, equal per-row
        ``uniform_negatives(users[b], m, rng)`` calls in row order; users
        may repeat and come in any order.  It is one ``rng.random(len(users)
        · m)`` call floor-scaled against each row's negative count and one
        gather from :meth:`negative_table`: ``Generator.random`` is
        split-invariant, so the doubles, and hence the negatives, are the
        per-row calls' own.  Every batched uniform
        draw — candidate matrices, RNS's in-order epoch, SRNS's memory,
        the subsampled CDF's reference — goes through here.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self._n_users):
            raise IndexError(f"user ids out of range [0, {self._n_users})")
        table, counts = self.negative_table()
        k = counts[users, None]
        if m and not k.all():
            bad = users[np.argmin(k)]
            raise ValueError(f"user {bad} has no un-interacted items to sample")
        draws = rng.random(users.size * m).reshape(users.size, m)
        indices = np.minimum((draws * k).astype(np.int64), k - 1)
        return table[users[:, None], indices]

    def negative_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Padded per-user negatives: ``(table, counts)``.

        ``table[u, :counts[u]]`` equals :meth:`negative_items`\\ ``(u)``
        (padding is zeros and must never be indexed — valid draws are
        always ``< counts[u]``).  This is the one negative structure behind
        :meth:`negative_items` and :meth:`uniform_negatives_rows`: one
        fancy gather ``table[users, indices]`` replaces a per-user loop.
        Built lazily once (the matrix is immutable) and read-only, at
        ``n_users × max_negatives`` int64 — near ``n_users × n_items`` for
        sparse data: at most 23.9M cells (191 MB) for the largest
        registered shape, ``ml-1m``, and a few MB for the ``-small``
        presets.
        """
        if self._negative_table is None:
            counts = self._n_items - self._user_activity
            width = int(counts.max()) if counts.size else 0
            table = np.zeros((self._n_users, width), dtype=np.int64)
            for user in range(self._n_users):
                table[user, : counts[user]] = np.nonzero(self.negative_mask(user))[0]
            # Read-only once here, so every negative_items slice inherits it.
            table.flags.writeable = False
            self._negative_table = (table, counts)
        return self._negative_table

    # ------------------------------------------------------------------ #
    # Functional updates
    # ------------------------------------------------------------------ #

    def with_appended(
        self, user_ids: Iterable[int], item_ids: Iterable[int]
    ) -> "InteractionMatrix":
        """A new matrix with the given ``(user, item)`` pairs appended.

        The ingestion seam for online serving: the matrix itself stays
        immutable (its lazy negative table and pair-key index remain
        valid forever), and callers that observe new interactions swap in
        the returned matrix and invalidate whatever *they* derived from
        the old one (e.g. the serving layer's per-user top-K lists, see
        :mod:`repro.serve`).

        Ids must have an integer dtype (``ValueError`` naming the argument
        otherwise: ``2.9`` is never read as ``2``) and lie in range.  Pairs
        repeated in the call or already stored are absorbed, and when no
        pair is new the call returns ``self``.  New pairs are inserted,
        not rebuilt: their item ids go into the CSR index at their
        ``searchsorted`` positions in the pair-key index, ``indptr``
        shifts by the per-user counts, and the successor inherits the
        grown index, so a chain of appends never sorts the stored pairs.
        Cost: a few O(nnz) copies and O(n_users + n_items) counts.  The
        successor equals ``InteractionMatrix(n_users, n_items, old + new
        pairs)`` array for array.
        """
        users = np.asarray(user_ids).ravel()
        items = np.asarray(item_ids).ravel()
        for name, ids in (("user_ids", users), ("item_ids", items)):
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"{name} must be integers, got dtype {ids.dtype}")
        users, items = _checked_pairs(users, items, self._n_users, self._n_items)
        keys = np.sort(users * self._n_items + items)
        pos, stored = self._locate(keys)
        new = ~stored
        new[1:] &= keys[1:] != keys[:-1]
        if not new.any():
            return self
        keys, pos = keys[new], pos[new]
        users = keys // self._n_items
        items = keys - users * self._n_items
        shift = np.cumsum(np.bincount(users, minlength=self._n_users))
        successor = InteractionMatrix.__new__(InteractionMatrix)
        successor._finish(
            self._n_users,
            self._n_items,
            self._indptr + np.concatenate(([0], shift)),
            np.insert(self._indices, pos, items),
            self._item_popularity + np.bincount(items, minlength=self._n_items),
            np.insert(self._pair_key_index(), pos, keys),
        )
        return successor

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def item_popularity(self) -> np.ndarray:
        """Interaction count per item, shape ``(n_items,)`` (a copy)."""
        return self._item_popularity.copy()

    @property
    def user_activity(self) -> np.ndarray:
        """Interaction count per user, shape ``(n_users,)`` (a copy)."""
        return self._user_activity.copy()

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All interactions as parallel int64 ``(user_ids, item_ids)``
        arrays, in CSR order (by user, then item)."""
        users = np.repeat(np.arange(self._n_users, dtype=np.int64), self._user_activity)
        return users, self._indices.astype(np.int64)

    def tocsr(self) -> sp.csr_matrix:
        """The matrix as a new scipy CSR matrix of ``int8`` ones."""
        data = np.ones(self._indices.size, dtype=np.int8)
        arrays = (data, self._indices.copy(), self._indptr.copy())
        matrix = sp.csr_matrix(arrays, shape=self.shape)
        matrix.has_canonical_format = True
        return matrix

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 ``int8`` array (use only on small matrices)."""
        dense = np.zeros(self.shape, dtype=np.int8)
        dense[self.pairs()] = 1
        return dense

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #

    def intersects(self, other: "InteractionMatrix") -> bool:
        """Whether any interaction appears in both matrices."""
        self._check_same_shape(other)
        return bool(self._locate(other._pair_key_index())[1].any())

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:  # immutable by convention, allow set membership
        return hash((self.shape, self.n_interactions))

    def __repr__(self) -> str:
        return (
            f"InteractionMatrix(n_users={self._n_users}, n_items={self._n_items}, "
            f"n_interactions={self.n_interactions})"
        )

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _pair_key_index(self) -> np.ndarray:
        """Sorted ``user * n_items + item`` keys of all stored interactions.

        Sortedness is free: CSR stores rows in order with sorted indices,
        so the flat keys are already ascending.
        """
        if self._pair_keys is None:
            users, items = self.pairs()
            self._pair_keys = users * self._n_items + items
        return self._pair_keys

    def _locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where flat ``keys`` sit in the pair-key index, and which are stored.

        Returns ``(pos, stored)``: the ``searchsorted`` insertion positions
        and a boolean array, both shaped like ``keys``.
        """
        pair_keys = self._pair_key_index()
        pos = np.searchsorted(pair_keys, keys)
        if pair_keys.size == 0:
            return pos, np.zeros(keys.shape, dtype=bool)
        # A key past the end sorts after the last stored key, so comparing
        # it with that key already answers False.
        return pos, pair_keys[np.minimum(pos, pair_keys.size - 1)] == keys

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self._n_users:
            raise IndexError(f"user {user} out of range [0, {self._n_users})")

    def _check_same_shape(self, other: "InteractionMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def _checked_pairs(
    user_ids: Iterable[int], item_ids: Iterable[int], n_users: int, n_items: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Parallel int64 id arrays, each id inside ``[0, n_users) x [0, n_items)``."""
    users = np.asarray(user_ids, dtype=np.int64).ravel()
    items = np.asarray(item_ids, dtype=np.int64).ravel()
    if users.shape != items.shape:
        raise ValueError(
            f"user_ids and item_ids must be parallel, got lengths "
            f"{users.size} and {items.size}"
        )
    if users.size:
        if users.min() < 0 or users.max() >= n_users:
            raise ValueError(
                f"user ids must lie in [0, {n_users}), got range "
                f"[{users.min()}, {users.max()}]"
            )
        if items.min() < 0 or items.max() >= n_items:
            raise ValueError(
                f"item ids must lie in [0, {n_items}), got range "
                f"[{items.min()}, {items.max()}]"
            )
    return users, items
