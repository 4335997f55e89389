"""Per-user top-K result cache with strict invalidation.

:class:`TopKCache` holds each user's precomputed recommendation list (the
canonical-order output of :func:`repro.eval.topk.top_k_items_batch`,
truncated to the cache width).  Because the canonical ranking is a total
order, any request for ``k <= cache_k`` is a pure prefix read — one dict
lookup and one slice, no scoring.

Invalidation is strict: ``invalidate(user)`` drops the entry, and the
next request recomputes from the live model and interaction matrix, so
served lists are always exact.

The cache is plain bookkeeping — no locking here.  Thread safety is the
:class:`repro.serve.service.RankingService`'s job, which wraps every
cache access in its service lock.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["TopKCache"]


class TopKCache:
    """Map ``user ->`` cached canonical top-``cache_k`` id list.

    Parameters
    ----------
    cache_k:
        Width of the cached lists.  Requests with ``k <= cache_k`` can be
        served as prefix reads; wider requests bypass the cache.
    """

    def __init__(self, cache_k: int) -> None:
        self.cache_k = int(check_positive(cache_k, "cache_k"))
        self._entries: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, user: int, k: int) -> Optional[np.ndarray]:
        """The user's top-``k`` prefix, or ``None`` on a miss.

        A miss is: no entry, or ``k > cache_k``.  The returned array is
        freshly sliced/copied and safe to hand to callers.
        """
        if k > self.cache_k:
            return None
        entry = self._entries.get(user)
        if entry is None:
            return None
        return entry[:k].copy()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user: int) -> bool:
        return user in self._entries

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def put(self, user: int, ids: np.ndarray) -> None:
        """Store a user's fresh canonical list (truncated to ``cache_k``).

        ``ids`` must be the unpadded canonical list as computed against
        the *current* interaction matrix.
        """
        self._entries[int(user)] = np.asarray(ids, dtype=np.int64)[: self.cache_k]

    def put_rows(
        self, users: np.ndarray, ids: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Bulk :meth:`put` from a ``top_k_items_batch`` result block."""
        for row, user in enumerate(np.asarray(users, dtype=np.int64).tolist()):
            self.put(user, ids[row, : lengths[row]])

    def invalidate(self, user: int) -> None:
        """Drop a user's entry; unknown users are a no-op."""
        self._entries.pop(int(user), None)

    def __repr__(self) -> str:
        return f"TopKCache(cache_k={self.cache_k}, entries={len(self._entries)})"
