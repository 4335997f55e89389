"""Test helper: stub models that define only ``scores(user)``."""

from __future__ import annotations

import numpy as np


class RowScored:
    """Mixin giving a ``scores``-only stub the ``scores_batch`` the
    evaluator reads: it stacks one ``scores`` row per user, so a stub
    that records its ``scores`` calls still sees each user."""

    def scores_batch(self, users):
        return np.stack([self.scores(int(user)) for user in users])
