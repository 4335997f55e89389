"""Calibrated synthetic interaction generator.

This environment has no network access, so the MovieLens / Yahoo!-R3 files
the paper evaluates on cannot be downloaded.  The generator here produces a
synthetic equivalent with the properties those datasets exhibit and that the
paper's method actually exercises:

* a **low-rank preference structure** — users and items live in a latent
  factor space, and interaction probability grows with affinity.  This is
  what MF/LightGCN recover, and what makes held-out positives ("false
  negatives") receive systematically higher model scores (the order
  relation of Eq. 6 / Fig. 1);
* **power-law item popularity** — a Zipf-weighted exposure term, which is
  what the popularity prior of Eq. 17 and the PNS baseline key on;
* **occupation clusters** — users are grouped into occupations whose
  members share preferences, giving the occupation-enhanced prior (BNS-4)
  genuine signal, mirroring ML-100K's ``u.user`` side file;
* **heavy-tailed user activity** — log-normal degrees, as in the real logs.

Calibration presets pin the universe sizes and interaction counts to the
paper's Table I so the reproduced Table I matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.data.ratings import RatingLog
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_in_range, check_positive

__all__ = ["CalibrationPreset", "GroundTruth", "LatentFactorGenerator", "PRESETS"]


@dataclass(frozen=True)
class CalibrationPreset:
    """Parameters of one synthetic dataset.

    Attributes
    ----------
    name:
        Dataset tag the preset imitates.
    n_users, n_items, n_interactions:
        Universe sizes and total interaction count (train + test), matching
        the paper's Table I.
    n_factors:
        Latent dimensionality of the planted preference structure.
    popularity_exponent:
        Zipf exponent ``s`` of the exposure weights ``w_r ∝ r^{-s}``.
    affinity_weight:
        How strongly latent affinity (vs. popularity exposure) drives
        interactions; 0 gives pure popularity, larger values give sharper
        personalization.
    n_occupations, occupation_strength:
        Number of user occupation clusters and the fraction of a user's
        factor vector inherited from the cluster center (in [0, 1)).
    degree_sigma:
        Log-normal sigma of per-user activity (0 = uniform degrees).
    """

    name: str
    n_users: int
    n_items: int
    n_interactions: int
    n_factors: int = 16
    popularity_exponent: float = 1.0
    affinity_weight: float = 3.0
    n_occupations: int = 21
    occupation_strength: float = 0.5
    degree_sigma: float = 0.9

    def __post_init__(self) -> None:
        check_positive(self.n_users, "n_users")
        check_positive(self.n_items, "n_items")
        check_positive(self.n_interactions, "n_interactions")
        check_positive(self.n_factors, "n_factors")
        check_in_range(self.occupation_strength, 0.0, 1.0, "occupation_strength")
        if self.n_interactions > self.n_users * self.n_items:
            raise ValueError(
                "n_interactions exceeds matrix capacity "
                f"({self.n_interactions} > {self.n_users * self.n_items})"
            )

    def scaled(self, factor: float, suffix: str = "-small") -> "CalibrationPreset":
        """A proportionally smaller preset (for tests and benchmarks).

        Interactions shrink with exponent 1.6 rather than 2, so the small
        variants are *denser* than the originals: this keeps held-out
        positives (the false negatives that sampling-quality metrics key
        on) a visible fraction of each user's unlabeled pool.
        """
        check_positive(factor, "factor")
        n_users = max(8, int(round(self.n_users * factor)))
        n_items = max(12, int(round(self.n_items * factor)))
        n_inter = max(
            4 * n_users,
            int(round(self.n_interactions * factor**1.6)),
        )
        n_inter = min(n_inter, n_users * n_items // 2)
        return replace(
            self,
            name=self.name + suffix,
            n_users=n_users,
            n_items=n_items,
            n_interactions=n_inter,
        )


@dataclass(frozen=True)
class GroundTruth:
    """The planted structure behind a synthetic log (useful in tests).

    Attributes
    ----------
    user_factors, item_factors:
        The latent matrices that generated affinities.
    exposure_weights:
        Per-item Zipf exposure weights (unnormalized).
    affinity:
        Dense ``(n_users, n_items)`` affinity used for sampling; only
        retained for small universes (``None`` otherwise).
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    exposure_weights: np.ndarray
    affinity: Optional[np.ndarray]


#: Presets calibrated to the paper's Table I.  Yahoo!-R3's train/test counts
#: (146k/36k) sum to 182k total interactions.
PRESETS: Dict[str, CalibrationPreset] = {
    "ml-100k": CalibrationPreset(
        name="ml-100k", n_users=943, n_items=1682, n_interactions=100_000
    ),
    "ml-1m": CalibrationPreset(
        name="ml-1m", n_users=6040, n_items=3952, n_interactions=1_000_000
    ),
    "yahoo-r3": CalibrationPreset(
        name="yahoo-r3",
        n_users=5400,
        n_items=1000,
        n_interactions=182_000,
        # R3's training interactions come from organic usage with a strong
        # popularity skew.
        popularity_exponent=1.2,
    ),
}


class LatentFactorGenerator:
    """Generate a synthetic :class:`RatingLog` from a calibration preset.

    The generative process, per user ``u``:

    1. draw occupation ``o_u`` and factor ``p_u`` around the occupation
       center;
    2. compute affinity ``a_ui = p_u · q_i``;
    3. draw degree ``n_u`` from a log-normal calibrated so degrees sum to
       the preset's interaction count;
    4. sample ``n_u`` distinct items via Gumbel-top-k with log-weights
       ``affinity_weight · a_ui + log w_i`` (``w_i`` = Zipf exposure).

    Ratings are quantized from affinity quantiles onto the 1..5 scale so
    real-parser and synthetic paths produce the same schema.
    """

    def __init__(self, preset: CalibrationPreset, seed: SeedLike = None) -> None:
        self.preset = preset
        self._rng = as_rng(seed)

    # ------------------------------------------------------------------ #

    def generate(self) -> RatingLog:
        """Generate a rating log (drops the ground truth)."""
        log, _ = self.generate_with_truth()
        return log

    def generate_with_truth(self) -> tuple[RatingLog, GroundTruth]:
        """Generate a rating log along with the planted latent structure."""
        p = self.preset
        rng = self._rng

        occupations = rng.integers(p.n_occupations, size=p.n_users)
        centers = rng.normal(size=(p.n_occupations, p.n_factors))
        strength = p.occupation_strength
        user_factors = np.sqrt(strength) * centers[occupations] + np.sqrt(
            1.0 - strength
        ) * rng.normal(size=(p.n_users, p.n_factors))
        item_factors = rng.normal(size=(p.n_items, p.n_factors))
        user_factors /= np.sqrt(p.n_factors)
        item_factors /= np.sqrt(p.n_factors)

        exposure = self._exposure_weights(rng)
        degrees = self._degrees(rng)

        keep_affinity = p.n_users * p.n_items <= 2_000_000
        affinity_dense = np.empty((p.n_users, p.n_items)) if keep_affinity else None

        log_exposure = np.log(exposure)
        users_out = np.empty(int(degrees.sum()), dtype=np.int64)
        items_out = np.empty(int(degrees.sum()), dtype=np.int64)
        affinity_out = np.empty(int(degrees.sum()))
        cursor = 0
        for user in range(p.n_users):
            affinity = item_factors @ user_factors[user]
            if affinity_dense is not None:
                affinity_dense[user] = affinity
            logits = p.affinity_weight * affinity + log_exposure
            # Gumbel-top-k == weighted sampling without replacement.
            keys = logits + rng.gumbel(size=p.n_items)
            n_u = int(degrees[user])
            # The user clicks the top n_u keys, taken from a stable sort of
            # the top 2·n_u.  That window and sort fix the order of tied
            # keys, so both stay: every generated log is pinned bit for bit.
            n_shown = min(2 * n_u, p.n_items)
            consideration = np.argpartition(keys, p.n_items - n_shown)[
                p.n_items - n_shown :
            ]
            order = consideration[np.argsort(-keys[consideration], kind="stable")]
            chosen = order[:n_u]
            users_out[cursor : cursor + n_u] = user
            items_out[cursor : cursor + n_u] = chosen
            affinity_out[cursor : cursor + n_u] = affinity[chosen]
            cursor += n_u

        ratings = self._quantize_ratings(affinity_out)
        log = RatingLog(
            n_users=p.n_users,
            n_items=p.n_items,
            user_ids=users_out,
            item_ids=items_out,
            ratings=ratings,
            user_occupations=occupations,
            occupation_names=tuple(f"occupation-{k}" for k in range(p.n_occupations)),
            name=f"synthetic:{p.name}",
        )
        truth = GroundTruth(
            user_factors=user_factors,
            item_factors=item_factors,
            exposure_weights=exposure,
            affinity=affinity_dense,
        )
        return log, truth

    # ------------------------------------------------------------------ #

    def _exposure_weights(self, rng: np.random.Generator) -> np.ndarray:
        """Zipf exposure weights assigned to a random item permutation."""
        p = self.preset
        ranks = np.arange(1, p.n_items + 1, dtype=np.float64)
        weights = ranks ** (-p.popularity_exponent)
        weights /= weights.sum()
        return weights[rng.permutation(p.n_items)]

    def _degrees(self, rng: np.random.Generator) -> np.ndarray:
        """Per-user degrees: log-normal, clipped, summing exactly to target."""
        p = self.preset
        raw = rng.lognormal(mean=0.0, sigma=p.degree_sigma, size=p.n_users)
        # Keep headroom: no user may exceed 80% of the catalogue.
        cap = max(2, int(0.8 * p.n_items))
        degrees = np.clip(
            np.round(raw * p.n_interactions / raw.sum()).astype(np.int64), 1, cap
        )
        return self._match_total(degrees, p.n_interactions, cap, rng)

    @staticmethod
    def _match_total(
        degrees: np.ndarray, target: int, cap: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Nudge rounded degrees so they sum exactly to ``target``."""
        degrees = degrees.copy()
        diff = target - int(degrees.sum())
        while diff != 0:
            step = 1 if diff > 0 else -1
            eligible = (
                np.nonzero(degrees < cap)[0] if step > 0 else np.nonzero(degrees > 1)[0]
            )
            if eligible.size == 0:
                raise RuntimeError(
                    "cannot calibrate degrees: target interaction count "
                    "incompatible with degree bounds"
                )
            take = min(abs(diff), eligible.size)
            chosen = rng.choice(eligible, size=take, replace=False)
            degrees[chosen] += step
            diff -= step * take
        return degrees

    @staticmethod
    def _quantize_ratings(affinities: np.ndarray) -> np.ndarray:
        """Map affinities onto a 1..5 scale by global quantile."""
        if affinities.size == 0:
            return affinities.astype(np.float64)
        order = affinities.argsort().argsort()  # ranks, 0-based
        quantile = (order + 0.5) / affinities.size
        return np.ceil(quantile * 5).clip(1, 5).astype(np.float64)
