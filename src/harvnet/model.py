"""Domain types shared by every other module.

A network scenario bundles the deployment parameters of a K-tier cellular
network in which every base station runs off a harvest-and-store energy
module: per-tier BS density, transmit power, energy harvesting rate, battery
capacity, lognormal shadowing parameters, plus the global path loss exponent,
SIR target and user density.  All quantities are linear (not dB) except the
shadowing mean/std, which are the dB-domain parameters of the lognormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ln(10)/5: converts a dB-domain normal into the exponent of the linear gain
# raised to the 2/alpha power, see ShadowingSpec.frac_moment.
_LN10_OVER_5 = math.log(10.0) / 5.0


class ScenarioError(ValueError):
    """Raised when a scenario (or derived input) violates a model constraint."""


@dataclass(frozen=True)
class ShadowingSpec:
    """Lognormal shadowing: gain X = 10^(Z/10) with Z ~ Normal(mean_db, std_db^2).

    std_db = 0 gives the deterministic gain 10^(mean_db/10); (0, 0) disables
    shadowing entirely.
    """

    mean_db: float = 0.0
    std_db: float = 0.0

    def frac_moment(self, alpha: float) -> float:
        """E[X^(2/alpha)] for the lognormal gain X.

        With Z ~ N(m, sigma^2) in dB, X^(2/alpha) = exp(c*Z/alpha) where
        c = ln(10)/5, so the moment is exp(c*m/alpha + (c*sigma/alpha)^2/2).
        Equals 1.0 for the degenerate (0, 0) spec.
        """
        if alpha <= 2:
            raise ScenarioError(f"path_loss_exp must exceed 2 (got {alpha})")
        mu = _LN10_OVER_5 * self.mean_db / alpha
        sd = _LN10_OVER_5 * self.std_db / alpha
        return math.exp(mu + 0.5 * sd * sd)


NO_SHADOWING = ShadowingSpec(0.0, 0.0)


@dataclass(frozen=True)
class TierParams:
    """Parameters of one BS tier."""

    density: float            # lambda_k, BSs per unit area
    tx_power: float           # P_k, linear
    harvest_rate: float       # mu_k, energy units per unit time
    battery: int              # N_k, energy storage capacity (units)
    shadowing: ShadowingSpec = NO_SHADOWING

    def weight(self, alpha: float) -> float:
        """Per-BS association weight E[X^(2/alpha)] * P^(2/alpha)."""
        return self.shadowing.frac_moment(alpha) * self.tx_power ** (2.0 / alpha)


@dataclass(frozen=True)
class NetworkScenario:
    """Full scenario: K tiers plus global propagation and load parameters."""

    tiers: tuple[TierParams, ...]
    path_loss_exp: float      # alpha > 2
    sir_target: float         # beta, linear
    user_density: float       # lambda_u, users per unit area

    def __post_init__(self):
        object.__setattr__(self, "tiers", tuple(self.tiers))

    @property
    def k_tiers(self) -> int:
        return len(self.tiers)

    def densities(self) -> np.ndarray:
        return np.array([t.density for t in self.tiers])

    def harvest_rates(self) -> np.ndarray:
        return np.array([t.harvest_rate for t in self.tiers])

    def batteries(self) -> np.ndarray:
        return np.array([t.battery for t in self.tiers], dtype=np.int64)

    def tier_weights(self) -> np.ndarray:
        """Per-BS weights E[X_k^(2/alpha)] * P_k^(2/alpha), one per tier."""
        return np.array([t.weight(self.path_loss_exp) for t in self.tiers])


def validate(scenario: NetworkScenario) -> None:
    """Check every model constraint, raising ScenarioError naming the field."""
    if scenario.k_tiers < 1:
        raise ScenarioError("tiers must contain at least one tier")
    if not scenario.path_loss_exp > 2:
        raise ScenarioError(
            f"path_loss_exp must exceed 2 (got {scenario.path_loss_exp})")
    if not (math.isfinite(scenario.sir_target) and scenario.sir_target > 0):
        raise ScenarioError(
            f"sir_target must be finite and > 0 (got {scenario.sir_target})")
    if not scenario.user_density > 0:
        raise ScenarioError(f"user_density must be > 0 (got {scenario.user_density})")
    for i, t in enumerate(scenario.tiers):
        if not t.density > 0:
            raise ScenarioError(f"tiers[{i}].density must be > 0 (got {t.density})")
        if not t.tx_power > 0:
            raise ScenarioError(f"tiers[{i}].tx_power must be > 0 (got {t.tx_power})")
        if not t.harvest_rate > 0:
            raise ScenarioError(
                f"tiers[{i}].harvest_rate must be > 0 (got {t.harvest_rate})")
        if not (isinstance(t.battery, (int, np.integer)) and t.battery >= 1):
            raise ScenarioError(
                f"tiers[{i}].battery must be an integer >= 1 (got {t.battery})")
        if t.shadowing.std_db < 0:
            raise ScenarioError(
                f"tiers[{i}].shadowing.std_db must be >= 0 (got {t.shadowing.std_db})")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate: mean, 99% confidence half-width, sample count, seed.

    `dropped` counts replicates left out because their realization could
    not yield the statistic (no BS or no user in the window).
    """

    mean: float
    ci_halfwidth_99: float
    samples: int
    seed: int
    dropped: int = 0

    def agrees_with(self, value: float, other_halfwidth: float = 0.0) -> bool:
        """True iff value lies within the combined 99% confidence interval."""
        return abs(self.mean - value) <= self.ci_halfwidth_99 + other_halfwidth


def check_availability_vector(rho, k_tiers: int) -> np.ndarray:
    """Coerce rho to a validated float array of length k_tiers in [0, 1]."""
    arr = np.asarray(rho, dtype=float)
    if arr.shape != (k_tiers,):
        raise ScenarioError(
            f"availability vector must have length {k_tiers} (got shape {arr.shape})")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ScenarioError(f"availabilities must lie in [0, 1] (got {arr})")
    return arr
