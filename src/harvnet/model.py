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


def _check_integer(value, name: str, low: int, high: int | None = None) -> None:
    """Raise ScenarioError naming `name` unless value is an integer in [low, high].

    A bool is not an integer here, as in scenario files.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ScenarioError(f"{name} must be an integer {bound} (got {value!r})")


def _check_positive(value, name: str) -> None:
    """Raise ScenarioError naming `name` unless 0 < value < inf (so NaN is refused too)."""
    if not 0 < value < math.inf:
        raise ScenarioError(f"{name} must be finite and > 0 (got {value})")


def _check_nonnegative(value, name: str) -> np.ndarray:
    """value as a float array; ScenarioError naming `name` unless each entry is finite and >= 0."""
    arr = np.asarray(value, dtype=float)
    if not 0 <= arr.min(initial=0.0) <= arr.max(initial=0.0) < math.inf:     # NaN too
        raise ScenarioError(f"{name} must be finite and >= 0 (got {arr})")
    return arr


def _check_path_loss_exp(alpha) -> None:
    """Raise ScenarioError unless 2 < alpha < inf (so NaN is refused too)."""
    if not 2 < alpha < math.inf:
        raise ScenarioError(f"path_loss_exp must be finite and > 2 (got {alpha})")


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
        _check_path_loss_exp(alpha)
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
    """Full scenario: K tiers plus global propagation and load parameters.

    Building one, or deriving one with dataclasses.replace, runs `validate`,
    so every scenario that exists satisfies the model's constraints and no
    later call checks its fields again.
    """

    tiers: tuple[TierParams, ...]
    path_loss_exp: float      # alpha > 2
    sir_target: float         # beta, linear
    user_density: float       # lambda_u, users per unit area

    def __post_init__(self):
        object.__setattr__(self, "tiers", tuple(self.tiers))
        validate(self)

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
    """Check every model constraint, raising ScenarioError naming the field.

    NetworkScenario runs it when it is built; calling it again is harmless.
    A recharge policy's cutoff and a tier index are checked by the calls
    that take them, against this scenario's K and batteries.
    """
    if scenario.k_tiers < 1:
        raise ScenarioError("tiers must contain at least one tier")
    _check_path_loss_exp(scenario.path_loss_exp)
    _check_positive(scenario.sir_target, "sir_target")
    _check_positive(scenario.user_density, "user_density")
    for i, t in enumerate(scenario.tiers):
        for name in ("density", "tx_power", "harvest_rate"):
            _check_positive(getattr(t, name), f"tiers[{i}].{name}")
        _check_integer(t.battery, f"tiers[{i}].battery", 1)
        sh = t.shadowing
        if not math.isfinite(sh.mean_db):
            raise ScenarioError(
                f"tiers[{i}].shadowing.mean_db must be finite (got {sh.mean_db})")
        _check_nonnegative(sh.std_db, f"tiers[{i}].shadowing.std_db")
        try:
            weight = t.weight(scenario.path_loss_exp)
        except OverflowError:
            weight = math.inf
        if not 0 < weight < math.inf:
            raise ScenarioError(
                f"tiers[{i}] association weight leaves the float range "
                f"(tx_power={t.tx_power}, shadowing.mean_db={sh.mean_db}, "
                f"shadowing.std_db={sh.std_db})")


# z quantile for two-sided 99% confidence intervals.
_Z99 = 2.5758293035489004

# Two-sided 99% Student-t quantiles t(0.995, df) for df = 1..24.
_T99 = (
    63.656741162871526, 9.924843200918287, 5.840909309733355, 4.604094871349992,
    4.032142983555228, 3.7074280213248065, 3.4994832973504924, 3.355387331333395,
    3.249835541592126, 3.16927267261695, 3.1058065155392804, 3.0545395893929013,
    3.012275838716578, 2.9768427343708344, 2.946712883475238, 2.9207816224251,
    2.8982305196774183, 2.8784404727386077, 2.8609346064649794, 2.8453397097861077,
    2.83135955802305, 2.8187560606001423, 2.807335683769999, 2.796939504774456,
)


def _t99(df: int) -> float:
    """Two-sided 99% Student-t quantile for df >= 1 degrees of freedom.

    From the table up to df = 24; beyond, the Cornish-Fisher expansion in
    1/df about _Z99 (Abramowitz and Stegun 26.7.5), whose four terms are
    within 4e-7 relative there and shrink like df^-5.
    """
    if df <= len(_T99):
        return _T99[df - 1]
    z, z2 = _Z99, _Z99 * _Z99
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
    g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
    g4 = z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
    v = 1.0 / df
    return z + v * (g1 + v * (g2 + v * (g3 + v * g4)))


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


def check_availability_vector(rho, k_tiers: int, *, lanes: bool = False) -> np.ndarray:
    """Coerce rho to a validated float array of length k_tiers in [0, 1] (no NaN).

    With `lanes`, a stack of such vectors, shape (L, k_tiers), one per row,
    passes too.  A value outside [0, 1] is reported with the first vector
    that holds one.
    """
    arr = np.asarray(rho, dtype=float)
    if arr.ndim not in ((1, 2) if lanes else (1,)) or arr.shape[-1] != k_tiers:
        raise ScenarioError(
            f"availability vector must have length {k_tiers} (got shape {arr.shape})")
    if not ((arr >= 0) & (arr <= 1)).all():
        rows = arr.reshape(-1, k_tiers)
        first = rows[np.argmax(~((rows >= 0) & (rows <= 1)).all(axis=1))]
        raise ScenarioError(f"availabilities must lie in [0, 1] (got {first})")
    return arr


def _two_tier_grid(scenario: NetworkScenario, resolution: int, low: float = 0.0) -> np.ndarray:
    """linspace(low, 1, resolution), the availability axis of a two-tier grid, after its checks.

    The one check of the region sweeps and of the rate surface: exactly 2
    tiers and an integer resolution of at least 2.
    """
    if scenario.k_tiers != 2:
        raise ScenarioError(f"availability grids require exactly 2 tiers (got {scenario.k_tiers})")
    _check_integer(resolution, "grid_resolution", 2)
    return np.linspace(low, 1.0, resolution)
