"""Measurement schedules: choosing tau for each shot separation.

Sweeping the shot separation delta_t while holding the evolution time tau
fixed convolves the spectroscopy signal chi_minus with its own tau
dependence.  The rules here pick tau(delta_t) so that a chosen reference
spectrum would give a *constant* chi_minus along the sweep; any bend in
the measured curve is then a property of the actual noise, not of the
schedule.

Two rules are provided:

``tau_constant_contrast``
    for knee spectra in the regime where chi_minus grows linearly with
    delta_t (between the inverse cutoff and inverse knee times),
    chi_minus = c^2 s0 omega_l^2 tau^2 delta_t, so
    tau = sqrt(target / (c^2 s0 omega_l^2 delta_t)).

``tau_oneoverf``
    for 1/f noise, chi_minus = A tau^2 (2/pi)(ln(delta_t/tau) + 3/2)
    once delta_t >> tau.  The ``"exact"`` variant holds
    tau^2 (ln(delta_t/tau) + 3/2) at a level, which requires the
    secondary real branch of Lambert W:

        tau = dt_hat * exp(W_-1(-2 level / dt_hat^2) / 2),
        dt_hat = e^{3/2} * delta_t.

    The ``"literal"`` variant is the simpler principal-branch form
    tau = delta_t * exp(W_0(-2 level / delta_t^2)).  It keeps tau just
    below delta_t (tau/delta_t -> 1 as delta_t grows) and holds
    tau^2 ln(delta_t/tau) only approximately constant; because
    delta_t/tau stays near 1, the resulting chi_minus is not flat.  It
    is retained for comparison, and the flatness suite selects "exact"
    as the default empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .correlator import EvolutionPair, chi_minus
from .numerics import ParamError, lambert_w, lambert_w_m1
from .spectra import OverhauserModel

__all__ = [
    "Schedule",
    "tau_constant_contrast",
    "tau_oneoverf",
    "build_schedule",
    "constant_contrast_schedule",
    "oneoverf_schedule",
    "chi_minus_profile",
]

FLAG_UNPHYSICAL = "unphysical"
FLAG_TAU_CUTOFF = "tau_omega_e"

_HEADER = ("delta_t_s", "tau_s", "flags")


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-row (delta_t, tau) pairs with advisory flags.

    flags[i] is a string of semicolon-joined tokens, empty when clean:
    ``unphysical``   tau exceeds delta_t, not realizable back to back;
    ``tau_omega_e``  tau * omega_e >= 0.1 for the reference model, so
                     short-evolution approximations are off their premise.
    """

    delta_t: np.ndarray
    tau: np.ndarray
    flags: tuple[str, ...]

    def __post_init__(self):
        dt = np.asarray(self.delta_t, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        if dt.ndim != 1 or dt.shape != tau.shape:
            raise ValueError("delta_t and tau must be 1-d arrays of equal length")
        if len(self.flags) != len(dt):
            raise ValueError("flags must have one entry per row")
        if not np.all(dt > 0) or not np.all(tau > 0):
            raise ValueError("delta_t and tau must be positive")
        if len(dt) > 1 and not np.all(np.diff(dt) > 0):
            raise ValueError("delta_t must be strictly increasing")
        object.__setattr__(self, "delta_t", dt)
        object.__setattr__(self, "tau", tau)

    def __len__(self):
        return len(self.delta_t)

    def pairs(self):
        return [EvolutionPair(t, d) for t, d in zip(self.tau, self.delta_t)]

    def to_csv(self, path):
        csvio.write_csv(path, _HEADER, zip(self.delta_t, self.tau, self.flags))

    @classmethod
    def from_csv(cls, path):
        dts, taus, flags = csvio.read_columns(path, dict(zip(_HEADER, (float, float, str))))
        return cls(dts, taus, tuple(flags))


def tau_constant_contrast(model: OverhauserModel, delta_t: float, target: float = 2.0) -> float:
    """tau holding the linear-regime chi_minus at ``target``.

    Inverts chi_minus = c^2 s0 omega_l^2 tau^2 delta_t; valid while
    delta_t sits between 1/omega_e and 1/omega_l of the reference model.
    """
    if not target > 0:
        raise ParamError("target", "target must be positive")
    if not delta_t > 0:
        raise ParamError("delta_t", "delta_t must be positive")
    if not isinstance(model, OverhauserModel):
        raise TypeError("tau_constant_contrast needs an OverhauserModel reference")
    weight = model.coupling_c**2 * model.s0 * model.omega_l**2
    if not weight > 0:
        raise ValueError("reference model has zero spectral weight")
    # Python floats: a product past the float range is inf or 0, with no warning
    denom = weight * float(delta_t)
    tau = math.sqrt(float(target) / denom) if denom > 0 else math.inf
    if not 0 < tau < math.inf:
        raise ParamError("delta_t", f"delta_t {delta_t:g} puts tau outside the float range")
    return tau


def _dt_hat(delta_t: float, variant: str) -> float:
    """delta_t as the Lambert argument takes it: times e^{3/2} for "exact", as is for "literal"."""
    if variant not in ("exact", "literal"):
        raise ParamError("variant", f"unknown variant {variant!r}")
    return math.exp(1.5) * delta_t if variant == "exact" else delta_t


def _oneoverf_min_dt(level: float, variant: str) -> float:
    # Lambert argument hits -1/e at dt_hat = sqrt(2 level e).
    return math.sqrt(2.0 * level * math.e) / _dt_hat(1.0, variant)


def tau_oneoverf(level: float, delta_t: float, variant: str = "exact") -> float:
    """tau from the 1/f-flattening rule at contrast ``level`` (s^2).

    variant "exact" holds tau^2 (ln(delta_t/tau) + 3/2) = level, which
    keeps the 1/f chi_minus constant; "literal" is the plain
    principal-branch form delta_t * exp(W(-2 level/delta_t^2)), which
    keeps tau just below delta_t and is not flat (see module docstring).

    Raises
    ------
    ValueError
        When delta_t is too short to support the requested level (the
        Lambert-W argument would fall below -1/e).
    """
    if not level > 0:
        raise ParamError("level", "level must be positive")
    if not delta_t > 0:
        raise ParamError("delta_t", "delta_t must be positive")
    dt_hat = _dt_hat(delta_t, variant)
    try:  # dt_hat**2 past the float range: a float's ** raises, numpy's gives inf
        with np.errstate(over="ignore"):
            x = -2.0 * level / dt_hat**2
    except OverflowError:
        x = -0.0
    if x < -1.0 / math.e * (1 + 1e-12):
        raise ParamError(
            "delta_t",
            f"delta_t={delta_t:g} too short for level={level:g}; "
            f"need delta_t >= {_oneoverf_min_dt(level, variant):g}"
        )
    if variant == "exact":
        if not x < 0:
            raise ParamError(
                "delta_t", f"delta_t={delta_t:g} too long for level={level:g}; the Lambert argument is 0"
            )
        return dt_hat * math.exp(0.5 * lambert_w_m1(x))
    return delta_t * math.exp(lambert_w(x))


def build_schedule(delta_t, tau, model: OverhauserModel | None = None) -> Schedule:
    """Assemble a Schedule from arrays, computing the advisory flags."""
    dt = np.asarray(delta_t, dtype=float)
    tv = np.asarray(tau, dtype=float)
    flags = []
    for d, t in zip(dt, tv):
        tokens = []
        if t > d:
            tokens.append(FLAG_UNPHYSICAL)
        if model is not None and model.cutoff_enabled and t * model.omega_e >= 0.1:
            tokens.append(FLAG_TAU_CUTOFF)
        flags.append(";".join(tokens))
    return Schedule(dt, tv, tuple(flags))


def constant_contrast_schedule(
    model: OverhauserModel, delta_t, target: float = 2.0
) -> Schedule:
    """Constant-contrast schedule over an array of shot separations."""
    dt = np.asarray(delta_t, dtype=float)
    tau = np.array([tau_constant_contrast(model, d, target) for d in dt])
    return build_schedule(dt, tau, model)


def oneoverf_schedule(level: float, delta_t, variant: str = "exact") -> Schedule:
    """1/f-flattening schedule over an array of shot separations.

    Raises
    ------
    ValueError
        Listing every delta_t in the grid that is too short for the
        requested level.
    """
    dt = np.asarray(delta_t, dtype=float)
    min_dt = _oneoverf_min_dt(level, variant) if level > 0 else math.nan
    bad = [f"{d:g}" for d in dt if d > 0 and d < min_dt * (1 - 1e-12)]
    if bad:
        raise ParamError(
            "delta_t",
            f"delta_t values too short for level={level:g} "
            f"(need >= {min_dt:g}): {', '.join(bad)}"
        )
    tau = np.array([tau_oneoverf(level, d, variant) for d in dt])
    return build_schedule(dt, tau)


def chi_minus_profile(spectrum, schedule: Schedule, quad=None) -> np.ndarray:
    """chi_minus evaluated along every row of a schedule."""
    return np.array([chi_minus(spectrum, p, quad) for p in schedule.pairs()])
