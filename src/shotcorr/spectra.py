"""Noise spectrum models for the dephasing field coupled to the qubit.

Conventions
-----------
All spectra are two-sided densities of the angular detuning beta (rad/s)
as a function of angular frequency omega (rad/s), normalized so that

    <beta^2> = (1/pi) * integral_0^inf S(omega) d omega.

Times are seconds everywhere in the library; any Hz/(rad/s) conversion
happens at the command-line boundary only.

Models
------
OverhauserModel
    Lorentzian knee at omega_l with a stretched-exponential high-frequency
    cutoff at omega_e, scaled from a field spectrum (T^2 s/rad) to the
    detuning spectrum by the square of a gyromagnetic coupling.  Setting
    ``omega_e=inf`` disables the cutoff (pure Lorentzian).
WhiteModel
    Flat up to a hard cutoff.
PowerLawModel
    amplitude/omega^alpha between two hard band edges, held constant
    below the lower edge.
TabulatedModel
    Log-log interpolation of measured points, zero outside the table.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from . import csvio
from .numerics import QuadratureSpec, filon_cos_integral

__all__ = [
    "SpectrumModel",
    "OverhauserModel",
    "WhiteModel",
    "PowerLawModel",
    "TabulatedModel",
    "evaluate",
    "variance",
    "beta_autocorrelation",
    "coupling_from_g",
    "BOHR_MAGNETON",
    "HBAR",
]

BOHR_MAGNETON = 9.2740100783e-24  # J/T
HBAR = 1.054571817e-34  # J s


def coupling_from_g(g_factor: float) -> float:
    """Detuning per field, |g| mu_B / hbar, in rad/(s T)."""
    return abs(g_factor) * BOHR_MAGNETON / HBAR


def _check_omega(omega):
    arr = np.asarray(omega, dtype=float)
    if arr.size and arr.min() < 0:
        raise ValueError("omega must be nonnegative")
    return arr


class SpectrumModel(abc.ABC):
    """Interface shared by all spectrum models."""

    @abc.abstractmethod
    def evaluate(self, omega):
        """Spectral density at omega (rad/s); vectorized, finite, >= 0."""

    @property
    @abc.abstractmethod
    def knee(self) -> float:
        """Scale of the lowest spectral feature, for window defaults."""

    @property
    def hard_max(self) -> float:
        """Frequency above which the spectrum is identically zero."""
        return math.inf

    @property
    def hard_min(self) -> float:
        """Frequency below which the spectrum is identically zero."""
        return 0.0

    def breakpoints(self):
        """Interior omega values where the model is not smooth."""
        return ()

    def suggested_omega_max(self, floor: float = 1e-18) -> float:
        """Upper integration limit beyond which S is negligible."""
        return self.hard_max


@dataclass(frozen=True)
class OverhauserModel(SpectrumModel):
    """Nuclear-field style spectrum with Lorentzian knee and soft cutoff.

    S_beta(omega) = coupling_c**2 * s0 / (1 + (omega/omega_l)**2)
                    * exp(-(omega/omega_e)**gamma)

    Parameters
    ----------
    s0 : float
        Zero-frequency field spectral density, T^2 s/rad.
    omega_l, omega_e : float
        Knee and cutoff angular frequencies, rad/s; ``omega_e=inf``
        disables the cutoff.
    gamma : float
        Cutoff shape exponent (1 exponential, 2 Gaussian).
    coupling_c : float
        Field-to-detuning conversion, rad/(s T).  Use 1.0 to work
        directly in detuning units.
    """

    s0: float
    omega_l: float
    omega_e: float
    gamma: float
    coupling_c: float

    def __post_init__(self):
        if not self.s0 >= 0:
            raise ValueError("s0 must be nonnegative")
        if not self.omega_l > 0:
            raise ValueError("omega_l must be positive")
        if not self.omega_e > self.omega_l:
            raise ValueError("omega_e must exceed omega_l")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.coupling_c > 0:
            raise ValueError("coupling_c must be positive")

    @classmethod
    def from_rms(cls, rms_field, omega_l, omega_e, gamma, coupling_c):
        """Build from the rms field instead of s0.

        For a Lorentzian, <B^2> = s0 * omega_l / 2, so s0 = 2 <B^2> / omega_l.
        The soft cutoff removes a little variance at the top, which the
        test suite bounds against quadrature.
        """
        if not rms_field > 0:
            raise ValueError("rms_field must be positive")
        s0 = 2.0 * rms_field**2 / omega_l
        return cls(s0, omega_l, omega_e, gamma, coupling_c)

    @property
    def cutoff_enabled(self) -> bool:
        return math.isfinite(self.omega_e)

    def evaluate(self, omega):
        w = _check_omega(omega)
        out = self.coupling_c**2 * self.s0 / (1.0 + (w / self.omega_l) ** 2)
        if self.cutoff_enabled:
            out = out * np.exp(-((w / self.omega_e) ** self.gamma))
        return out if np.ndim(omega) else float(out)

    @property
    def knee(self):
        return self.omega_l

    def suggested_omega_max(self, floor: float = 1e-18):
        if self.cutoff_enabled:
            # stretched exponential below `floor` relative to the peak
            return self.omega_e * math.log(1.0 / floor) ** (1.0 / self.gamma)
        # bare Lorentzian tail ~ (omega_l/omega)^2
        return self.omega_l / math.sqrt(floor)


@dataclass(frozen=True)
class WhiteModel(SpectrumModel):
    """Flat spectrum ``level`` up to a hard cutoff ``omega_high``."""

    level: float
    omega_high: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.omega_high > 0:
            raise ValueError("omega_high must be positive")

    def evaluate(self, omega):
        w = _check_omega(omega)
        out = np.where(w <= self.omega_high, self.level, 0.0)
        return out if np.ndim(omega) else float(out)

    @property
    def knee(self):
        return self.omega_high

    @property
    def hard_max(self):
        return self.omega_high


@dataclass(frozen=True)
class PowerLawModel(SpectrumModel):
    """amplitude / omega**alpha inside [omega_low, omega_high].

    Below omega_low the density is held at its band-edge value (keeps the
    variance finite for alpha >= 1); above omega_high it is zero.
    """

    amplitude: float
    alpha: float
    omega_low: float
    omega_high: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not 0 <= self.alpha < 3:
            raise ValueError("alpha must lie in [0, 3)")
        if not self.omega_low > 0:
            raise ValueError("omega_low must be positive")
        if not self.omega_high > self.omega_low:
            raise ValueError("omega_high must exceed omega_low")

    def evaluate(self, omega):
        w = _check_omega(omega)
        clipped = np.clip(w, self.omega_low, None)
        out = np.where(
            w <= self.omega_high, self.amplitude * clipped**-self.alpha, 0.0
        )
        return out if np.ndim(omega) else float(out)

    @property
    def knee(self):
        return self.omega_low

    @property
    def hard_max(self):
        return self.omega_high

    def breakpoints(self):
        return (self.omega_low,)


@dataclass(frozen=True, eq=False)
class TabulatedModel(SpectrumModel):
    """Measured spectrum given as (omega, S) rows, log-log interpolated.

    Outside the tabulated range the density is zero.  Table frequencies
    must be strictly increasing and positive; densities must be
    nonnegative.  A zero density pins the whole interval up to the next
    positive knot to zero, so compact support can be expressed by zero
    edge rows.
    """

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an (n, 2) array with n >= 2")
        if not np.all(np.diff(pts[:, 0]) > 0):
            raise ValueError("table frequencies must be strictly increasing")
        if not pts[0, 0] > 0:
            raise ValueError("table frequencies must be positive")
        if not np.all(pts[:, 1] >= 0):
            raise ValueError("table densities must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_log_w", np.log(pts[:, 0]))
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_s", np.log(pts[:, 1]))

    @classmethod
    def from_csv(cls, path):
        """Load from CSV with header ``omega_rad_per_s,S``."""
        omega, density = csvio.read_columns(path, {"omega_rad_per_s": float, "S": float})
        if len(omega) < 2:
            raise ValueError(f"{path}: need at least two spectrum rows")
        return cls(np.column_stack((omega, density)))

    def evaluate(self, omega):
        w = _check_omega(omega)
        inside = (w >= self.points[0, 0]) & (w <= self.points[-1, 0])
        safe = np.where(inside, w, self.points[0, 0])
        with np.errstate(invalid="ignore"):
            logs = np.interp(np.log(safe), self._log_w, self._log_s)
            out = np.where(inside, np.exp(logs), 0.0)
        out = np.nan_to_num(out, nan=0.0, posinf=np.inf)
        return out if np.ndim(omega) else float(out)

    @property
    def knee(self):
        return float(self.points[0, 0])

    @property
    def hard_max(self):
        return float(self.points[-1, 0])

    @property
    def hard_min(self):
        return float(self.points[0, 0])

    def breakpoints(self):
        # all knots: the integration window starts at 0, so even the first
        # knot is an interior discontinuity of the integrand
        return tuple(self.points[:, 0])


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def evaluate(spectrum: SpectrumModel, omega):
    """Spectral density of the detuning at omega (rad/s)."""
    return spectrum.evaluate(omega)


def _variance_window(spectrum, quad):
    lo = quad.omega_min
    hi = quad.omega_max
    if lo is None:
        lo = max(spectrum.hard_min, spectrum.knee * 1e-9)
    if hi is None:
        hi = spectrum.suggested_omega_max()
    return lo, hi


def variance(spectrum: SpectrumModel, quad: QuadratureSpec | None = None) -> float:
    """Mean-square detuning, (1/pi) * integral of S over positive omega."""
    return beta_autocorrelation(spectrum, 0.0, quad)


def beta_autocorrelation(
    spectrum: SpectrumModel, delta_t: float, quad: QuadratureSpec | None = None
) -> float:
    """Stationary autocovariance of the detuning at time separation delta_t.

    (1/pi) * integral of S(omega) * cos(omega * delta_t).  At delta_t = 0
    this is the variance; the integrators share one code path so the
    consistency is structural.
    """
    if delta_t < 0:
        raise ValueError("delta_t must be nonnegative")
    quad = quad or QuadratureSpec()
    lo, hi = _variance_window(spectrum, quad)
    # the variance rides along at delta_t > 0 and anchors the tolerance, so
    # a strongly decayed autocovariance is not chased to meaningless
    # relative precision
    times = (0.0,) if delta_t == 0 else (0.0, float(delta_t))
    res = filon_cos_integral(
        spectrum.evaluate, times, quad.with_window(lo, hi), breakpoints=spectrum.breakpoints()
    )
    return float(res.value[-1]) / math.pi
