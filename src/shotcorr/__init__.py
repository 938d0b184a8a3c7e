"""shotcorr: dephasing-noise spectroscopy from correlated single-shot readout.

The package turns repeated free-induction-decay measurements into
information about the spectrum of the slow detuning noise acting on a
qubit.  It provides analytic correlation integrals, evolution-time
schedules that hold the signal level constant, a trajectory-based Monte
Carlo simulator of the shot protocol, and spectrum fitting, all behind a
deterministic command-line interface.
"""

__version__ = "0.1.0"

from .numerics import (  # noqa: F401
    ParamError,
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    filon_cos_integral,
    gamma_fn,
    integrate_spectral,
    lambert_w,
    lambert_w_m1,
)
from .spectra import (  # noqa: F401
    OverhauserModel,
    PowerLawModel,
    SpectrumModel,
    TabulatedModel,
    WhiteModel,
    beta_autocorrelation,
    coupling_from_g,
    evaluate,
    variance,
)
from .correlator import (  # noqa: F401
    ApproxChiMinus,
    ChiPlan,
    EvolutionPair,
    LinearizedCorrelation,
    QubitParams,
    autocorrelation_analytic,
    autocorrelation_linearized,
    chi_minus,
    chi_minus_approx,
    chi_pair,
    chi_plus,
    correct_fidelity,
    correlator_from_chi,
    filter_F,
    phase_cross_correlation,
    phase_variance,
    t2_star,
)
from .schedules import (  # noqa: F401
    Schedule,
    build_schedule,
    chi_minus_profile,
    constant_contrast_schedule,
    oneoverf_schedule,
    tau_constant_contrast,
    tau_oneoverf,
)
from .montecarlo import (  # noqa: F401
    CorrelationCurve,
    GridSpec,
    ModeSet,
    Protocol,
    ShotRecord,
    accumulated_phases,
    accumulated_phases_independent,
    correlation_curve,
    estimate_autocorrelation,
    records_from_csv,
    records_to_csv,
    run_protocol,
    run_record,
    synthesize_modes,
)
from .fitting import (  # noqa: F401
    AlphaEstimate,
    FitParam,
    FitProblem,
    FitResult,
    GammaDecision,
    chi_squared,
    discriminate_gamma,
    estimate_alpha_slope,
    fit,
    predict,
)
