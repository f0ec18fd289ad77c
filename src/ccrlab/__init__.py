"""ccrlab: a verification laboratory for truncated representations of the
canonical commutation relations.

Subpackages by concern:
  fock        — truncated ladder/position/momentum matrices and spectra
  analytic    — the weighted power-series criterion and Taylor exponentials
  weyl        — matrix exponentials and the Weyl/shift/commutation checks
  schrodinger — the differential representation on a uniform grid
  interval    — the irregular realization on a finite periodic interval
  symbolic    — exact normal ordering over Q(i, sqrt2)
  reports     — named suites, JSON/CSV reports, parameter sweeps
"""

from .fock import (
    FockState,
    NORMALIZED,
    UNNORMALIZED,
    build_annihilator,
    build_creator,
    build_momentum,
    build_number,
    build_position,
    commutator,
    inner_product,
    number_eigensystem,
    number_spectrum,
    oscillator_spectrum,
    truncation_safe_projection,
)
from .analytic import (
    ConvergenceError,
    SeriesOverflowError,
    SeriesReport,
    analytic_series,
    check_growth_bound,
    corrected_growth_bound,
    taylor_exp,
)
from .weyl import (
    WeylResidualRecord,
    exp_commutator_residual,
    expm,
    shift_identity_residual,
    weyl_phase_check,
    weyl_residual,
)
from .schrodinger import (
    GridFunction,
    GridResolutionError,
    annihilation_residual,
    grid_momentum,
    grid_oscillator_spectrum,
    hermite_basis,
    intertwiner_check,
    vacuum_annihilation_residual,
    vacuum_sign_check,
)
from .interval import (
    IntervalRepSpec,
    aligned_spec,
    closed_form_wrap_residual,
    interval_number_spectrum,
    interval_vs_line_report,
    interval_weyl_residual,
)
from .symbolic import (
    NormalForm,
    ParseError,
    conjugation_series,
    fock_norm_exact,
    normal_order,
    parse,
    vacuum_expectation,
    verify_identity,
)
from .exact import ExactScalar
from .reports import Report, RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
