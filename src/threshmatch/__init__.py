"""Treatment-effect estimation for threshold-allocated treatments.

Estimates the average treatment effect on the treated (ATT) when treatment
is assigned by comparing a score against a fixed cutoff and the score's
unobserved residual may confound the outcome.  The pipeline splits the
sample in three, residualizes the score, estimates the linear outcome
coefficients from first-order differences of residual-sorted controls,
matches each treated observation to its nearest control in residual space,
and averages the adjusted matched differences.  Cross-fitting, bootstrap
inference, an individual-effect surface estimator, and a synthetic
Monte-Carlo harness are included.
"""

from .att import (
    AttEstimate,
    CrossfitEstimate,
    crossfit_on_splits,
    estimate_att,
    estimate_att_crossfit,
    estimate_theta,
)
from .bootstrap import BootstrapResult, bootstrap_att, bootstrap_replicate
from .data_model import (
    ColumnSpec,
    ObservationSet,
    SplitAssignment,
    load_csv,
    split_three_way,
    treatment_mask,
    write_csv,
)
from .diff_beta import first_differences, fit_beta, order_by_eta
from .errors import (
    ArityMismatch,
    DegenerateCovariate,
    DimensionMismatch,
    DuplicateColumn,
    EmptyControlGroup,
    EmptyTreatedGroup,
    IndexOutOfRange,
    InputError,
    InvalidLevel,
    MissingColumn,
    NonFiniteValue,
    NumericError,
    ParseError,
    RankDeficient,
    SplitTooSmall,
    StructuralError,
    ThreshmatchError,
    TooFewControls,
    TooFewRows,
    TooManyFailures,
)
from .ite import (
    IteModel,
    SplineBasisSpec,
    build_basis,
    fit_ite,
    ite_mse,
    load_ite_model,
    predict_ite_batch,
    save_ite_model,
)
from .linreg import ols
from .matching import MatchResult, match_controls
from .residualize import fit_gamma, residuals_eta
from .simulate import (
    DgpConfig,
    McReport,
    generate,
    monte_carlo_att,
    monte_carlo_ite,
    true_att_oracle,
    true_ite_fn,
)

__version__ = "0.1.0"

# the names imported above: every package-level object a submodule defines
__all__ = sorted(
    name
    for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
)
