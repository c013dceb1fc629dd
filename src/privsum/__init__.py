"""Poisoning-robust, differentially-secure vector summation.

Clients additively secret-share real vectors across S servers with
Gaussian blinds; servers verify each contribution's Euclidean norm
through a noisy random projection and sum only the accepted shares. The
package bundles the protocol operations, closed-form parameter
calibration, a deterministic multi-party simulation harness, and a
statistical audit suite for the completeness, soundness, robustness, and
privacy claims.
"""

from .aggregation import (
    AggregateResult,
    ClientSubmission,
    robustness_delta,
    run_aggregation,
    run_norm_verification,
    validity_check,
)
from .audit import (
    RateEstimate,
    conditioned_projection_privacy,
    norm_verification_rate,
    privacy_loss_mc,
    privacy_loss_tail,
    two_sample_closeness,
)
from .core import (
    CalibrationReport,
    ProjectionMatrix,
    ProtocolParams,
    c_delta,
    calibrate,
    chi2_thresholds,
    gaussian_sigma,
    sample_projection,
)
from .errors import (
    AbortedInput,
    DimensionMismatch,
    DuplicateClientId,
    InfeasibleParameters,
    MissingReply,
    ParameterError,
    ParameterOverflow,
    ProtocolError,
    ScenarioError,
    UnknownParty,
)
from .harness import (
    ClientBehavior,
    Scenario,
    honest_scenario,
    measured_traffic,
    predicted_traffic,
    run_scenario,
    with_adversary,
)
from .rng import substream
from .sharing import (
    clamp_probability,
    share_vector,
    simulate_share_view,
    truncate_share,
)
from .transcript import Message, Transcript, view_of
from .verification import (
    VerificationOutcome,
    project_reply,
    simulate_norm_verification,
    verifier0_decide,
)

__all__ = [
    "AggregateResult",
    "AbortedInput",
    "CalibrationReport",
    "ClientBehavior",
    "ClientSubmission",
    "DimensionMismatch",
    "DuplicateClientId",
    "InfeasibleParameters",
    "Message",
    "MissingReply",
    "ParameterError",
    "ParameterOverflow",
    "ProjectionMatrix",
    "ProtocolError",
    "ProtocolParams",
    "RateEstimate",
    "Scenario",
    "ScenarioError",
    "Transcript",
    "UnknownParty",
    "VerificationOutcome",
    "c_delta",
    "calibrate",
    "chi2_thresholds",
    "clamp_probability",
    "conditioned_projection_privacy",
    "gaussian_sigma",
    "honest_scenario",
    "measured_traffic",
    "norm_verification_rate",
    "predicted_traffic",
    "privacy_loss_mc",
    "privacy_loss_tail",
    "project_reply",
    "robustness_delta",
    "run_aggregation",
    "run_norm_verification",
    "run_scenario",
    "sample_projection",
    "share_vector",
    "simulate_norm_verification",
    "simulate_share_view",
    "substream",
    "truncate_share",
    "two_sample_closeness",
    "validity_check",
    "verifier0_decide",
    "view_of",
    "with_adversary",
]

__version__ = "0.1.0"
