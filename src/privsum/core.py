"""Statistical primitives and closed-form protocol calibration.

Vectors are plain 1-d float64 numpy arrays. The calibration chain goes:

    c_delta(k, delta)  ->  sigma_v  ->  tau (completeness)  ->  rho (soundness)

with sigma_ss fixed independently by the secret-sharing privacy floor.
Every derived quantity is recorded in the CalibrationReport's
derivation_log as (name, formula, value) so runs are self-documenting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleParameters,
    ParameterError,
    ParameterOverflow,
)
from .rng import as_generator


def integral(value, name: str, error: type[Exception] = ParameterError) -> int:
    """value as an int; error for a bool and where int() would fail or
    truncate (1.7, 2.5)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            out = int(value)
            if out == float(value):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def finite(value, name: str, error: type[Exception] = ParameterError) -> float:
    """value as a float; error unless it is a finite real number and not a bool."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise error(f"{name} must be a finite number, got {value!r}")


def count(value, name: str, least: int = 1,
          error: type[Exception] = ParameterError) -> int:
    """value as an int >= least; error for a string, a bool, a value int()
    would truncate (2.5) and one below least."""
    out = integral(value, name, error) if isinstance(value, numbers.Real) else None
    if out is None or out < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return out


def positive(value, name: str, error: type[Exception] = ParameterError) -> float:
    """value as a float; error unless it is a finite number > 0."""
    if finite(value, name, error) > 0:
        return float(value)
    raise error(f"{name} must be > 0, got {value!r}")


def probability(value, name: str, error: type[Exception] = ParameterError) -> float:
    """value as a float; error unless it is a finite number in (0, 1)."""
    if 0 < finite(value, name, error) < 1:
        return float(value)
    raise error(f"{name} must lie in (0, 1), got {value!r}")


def in_float_range(result: float, what: str, name: str, value,
                   size: str = "small") -> float:
    """result where it is finite; else ParameterOverflow naming the argument
    (name=value) whose size took what past the float range."""
    if math.isfinite(result):
        return result
    raise ParameterOverflow(f"{name} must be {size} enough that {what} is finite, "
                            f"got {value!r}")


def _square(x: float) -> float:
    """x ** 2, and inf where that leaves the float range (there ** raises)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def as_vector(x, *, name: str = "x") -> np.ndarray:
    """Validate and return x as a finite 1-d float64 array (d >= 1)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(
            f"{name} must be a 1-d vector of dimension >= 1, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """k x d matrix with i.i.d. N(0, 1/k) entries."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or min(self.entries.shape) < 1:
            raise DimensionMismatch(
                f"projection matrix must be 2-d, got shape {self.entries.shape}"
            )

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class ProtocolParams:
    """Full parameter set for one protocol instance.

    sigma_v / sigma_ss are noise scales (std), tau the acceptance
    threshold on the projected norm, rho the robustness bound. trunc_b,
    when set, truncates shares to [-trunc_b, trunc_b] on a quant_step grid
    before transmission.
    """

    S: int
    n: int
    d: int
    k: int
    eps: float
    delta: float
    eps_ss: float
    delta_ss: float
    beta: float
    sigma_ss: float
    sigma_v: float
    tau: float
    rho: float
    trunc_b: float | None = None
    quant_step: float = 1.0

    def __post_init__(self):
        # sizes run as ints (8.0 as 8), the rest as floats
        checks = {"S": partial(count, least=2), "n": count, "d": count, "k": count,
                  "delta": probability, "delta_ss": probability, "beta": probability,
                  "rho": finite, "eps": positive, "eps_ss": positive, "sigma_ss": positive,
                  "sigma_v": positive, "tau": positive, "quant_step": positive}
        if self.trunc_b is not None:
            checks["trunc_b"] = positive
        for nm, check in checks.items():
            object.__setattr__(self, nm, check(getattr(self, nm), nm))
        if self.rho < 1:
            raise ParameterError(f"rho must be >= 1, got {self.rho}")
        # a step above trunc_b truncates every share to 0; past 2^53 steps the
        # grid leaves float64's exact integers and the codec's int64 cast overflows
        if self.trunc_b is not None and not 1 <= self.trunc_b / self.quant_step <= 2**53:
            raise ParameterError(f"trunc_b / quant_step must lie in [1, 2^53], got "
                                 f"{self.trunc_b} / {self.quant_step}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolParams":
        return cls(**data)


@dataclass(frozen=True)
class CalibrationReport:
    """Calibrated parameters plus every intermediate used to derive them."""

    params: ProtocolParams
    c_delta: float
    lam: float
    rho_exact: float
    rho_asymptotic_estimate: float
    derivation_log: tuple = field(default_factory=tuple)


def gaussian_sigma(eps: float, delta: float, sensitivity: float = 1.0) -> float:
    """Minimal noise std for (eps, delta)-closeness of N(0, s^2 I) vs shift+N(0, s^2 I).

    Returns sensitivity * 2 * sqrt(ln(2/delta)) / eps; scales linearly in
    sensitivity and as 1/eps.
    """
    eps, delta = positive(eps, "eps"), probability(delta, "delta")
    return positive(sensitivity, "sensitivity") * 2.0 * math.sqrt(math.log(2.0 / delta)) / eps


def chi2_thresholds(k: int, x: float) -> tuple[float, float]:
    """Lower/upper tail thresholds for a chi-square(k) variable Q.

    lower = k(1 - 2 sqrt(x/k)), upper = k(1 + 2 sqrt(x/k) + 2x/k), with
    Pr[Q <= lower] <= exp(-x) and Pr[Q >= upper] <= exp(-x). The lower
    threshold may be negative for x > k/4, in which case its bound is
    vacuous.
    """
    k, x = count(k, "k"), positive(x, "x")
    r = math.sqrt(x / k)
    lower = k * (1.0 - 2.0 * r)
    upper = k * (1.0 + 2.0 * r + 2.0 * x / k)
    return lower, upper


def c_delta(k: int, delta: float) -> float:
    """High-probability bound on ||Wx|| for ||x|| <= 1 under a k x d N(0,1/k) ensemble.

    Pr[||Wx|| >= c_delta] <= delta. Always > 1, decreasing in k.
    """
    k, delta = count(k, "k"), probability(delta, "delta")
    lk = math.log(1.0 / delta) / k
    return math.sqrt(1.0 + 2.0 * math.sqrt(lk) + 2.0 * lk)


def min_sigma_v(k: int, delta: float, eps: float) -> float:
    """Minimal projection-noise std for (eps, delta) zero-knowledge of the replies."""
    eps = positive(eps, "eps")
    sigma_v = 2.0 * c_delta(k, delta) * math.sqrt(math.log(4.0 / delta)) / eps
    return in_float_range(sigma_v, "sigma_v", "eps", eps, size="large")


def min_sigma_ss(eps_ss: float, delta_ss: float, honest_verifiers: int = 1) -> float:
    """Minimal share-noise std so the coalition view of the shares is (eps, delta)-close.

    The privacy floor is (#honest verifiers) * sigma_ss^2 >= 4 ln(2/delta)/eps^2;
    the default honest_verifiers=1 is the worst case of a coalition of all
    but one verifier.
    """
    honest_verifiers = count(honest_verifiers, "honest_verifiers")
    # checked here, so that an error names eps_ss and not gaussian_sigma's eps
    eps_ss = positive(eps_ss, "eps_ss")
    sigma = gaussian_sigma(eps_ss, probability(delta_ss, "delta_ss"))
    sigma = in_float_range(sigma, "sigma_ss", "eps_ss", eps_ss, size="large")
    return sigma / math.sqrt(honest_verifiers)


def completeness_tau(k: int, S: int, sigma_v: float, beta: float,
                     exact_cdf: bool = False) -> float:
    """Minimal acceptance threshold accepting every norm<=1 input w.p. >= 1-beta.

    Closed form: tau^2 = (1/k + S sigma_v^2)(k + 2 ln(1/beta) + 2 sqrt(k ln(1/beta))).
    With exact_cdf=True the chi-square tail bound is replaced by the exact
    quantile, giving a strictly smaller tau.
    """
    k, S = count(k, "k"), count(S, "S", least=2)
    sigma_v, beta = positive(sigma_v, "sigma_v"), probability(beta, "beta")
    scale = 1.0 / k + S * _square(sigma_v)
    if exact_cdf:
        from scipy import special  # only exact quantiles need scipy; sessions never load it

        q = 2.0 * float(special.gammaincinv(k / 2, 1.0 - beta))
        if q == math.inf:
            raise ParameterError(f"beta must be large enough that 1 - beta < 1, got {beta!r}")
    else:
        lb = math.log(1.0 / beta)
        q = k + 2.0 * lb + 2.0 * math.sqrt(k * lb)
    return in_float_range(math.sqrt(scale * q), "tau", "sigma_v", sigma_v)


def soundness_rho(k: int, S: int, sigma_v: float, tau: float, beta: float,
                  exact_cdf: bool = False) -> float:
    """Minimal norm bound rejected w.p. >= 1-beta at threshold tau.

    Closed form: rho^2 = k tau^2 / (k - 2 sqrt(k ln(1/beta))) - k S sigma_v^2,
    which requires k > 4 ln(1/beta); below that the tail bound is vacuous
    and InfeasibleParameters is raised. With exact_cdf=True the exact
    lower chi-square quantile is used instead and any k is feasible.
    """
    k, S = count(k, "k"), count(S, "S", least=2)
    sigma_v, tau = positive(sigma_v, "sigma_v"), positive(tau, "tau")
    beta = probability(beta, "beta")
    if exact_cdf:
        from scipy import special  # only exact quantiles need scipy; sessions never load it

        q_lo = 2.0 * float(special.gammaincinv(k / 2, beta))
        if q_lo == 0.0:
            raise ParameterError(f"beta must be large enough that the lower quantile "
                                 f"is > 0, got {beta!r}")
    else:
        lb = math.log(1.0 / beta)
        q_lo = k - 2.0 * math.sqrt(k * lb)
        if q_lo <= 0:
            raise InfeasibleParameters(
                f"k <= 4*ln(1/beta) (k={k}, 4*ln(1/beta)={4 * lb:.4f}): "
                "the lower tail bound is vacuous and no sound rho exists"
            )
    noise = in_float_range(k * S * _square(sigma_v), "k*S*sigma_v**2", "sigma_v", sigma_v)
    rho_sq = in_float_range(k * _square(tau) / q_lo - noise, "rho", "tau", tau)
    if rho_sq < 1.0:
        # cannot happen for tau at or above its completeness minimum
        raise InfeasibleParameters(f"derived rho^2 = {rho_sq:.6g} < 1")
    return math.sqrt(rho_sq)


def calibrate(eps: float, delta: float, eps_ss: float, delta_ss: float,
              beta: float, S: int, k: int, d: int, n: int = 1, *,
              exact_cdf: bool = False, session_calibrated: bool = False,
              trunc_b: float | None = None,
              quant_step: float = 1.0) -> CalibrationReport:
    """Derive the minimal admissible parameter set from the privacy/failure targets.

    sigma_v and sigma_ss are set to their minimal values (sigma_ss at the
    worst case of a single honest verifier), tau to the minimal
    completeness threshold, rho to the minimal soundness bound given that
    tau. session_calibrated=True replaces beta by beta/n so the n-client
    union bound meets the session-level target.

    Raises InfeasibleParameters when k <= 4 ln(1/beta) in closed-form mode.
    """
    # the callees check each argument by its own name, and ProtocolParams the rest
    beta_eff = probability(beta, "beta") / count(n, "n") if session_calibrated else beta

    cd = c_delta(k, delta)
    sigma_v = min_sigma_v(k, delta, eps)
    sigma_ss = min_sigma_ss(eps_ss, delta_ss, honest_verifiers=1)
    try:
        tau = completeness_tau(k, S, sigma_v, beta_eff, exact_cdf=exact_cdf)
        rho = soundness_rho(k, S, sigma_v, tau, beta_eff, exact_cdf=exact_cdf)
    except ParameterOverflow as exc:
        # sigma_v, and tau with it, grows as 1/eps
        raise ParameterOverflow(f"eps must be large enough that tau and rho are finite, "
                                f"got {eps!r}") from exc
    lam = math.sqrt(math.log(1.0 / beta_eff)) / k

    # first-order expansion of rho^2 in sqrt(ln(1/beta)/k) = lambda*sqrt(k)
    a = k * S * sigma_v ** 2
    rho_asym = math.sqrt(1.0 + 4.0 * lam * math.sqrt(k) * (1.0 + a))

    tail = "exact chi-square quantile" if exact_cdf else "chi-square tail bound"
    log = (
        ("c_delta", "sqrt(1 + 2*sqrt(ln(1/delta)/k) + 2*ln(1/delta)/k)", cd),
        ("lambda", "sqrt(ln(1/beta))/k", lam),
        ("sigma_v", "2*c_delta*sqrt(ln(4/delta))/eps", sigma_v),
        ("sigma_ss", "2*sqrt(ln(2/delta_ss))/eps_ss", sigma_ss),
        ("tau_sq", f"(1/k + S*sigma_v^2) * upper quantile [{tail}]", tau ** 2),
        ("tau", "sqrt(tau_sq)", tau),
        ("rho_sq", f"k*tau_sq / lower quantile [{tail}] - k*S*sigma_v^2", rho ** 2),
        ("rho", "sqrt(rho_sq)", rho),
        ("rho_asymptotic", "sqrt(1 + 4*lambda*sqrt(k)*(1 + k*S*sigma_v^2))", rho_asym),
    )
    params = ProtocolParams(
        S=S, n=n, d=d, k=k, eps=eps, delta=delta, eps_ss=eps_ss,
        delta_ss=delta_ss, beta=beta_eff, sigma_ss=sigma_ss, sigma_v=sigma_v,
        tau=tau, rho=rho, trunc_b=trunc_b, quant_step=quant_step,
    )
    return CalibrationReport(
        params=params, c_delta=cd, lam=lam, rho_exact=rho,
        rho_asymptotic_estimate=rho_asym, derivation_log=log,
    )


def sample_projection(k: int, d: int, seed) -> ProjectionMatrix:
    """Sample a k x d matrix of i.i.d. N(0, 1/k) entries, deterministic in seed."""
    k, d = count(k, "k"), count(d, "d")
    rng = as_generator(seed)
    entries = rng.standard_normal((k, d)) / math.sqrt(k)
    return ProjectionMatrix(entries=entries)
