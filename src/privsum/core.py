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


def finite(value, name: str, error: type[Exception] = ParameterError) -> float:
    """value as a float; error unless it is a finite real number and not a bool."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise error(f"{name} must be a finite number, got {value!r}")


def count(value, name: str, least: int = 1,
          error: type[Exception] = ParameterError) -> int:
    """value as an int >= least; error for a string, a bool, a value int()
    would truncate (2.5) or cannot take (nan, inf) and one below least."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == float(value) >= least:
                return int(value)
        except (ValueError, OverflowError):
            pass
    raise error(f"{name} must be an integer >= {least}, got {value!r}")


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


def fraction(value, name: str, error: type[Exception] = ParameterError) -> float:
    """value as a float; error unless it is a finite number in (0, 1]."""
    if 0 < finite(value, name, error) <= 1:
        return float(value)
    raise error(f"{name} must lie in (0, 1], got {value!r}")


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
    rho_asymptotic_estimate: float
    derivation_log: tuple = field(default_factory=tuple)


def gaussian_sigma(eps: float, delta: float, sensitivity: float = 1.0) -> float:
    """Minimal noise std for (eps, delta)-closeness of N(0, s^2 I) vs shift+N(0, s^2 I).

    Returns sensitivity * 2 * sqrt(ln(2/delta)) / eps; scales linearly in
    sensitivity and as 1/eps.
    """
    eps, delta = positive(eps, "eps"), probability(delta, "delta")
    sensitivity = positive(sensitivity, "sensitivity")
    root = math.sqrt(math.log(2.0 / delta))
    sigma = sensitivity * 2.0 * root / eps
    # unit sensitivity leaves the float range only for a tiny eps
    if math.isfinite(2.0 * root / eps):
        return in_float_range(sigma, "sigma", "sensitivity", sensitivity)
    return in_float_range(sigma, "sigma", "eps", eps, size="large")


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
    try:
        sigma = gaussian_sigma(eps_ss, probability(delta_ss, "delta_ss"))
    except ParameterOverflow as exc:  # at sensitivity 1 only eps can overflow it
        raise ParameterOverflow(f"eps_ss must be large enough that sigma_ss is finite, "
                                f"got {eps_ss!r}") from exc
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
        params=params, c_delta=cd, lam=lam,
        rho_asymptotic_estimate=rho_asym, derivation_log=log,
    )


def sample_projection(k: int, d: int, seed) -> ProjectionMatrix:
    """Sample a k x d matrix of i.i.d. N(0, 1/k) entries, deterministic in seed."""
    k, d = count(k, "k"), count(d, "d")
    rng = as_generator(seed)
    entries = rng.standard_normal((k, d)) / math.sqrt(k)
    return ProjectionMatrix(entries=entries)


# Cephes' rational approximations of erfc on [1, 8) (P/Q) and [8, inf) (R/S)
# and of erf on [0, 1] (T/U), highest power first. Q, S and U begin with the
# leading 1 that Cephes' p1evl leaves implicit: 1 * x is exact, so _polevl
# on them keeps p1evl's bits
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843E2  # ln of the largest float


def _polevl(x: float, coef: tuple) -> float:
    """The polynomial with coefficients coef at x, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1, the only arguments normal_cdf passes."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= 0, the only arguments normal_cdf passes."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # Cephes takes exp(z) < 1 / (largest float) as underflow
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
    return math.exp(z) * p / q


def normal_cdf(a: float) -> float:
    """Pr[N(0, 1) <= a], bit for bit the value of scipy.special.ndtr(a).

    A port of Cephes ndtr, the code behind scipy's: 1/2 + erf(a/sqrt(2))/2
    for |a| < 1, else the erfc tail at |a|/sqrt(2), reflected for a > 0.
    The same coefficients are evaluated in the same order, so every result
    keeps scipy's bits. Cephes branches that ndtr never reaches are left
    out: erf above 1, erfc of a negative argument, and erfc's second
    underflow test (its result is > 0 wherever the MAXLOG test passes).
    """
    if math.isnan(a):
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y
