"""Statistical audits of the distributional and privacy claims.

Monte Carlo where the targets are large enough for sampling to have power
(delta, beta >= 1e-2), analytic Gaussian tail evaluation elsewhere.
Privacy loss is always computed from the closed-form normal log-density
ratio, never from density estimation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ProtocolParams,
    as_vector,
    c_delta,
    calibrate,
    chi2_thresholds,
    count,
    finite,
    gaussian_sigma,
    normal_cdf,
    positive,
)
from .errors import DimensionMismatch, ParameterError
from .rng import as_generator, seed_int, substream
from .sharing import check_shares, clamp_probability, scale_to_norm, simulated_view, split_shares
from .verification import decide_norms, project_replies

# the per-trial forms stay bound here, where perfbench/tracing.py counts their calls
from .core import sample_projection  # noqa: F401
from .harness import run_scenario  # noqa: F401
from .sharing import share_vector  # noqa: F401
from .verification import project_reply, verifier0_decide  # noqa: F401

VERDICT_CONSISTENT = "consistent"
VERDICT_REJECTED = "rejected"


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    trials: int

    @property
    def ci95(self) -> tuple[float, float]:
        """The normal-approximation 95% interval of rate, clipped to [0, 1]."""
        half = 1.959963984540054 * binomial_se(self.rate, self.trials)
        return (max(0.0, self.rate - half), min(1.0, self.rate + half))


def binomial_se(rate: float, n: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / n)


def _square(value: float, name: str) -> float:
    """value ** 2; ParameterError naming value where the square overflows."""
    try:
        return value ** 2
    except OverflowError:
        raise ParameterError(f"{name}**2 overflows, got {name}={value}") from None


def _loss_args(shift_norm, sigma, eps) -> tuple[float, float, float]:
    """The shifted Gaussian pair's arguments as floats; ParameterError naming
    the first that is not finite, or not >= 0 (shift_norm) or > 0, and where
    sigma**2 under- or overflows or shift_norm**2 / sigma**2 overflows."""
    shift_norm = finite(shift_norm, "shift_norm")
    sigma, eps = positive(sigma, "sigma"), positive(eps, "eps")
    if shift_norm < 0:
        raise ParameterError(f"shift_norm must be >= 0, got {shift_norm}")
    # the loss has mean shift_norm**2 / (2 sigma**2), which privacy_loss_tail
    # computes from the two squares: it stays finite iff these do
    sigma_sq = _square(sigma, "sigma")
    if sigma_sq == 0.0:
        raise ParameterError(f"sigma**2 underflows to 0, got sigma={sigma}")
    if not math.isfinite(_square(shift_norm, "shift_norm") / sigma_sq):
        raise ParameterError(f"shift_norm**2 / sigma**2 overflows, got "
                             f"shift_norm={shift_norm}, sigma={sigma}")
    return shift_norm, sigma, eps


def privacy_loss_mc(shift_norm: float, sigma: float, eps: float,
                    samples: int, seed) -> float:
    """Monte Carlo rate of |privacy loss| > eps for a shifted Gaussian pair.

    For y ~ N(m, sigma^2 I) with ||m|| = shift_norm, the log-density ratio
    loss(y) = (<y, m> - ||m||^2 / 2) / sigma^2 against the N(0, sigma^2 I)
    hypothesis depends only on y's component along m, in any dimension, so
    that one normal is all a sample draws.
    """
    shift_norm, sigma, eps = _loss_args(shift_norm, sigma, eps)
    samples = count(samples, "samples", least=1000)
    rng = as_generator(seed)
    if shift_norm == 0.0:
        exceed = 0
    else:
        # by rotational symmetry the shift sits on the first axis, so the loss
        # is (y_1 / sigma - r / 2) r with r = shift_norm / sigma; in sigma
        # units it stays finite wherever the shift and sigma are
        y1 = shift_norm + rng.normal(0.0, sigma, size=samples)
        r = shift_norm / sigma
        loss = (y1 / sigma - r / 2.0) * r
        exceed = int(np.sum(np.abs(loss) > eps))
    return exceed / samples


def privacy_loss_tail(shift_norm: float, sigma: float, eps: float) -> float:
    """Exact Pr[|loss| > eps] for the shifted Gaussian pair, no sampling.

    loss ~ N(mu, 2 mu) with mu = shift_norm^2 / (2 sigma^2) under the
    shifted measure; the tail is a sum of two normal tails.
    """
    shift_norm, sigma, eps = _loss_args(shift_norm, sigma, eps)
    if shift_norm == 0.0:
        return 0.0
    mu = shift_norm ** 2 / (2.0 * sigma ** 2)
    if mu == 0.0:
        raise ParameterError(f"shift_norm**2 / (2 sigma**2) underflows to 0, got "
                             f"shift_norm={shift_norm}, sigma={sigma}")
    sd = math.sqrt(2.0 * mu)
    lo, hi = (eps - mu) / sd, (eps + mu) / sd
    # the normal tail at x is normal_cdf(-x), as scipy.stats.norm.sf computes it
    return normal_cdf(-lo) + normal_cdf(-hi)


# samples per round of conditioned_projection_privacy: their ||Wx|| draws,
# then the loss noise of the good ones; it fixes the stream order, so the
# pinned results depend on it
_PRIVACY_CHUNK = 1000


def conditioned_projection_privacy(params: ProtocolParams, x, samples: int,
                                   seed) -> float:
    """Joint bad-event + loss-exceed rate for the noisy-projection mechanism.

    Each sample draws ||Wx|| for a fresh k x d projection W, as
    ||x|| ||g|| / sqrt(k) from k standard normals g (by rotation invariance
    Wx has the law of ||x|| g / sqrt(k)), flags ||Wx|| > c_delta as bad,
    and otherwise draws one privacy-loss sample with shift ||Wx||
    and noise variance (S - |T|) sigma_v^2 at the worst coalition
    |T| = S - 1. Returns the combined rate, which the audit holds against
    2 delta. Samples run in chunks of _PRIVACY_CHUNK, each drawing its
    samples' g as one (m, k) block first and then the loss noise for its
    good samples.
    """
    x = as_vector(x)
    if float(np.linalg.norm(x)) > 1.0 + 1e-12:
        raise ParameterError("input norm must be <= 1")
    if x.shape[0] != params.d:
        raise DimensionMismatch(f"x has dimension {x.shape[0]}, params.d={params.d}")
    samples = count(samples, "samples", least=1000)
    k = params.k
    cd = c_delta(k, params.delta)
    sigma = params.sigma_v  # (S - |T|) = 1 at the worst case
    scale = float(np.linalg.norm(x)) / math.sqrt(k)
    rng = as_generator(seed)

    bad = 0
    exceed = 0
    for start in range(0, samples, _PRIVACY_CHUNK):
        g = rng.standard_normal((min(_PRIVACY_CHUNK, samples - start), k))
        shifts = np.sqrt(np.vecdot(g, g)) * scale
        del g  # so the next round's block does not coexist with this one
        is_bad = shifts > cd
        bad += int(np.sum(is_bad))
        good = shifts[~is_bad]
        if good.size:
            # loss depends on y only through <y, Wx>: sample that scalar directly
            y1 = good + rng.normal(0.0, sigma, size=good.size)
            loss = (y1 * good - good ** 2 / 2.0) / sigma ** 2
            exceed += int(np.sum(np.abs(loss) > params.eps))
    return (bad + exceed) / samples


ViewSampler = Callable[[np.random.Generator, int], np.ndarray]

# family-wise level of two_sample_closeness's KS tests, split over the marginals
CLOSENESS_ALPHA = 1e-3


def ks_two_sample_threshold(n: int, m: int, alpha: float) -> float:
    """Smirnov critical value for the two-sample KS statistic."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic sup_x |F_a(x) - F_b(x)| of two 1-d samples.

    Equal bit for bit to scipy.stats.ks_2samp's statistic: the empirical
    CDFs are counts over sizes, read at the last position of each run of
    equal values in the pooled sorted sample, which is where ks_2samp
    reads them with searchsorted(side="right").
    """
    n, m = len(a), len(b)
    pooled = np.concatenate([a, b])
    from_a = np.argsort(pooled) < n
    values = np.sort(pooled)
    last = np.append(values[1:] != values[:-1], True)
    cp = np.cumsum(from_a)[last]
    cq = np.flatnonzero(last) + 1 - cp
    diffs = cp / n - cq / m
    hi, lo = diffs.max(), np.clip(-diffs.min(), 0, 1)
    return float(lo if lo > hi else hi)


def two_sample_closeness(view_sampler_p: ViewSampler, view_sampler_q: ViewSampler,
                         marginals: int, samples: int, seed) -> tuple[tuple[float, ...], float]:
    """Per-marginal two-sample KS tests with Bonferroni correction.

    Samplers take (generator, count) and return (count, marginals) arrays;
    each side draws from its own substream of `seed`. Returns each
    marginal's KS statistic and the corrected critical value: the two
    samples are told apart iff some statistic exceeds it.
    """
    marginals, samples = count(marginals, "marginals"), count(samples, "samples", least=2)
    base = seed_int(seed)
    p = np.asarray(view_sampler_p(substream(base, "closeness", 0), samples))
    q = np.asarray(view_sampler_q(substream(base, "closeness", 1), samples))
    expected = (samples, marginals)
    if p.shape != expected or q.shape != expected:
        raise DimensionMismatch(
            f"samplers must emit shape {expected}, got {p.shape} and {q.shape}"
        )
    for side, view in (("p", p), ("q", q)):
        if not np.isfinite(view).all():
            raise ParameterError(f"view_sampler_{side} emitted a non-finite value")
    threshold = ks_two_sample_threshold(samples, samples,
                                        CLOSENESS_ALPHA / marginals)
    return tuple(_ks_statistic(p[:, j], q[:, j]) for j in range(marginals)), threshold


PATTERN_RANDOM = "random-direction"
PATTERN_CONCENTRATED = "concentrated"
PATTERN_SPREAD = "spread"
PATTERNS = (PATTERN_RANDOM, PATTERN_CONCENTRATED, PATTERN_SPREAD)

# most bytes of standard normals one Monte Carlo chunk draws (a chunk holds
# at least one trial); small enough not to raise a run's peak memory, with
# the two lanes of `privsum audit` each holding one chunk's block at once.
# No result depends on it.
_CHUNK_BYTES = 1 << 19


def _normal_chunks(rng: np.random.Generator, trials: int, *shapes: tuple[int, ...]):
    """Each trial's standard normals for shapes, drawn in that order, chunked.

    Yields, per chunk of m trials, one (m, *shape) array per shape, all
    sliced from one (m, L) block of at most _CHUNK_BYTES: row r holds
    exactly the draws trial r would make on its own, so results do not
    depend on the chunking.

    The block is allocated once per call and refilled for every chunk, so
    a caller may scale the yielded arrays in place but must not keep them,
    or any view of them, past their iteration.
    """
    sizes = [math.prod(shape) for shape in shapes]
    ends = list(itertools.accumulate(sizes))
    per_chunk = max(1, min(trials, _CHUNK_BYTES // (8 * ends[-1])))
    buffer = np.empty((per_chunk, ends[-1]))
    for start in range(0, trials, per_chunk):
        m = min(per_chunk, trials - start)
        # filling a view draws the same stream as a fresh (m, L) array
        block = rng.standard_normal(out=buffer[:m])
        yield [block[:, end - size:end].reshape(m, *shape)
               for shape, size, end in zip(shapes, sizes, ends)]


def _verification_norms(params: ProtocolParams, target_norm: float, trials: int,
                        seed, pattern: str):
    """Verifier 0's ||v|| for each trial of norm_verification_rate, per chunk.

    A trial's shares are drawn as their r = min(S, d) coordinates in an
    orthonormal basis of a space holding their span, whose first vector is
    x's direction (any fixed one when x = 0): x is ||x|| e_1, and blind i is
    sigma_ss (a_i e_1 + U[:, i]) with a_i ~ N(0, 1) and U the
    min(d-1, S-1) x (S-1) upper-trapezoidal Bartlett factor of the blinds'
    standard Gaussian (d-1) x (S-1) part orthogonal to x: U[j, j] ~
    chi_{d-1-j} and N(0, 1) above the diagonal (Anderson, An Introduction
    to Multivariate Statistical Analysis, ch. 7). So no draw of a trial is
    d long.
    """
    trials = count(trials, "trials", least=100)
    if finite(target_norm, "target_norm") < 0:
        raise ParameterError("target_norm must be >= 0")
    if pattern not in PATTERNS:
        raise ParameterError(f"unknown pattern {pattern!r}")
    S, d, k = params.S, params.d, params.k
    r = min(S, d)
    u = r - 1  # rows of U, min(d-1, S-1)
    rows, cols = np.triu_indices(u, 1, S - 1)
    diagonal = np.arange(u)
    x = np.zeros(r)
    x[0] = target_norm
    rng = as_generator(seed)
    chi_rng = substream(seed_int(rng), "chi")
    for a, upper, G, noise in _normal_chunks(rng, trials, (S - 1,), (len(rows),),
                                             (k, r), (S, k)):
        m = len(a)
        blinds = np.zeros((m, S - 1, r))
        blinds[:, :, 0] = a
        blinds[:, cols, 1 + rows] = upper
        blinds[:, diagonal, 1 + diagonal] = np.sqrt(
            chi_rng.chisquare(d - 1 - diagonal, size=(m, u)))
        # G and the noise are scaled in place in the sampler's block, which
        # the next chunk refills, so no copy of them adds to peak memory;
        # W applied to the span's orthonormal basis has the law of G / sqrt(k)
        G /= math.sqrt(k)
        noise *= params.sigma_v
        Z = split_shares(x, blinds, params.sigma_ss)
        check_shares(Z)
        Y = [project_replies(Z[:, i], G, noise[:, i - 1]) for i in range(1, S)]
        yield decide_norms(Z[:, 0], Y, G, noise[:, S - 1])


def norm_verification_rate(params: ProtocolParams, target_norm: float,
                           trials: int, seed, *,
                           pattern: str = PATTERN_RANDOM) -> RateEstimate:
    """Accept rate of the norm-verification decision at a given share-sum norm.

    Each trial shares a fresh input of norm target_norm and projects its S
    shares with a fresh N(0, 1/k) projection. The decision depends on W
    only through W Q, for Q an orthonormal (d, r) basis of the shares'
    span, r = min(S, d), and W Q is itself an i.i.d. N(0, 1/k) k x r
    matrix. So a trial draws that k x r matrix G / sqrt(k) in place of the
    k x d W, and the shares' coordinates in Q from their exact law, and
    runs the session's reply and decide kernels on them: the same law of
    outcomes as a full session projection, at a cost independent of d.
    By rotation invariance the law depends on the input only through its
    norm, so pattern is checked but draws nothing and changes no result.

    Trials run in chunks; the trial stream first gives one integer that
    seeds the chunks' chi variates (their own stream), then each trial
    draws a (the S-1 blinds' components along x), the normals above U's
    diagonal, G, the replies' noise rows for verifiers 1..S-1 and
    verifier 0's noise row, in that order. This is the Monte Carlo
    driver behind the completeness and soundness checks.
    """
    accepts = sum(int(np.count_nonzero(v_norms < params.tau))
                  for v_norms in _verification_norms(params, target_norm, trials,
                                                     seed, pattern))
    return RateEstimate(rate=accepts / trials, trials=trials)


# -- the audit battery ---------------------------------------------------------
# `privsum audit` and the acceptance tests run these same checks, each with
# its own seed and sample count.

# where the projection-privacy check and `privsum audit`'s rate checks calibrate
AUDIT_POINT = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05, S=2, k=64, d=64)


@dataclass(frozen=True)
class CheckResult:
    """One audit row; the statistic is consistent iff it is <= threshold."""

    check: str
    params: str
    statistic: float
    threshold: float

    @property
    def verdict(self) -> str:
        return VERDICT_CONSISTENT if self.statistic <= self.threshold else VERDICT_REJECTED


def chi2_tail_checks(k: int, x: float, samples: int,
                     seed) -> tuple[CheckResult, CheckResult]:
    """Sampled chi^2_k rates below and above the thresholds, each against exp(-x)."""
    lower, upper = chi2_thresholds(k, x)
    draws = as_generator(seed).chisquare(k, size=samples)
    bound = math.exp(-x)
    ceiling = bound + 3 * binomial_se(bound, samples)
    label = f"k={k},x={x:.3g}"
    return (CheckResult("chi2-lower-tail", label, float(np.mean(draws <= lower)), ceiling),
            CheckResult("chi2-upper-tail", label, float(np.mean(draws >= upper)), ceiling))


def gaussian_mechanism_mc_check(samples: int, seed) -> CheckResult:
    """Sampled privacy-loss exceed rate of the Gaussian mechanism at delta = 1e-2."""
    rate = privacy_loss_mc(1.0, gaussian_sigma(1.0, 1e-2), 1.0, samples, seed)
    return CheckResult("gaussian-mech-mc", "eps=1,delta=1e-2", rate,
                       1e-2 + 3 * binomial_se(1e-2, samples))


def gaussian_mechanism_analytic_check() -> CheckResult:
    """Exact privacy-loss tail of the Gaussian mechanism at delta = 1e-5."""
    tail = privacy_loss_tail(1.0, gaussian_sigma(1.0, 1e-5), 1.0)
    return CheckResult("gaussian-mech-analytic", "eps=1,delta=1e-5", tail, 1e-5)


def projection_privacy_check(samples: int, seed) -> CheckResult:
    """Bad-event + loss-exceed rate of the noisy projection against 2 delta.

    Calibrated at AUDIT_POINT, for an input on the first axis.
    """
    params = calibrate(**AUDIT_POINT).params
    x = np.zeros(params.d)
    x[0] = 1.0
    rate = conditioned_projection_privacy(params, x, samples, seed)
    return CheckResult("projection-privacy", "eps=1,delta=1e-2,k=64", rate,
                       2 * params.delta + 3 * binomial_se(2 * params.delta, samples))


def share_simulation_check(S: int, T: tuple[int, ...], sigma_ss: float,
                           samples: int, seed) -> CheckResult:
    """Largest per-marginal KS statistic between real and simulated share views.

    The real view is coalition T's shares of a random unit vector in
    d = 8; the simulated one comes from the simulate_share_view kernel.
    Both samplers draw per sample in the one-sample order, in chunks, and
    write each chunk into one preallocated (samples, |T| d) array.
    """
    d = 8

    def real(rng, count):
        out = np.empty((count, len(T) * d))
        row = 0
        for u, blinds in _normal_chunks(rng, count, (d,), (S - 1, d)):
            shares = split_shares(scale_to_norm(u, 1.0), blinds, sigma_ss)
            out[row:row + len(u)] = shares[:, list(T)].reshape(len(u), -1)
            row += len(u)
        return out

    def sim(rng, count):
        out = np.empty((count, len(T), d))
        row = 0
        for (g,) in _normal_chunks(rng, count, (len(T), d)):
            view = simulated_view(frozenset(T), S, sigma_ss, g)
            for j, t in enumerate(T):
                out[row:row + len(g), j] = view[t]
            row += len(g)
            del view  # so the next chunk's view does not coexist with this one
        return out.reshape(count, -1)

    statistics, threshold = two_sample_closeness(real, sim, len(T) * d, samples, seed)
    return CheckResult("share-sim-exact", f"S={S},T={T}", max(statistics), threshold)


def completeness_check(params: ProtocolParams, trials: int, seed) -> CheckResult:
    """Rejection rate of unit-norm inputs against beta."""
    est = norm_verification_rate(params, 1.0, trials, seed)
    return CheckResult("completeness-rate", f"beta={params.beta:g},k={params.k}",
                       1.0 - est.rate, params.beta + 3 * binomial_se(params.beta, trials))


def soundness_check(params: ProtocolParams, pattern: str, trials: int,
                    seed) -> CheckResult:
    """Accept rate of inputs at norm rho against beta.

    The rate depends on an input only through its norm, so pattern is
    checked but changes no result.
    """
    est = norm_verification_rate(params, params.rho, trials, seed, pattern=pattern)
    return CheckResult("soundness-rate", f"beta={params.beta:g},k={params.k}",
                       est.rate, params.beta + 3 * binomial_se(params.beta, trials))


def truncation_clamp_check() -> CheckResult:
    """Analytic per-coordinate clamp probability at B = 127, sigma_ss = 20."""
    return CheckResult("truncation-clamp", "B=127,sigma_ss=20",
                       clamp_probability(127.0, 20.0), 1e-8)
