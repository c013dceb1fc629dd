"""Every public entry point refuses a bad scalar argument by that argument's name.

One table lists each function, a valid call and the kind of each scalar
argument; every bad value of that kind must raise the function's error
with a message that starts with the argument's name.
"""

import math

import numpy as np
import pytest

from privsum import (
    ParameterError,
    ProtocolParams,
    ScenarioError,
    c_delta,
    calibrate,
    chi2_thresholds,
    clamp_probability,
    conditioned_projection_privacy,
    gaussian_sigma,
    honest_scenario,
    norm_verification_rate,
    privacy_loss_mc,
    privacy_loss_tail,
    project_reply,
    run_aggregation,
    run_norm_verification,
    run_scenario,
    sample_projection,
    share_vector,
    simulate_norm_verification,
    simulate_share_view,
    truncate_share,
    two_sample_closeness,
    validity_check,
    verifier0_decide,
)
from privsum.cli import ExperimentConfig
from privsum.core import completeness_tau, min_sigma_ss, min_sigma_v, soundness_rho
from privsum.harness import ClientBehavior, Scenario
from privsum.rng import as_generator, path_digest, path_digests, seed_int, substream, substreams
from privsum.transcript import (
    decode_matrix,
    decode_quantized_block,
    decode_reply_batch,
    decode_vector_block,
    encode_matrix,
    encode_quantized_block,
    encode_reply_batch,
    encode_vector_block,
)

CALIBRATION = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05, S=3, k=16, d=8)
PARAMS = calibrate(**CALIBRATION).params
W = sample_projection(4, 6, 0)
REPLY = project_reply(np.ones(6), W, 1.0, 1)
X = np.eye(PARAMS.d)[0]


def _normal_view(rng, count):
    return rng.standard_normal((count, 1))


# what each kind of argument must refuse; a bool is not the number 1
REFUSED_BY_ALL = [math.nan, math.inf, -math.inf, True, np.True_]
BAD = {
    "count": REFUSED_BY_ALL + [0, -1, 2.5],
    "positive": REFUSED_BY_ALL + [0, -1.0],
    "probability": REFUSED_BY_ALL + [0, -1.0, 1.0, 1.5],
    "fraction": REFUSED_BY_ALL + [0, -1.0, 1.5, "0.5"],
    "nonnegative": REFUSED_BY_ALL + [-1.0, "1"],
    "finite": REFUSED_BY_ALL + ["1"],
    "rho": REFUSED_BY_ALL + [0, 0.5],
    # Scenario takes n = 0, so n refuses only the rest of a count's values
    "size": REFUSED_BY_ALL + [-1, 2.5],
    # a seed may be any integer, but is never converted from anything else
    "seed": REFUSED_BY_ALL + [2.5, "3", None],
}

# (function, valid keyword arguments, {argument: kind}, error type)
TABLE = {
    "ProtocolParams": (ProtocolParams, {**PARAMS.to_dict(), "trunc_b": 64.0}, {
        "S": "count", "n": "count", "d": "count", "k": "count",
        "eps": "positive", "eps_ss": "positive", "sigma_ss": "positive",
        "sigma_v": "positive", "tau": "positive", "quant_step": "positive",
        "trunc_b": "positive", "delta": "probability", "delta_ss": "probability",
        "beta": "probability", "rho": "rho"}, ParameterError),
    "gaussian_sigma": (gaussian_sigma, dict(eps=1.0, delta=1e-2, sensitivity=1.0), {
        "eps": "positive", "delta": "probability", "sensitivity": "positive"},
        ParameterError),
    "chi2_thresholds": (chi2_thresholds, dict(k=8, x=1.0), {
        "k": "count", "x": "positive"}, ParameterError),
    "c_delta": (c_delta, dict(k=16, delta=1e-2), {
        "k": "count", "delta": "probability"}, ParameterError),
    "min_sigma_v": (min_sigma_v, dict(k=16, delta=1e-2, eps=1.0), {
        "k": "count", "delta": "probability", "eps": "positive"}, ParameterError),
    "min_sigma_ss": (min_sigma_ss, dict(eps_ss=1.0, delta_ss=1e-2, honest_verifiers=1), {
        "eps_ss": "positive", "delta_ss": "probability", "honest_verifiers": "count"},
        ParameterError),
    "completeness_tau": (completeness_tau, dict(k=16, S=3, sigma_v=PARAMS.sigma_v, beta=0.05), {
        "k": "count", "S": "count", "sigma_v": "positive", "beta": "probability"},
        ParameterError),
    "soundness_rho": (soundness_rho, dict(k=16, S=3, sigma_v=PARAMS.sigma_v, tau=PARAMS.tau,
                                          beta=0.05), {
        "k": "count", "S": "count", "sigma_v": "positive", "tau": "positive",
        "beta": "probability"}, ParameterError),
    "calibrate": (calibrate, dict(CALIBRATION, n=1), {
        "eps": "positive", "delta": "probability", "eps_ss": "positive",
        "delta_ss": "probability", "beta": "probability", "S": "count", "k": "count",
        "d": "count", "n": "count"}, ParameterError),
    "calibrate-session": (calibrate, dict(CALIBRATION, k=32, n=4, session_calibrated=True), {
        "beta": "probability", "n": "count"}, ParameterError),
    "sample_projection": (sample_projection, dict(k=4, d=6, seed=0), {
        "k": "count", "d": "count", "seed": "seed"}, ParameterError),
    "share_vector": (share_vector, dict(x=X, S=3, sigma_ss=1.0, seed=0), {
        "S": "count", "sigma_ss": "positive", "seed": "seed"}, ParameterError),
    "simulate_share_view": (simulate_share_view, dict(T=(1,), S=3, sigma_ss=1.0, d=4, seed=0), {
        "S": "count", "sigma_ss": "positive", "d": "count"}, ParameterError),
    "truncate_share": (truncate_share, dict(share=[1.0], B=2.0, step=1.0), {
        "B": "positive", "step": "positive"}, ParameterError),
    "clamp_probability": (clamp_probability, dict(B=2.0, sigma=1.0), {
        "B": "positive", "sigma": "positive"}, ParameterError),
    "project_reply": (project_reply, dict(z_i=np.ones(6), W=W, sigma_v=1.0, seed=0), {
        "sigma_v": "positive", "seed": "seed"}, ParameterError),
    "verifier0_decide": (verifier0_decide, dict(z_0=np.ones(6), replies=[REPLY], W=W,
                                                sigma_v=1.0, tau=5.0, seed=0), {
        "sigma_v": "positive", "tau": "positive", "seed": "seed"}, ParameterError),
    "privacy_loss_mc": (privacy_loss_mc, dict(shift_norm=1.0, sigma=1.0, eps=1.0,
                                              samples=1000, seed=0), {
        "shift_norm": "nonnegative", "sigma": "positive", "eps": "positive",
        "samples": "count"}, ParameterError),
    "privacy_loss_tail": (privacy_loss_tail, dict(shift_norm=1.0, sigma=1.0, eps=1.0), {
        "shift_norm": "nonnegative", "sigma": "positive", "eps": "positive"},
        ParameterError),
    "conditioned_projection_privacy": (conditioned_projection_privacy,
                                       dict(params=PARAMS, x=X, samples=1000, seed=0), {
        "samples": "count"}, ParameterError),
    "two_sample_closeness": (two_sample_closeness,
                             dict(view_sampler_p=_normal_view, view_sampler_q=_normal_view,
                                  marginals=1, samples=100, seed=0), {
        "marginals": "count", "samples": "count"}, ParameterError),
    "norm_verification_rate": (norm_verification_rate,
                               dict(params=PARAMS, target_norm=1.0, trials=100, seed=0), {
        "target_norm": "nonnegative", "trials": "count"}, ParameterError),
    "validity_check": (validity_check, dict(J_star=(), n=4, threshold_fraction=0.5), {
        "threshold_fraction": "fraction"}, ParameterError),
    "run_aggregation": (run_aggregation, dict(submissions=[], params=PARAMS,
                                              validity_threshold=0.5, sigma_out=1.0), {
        "validity_threshold": "fraction", "sigma_out": "positive", "seed": "seed"},
        ParameterError),
    "run_norm_verification": (run_norm_verification,
                              dict(shares=np.ones((3, 8)), params=PARAMS, session_seed=0), {
        "session_seed": "seed"}, ParameterError),
    # the master seed of every keyed stream, and a seed where a Generator may stand
    "path_digest": (path_digest, dict(master_seed=0), {"master_seed": "seed"}, ParameterError),
    "substream": (substream, dict(master_seed=0), {"master_seed": "seed"}, ParameterError),
    "path_digests": (path_digests, dict(master_seed=0, labels=("x",), keys=["a"]), {
        "master_seed": "seed"}, ParameterError),
    "substreams": (substreams, dict(master_seed=0, labels=("x",), keys=["a"]), {
        "master_seed": "seed"}, ParameterError),
    "as_generator": (as_generator, dict(seed=0), {"seed": "seed"}, ParameterError),
    "seed_int": (seed_int, dict(seed=0), {"seed": "seed"}, ParameterError),
    # a block decoder's length, checked before any payload is read
    "decode_vector_block": (decode_vector_block,
                            dict(payloads=encode_vector_block(np.ones((2, 3))), d=3), {
        "d": "count"}, ParameterError),
    "decode_quantized_block": (decode_quantized_block,
                               dict(payloads=encode_quantized_block(np.ones((2, 3)), 1.0),
                                    d=3, step=1.0), {"d": "count"}, ParameterError),
    "decode_reply_batch": (decode_reply_batch,
                           dict(data=encode_reply_batch(["a", "b"], np.ones((2, 3))), k=3), {
        "k": "count"}, ParameterError),
    "decode_matrix": (decode_matrix, dict(data=encode_matrix(np.ones((2, 3))), k=2, d=3), {
        "k": "count", "d": "count"}, ParameterError),

    "Scenario": (Scenario, dict(n=0, S=2, d=8, clients=(), validity_threshold=0.5,
                                sigma_out=1.0), {
        "n": "size", "S": "count", "d": "count", "validity_threshold": "fraction",
        "sigma_out": "positive"}, ScenarioError),
    "ClientBehavior": (ClientBehavior, dict(kind="partial-send", norm=1.0, skip=(1,),
                                            scale=1.0), {
        "norm": "nonnegative", "scale": "nonnegative"}, ScenarioError),
    "ExperimentConfig": (ExperimentConfig, dict(kind="soundness", k_grid=(16,)), {
        "beta": "finite", "eps": "finite", "delta": "finite", "norm_factor": "nonnegative"},
        ScenarioError),
}

CASES = [pytest.param(fn, valid, name, value, error, id=f"{label}-{name}-{value!r}")
         for label, (fn, valid, kinds, error) in TABLE.items()
         for name, kind in kinds.items()
         for value in BAD[kind]]


@pytest.mark.parametrize("label", TABLE)
def test_valid_call_runs(label):
    fn, valid, _, _ = TABLE[label]
    fn(**valid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, valid, name, value, error", CASES)
def test_bad_argument_is_refused_by_name(fn, valid, name, value, error):
    with pytest.raises(error) as info:
        fn(**{**valid, name: value})
    assert str(info.value).startswith(f"{name} must"), str(info.value)


def test_seeds_of_any_integer_type_and_size_keep_their_streams():
    # a seed is taken mod 2**128, whatever its integer type
    def draw(seed):
        return substream(seed, "x").standard_normal(2).tolist()

    assert draw(np.int64(-1)) == draw(-1) == draw(2**128 - 1)
    assert draw(np.uint64(2**64 - 1)) == draw(2**64 - 1)
    assert draw(2**200 + 5) == draw(5)
    assert share_vector(X, 3, 1.0, np.int32(7)).tolist() == share_vector(X, 3, 1.0, 7).tolist()


def test_a_session_refuses_a_seed_it_would_have_truncated():
    # 2.5 used to run as seed 2 and be recorded as master_seed=2.5
    with pytest.raises(ParameterError, match="seed must be an integer, got 2.5"):
        run_scenario(honest_scenario(2, PARAMS.S, PARAMS.d), PARAMS, 2.5)


def test_calibrate_names_eps_ss():
    # eps_ss reaches the Gaussian calibration, whose own argument is eps
    with pytest.raises(ParameterError, match="^eps_ss must be a finite number"):
        calibrate(**{**CALIBRATION, "eps_ss": math.inf})


@pytest.mark.parametrize("fn, T", [(simulate_share_view, T) for T in
                                   [(), (0, 1, 2), (3,), (-1,), (1.5,), (math.nan,), (True,)]]
                         + [(simulate_norm_verification, T) for T in
                            [(), (1, 2, 0), (3,), (2.5,), (0,)]])
def test_coalition_must_be_a_proper_nonempty_subset(fn, T):
    with pytest.raises(ParameterError, match="^T"):
        if fn is simulate_share_view:
            fn(T, 3, 1.0, 4, 0)
        else:
            fn(T, PARAMS, 0)


# each was refused before, the last two with a TypeError; strings stay
# refused although the CLI's --k-grid parses "16" as 16
@pytest.mark.parametrize("call", [
    lambda: c_delta("16", 0.1),
    lambda: chi2_thresholds(np.float64(8.5), 1.0),
    lambda: share_vector(X, 1, 1.0, 0),
    lambda: simulate_share_view((1,), 2, 1.0, 0, 0),
    lambda: min_sigma_ss(1.0, 1e-2, honest_verifiers=0),
    lambda: calibrate(**{**CALIBRATION, "S": 1}),
    lambda: ProtocolParams(**{**PARAMS.to_dict(), "trunc_b": 1.0, "quant_step": 4.0}),
    lambda: c_delta(16, "0.1"),
    lambda: gaussian_sigma("1", 0.1),
], ids=["c_delta k string", "chi2 k 8.5", "share_vector S=1", "simulate_share_view d=0",
        "min_sigma_ss no honest verifier", "calibrate S=1", "quant_step above trunc_b",
        "c_delta delta string", "gaussian_sigma eps string"])
def test_inputs_refused_before_stay_refused(call):
    with pytest.raises(ParameterError):
        call()


# each left the float range and escaped as an OverflowError or an inf, or
# was refused under the name of a derived quantity
OVERFLOWS = {
    "completeness_tau sigma_v**2": (lambda: completeness_tau(16, 2, 1e300, 0.05), "sigma_v"),
    "completeness_tau tau": (lambda: completeness_tau(16, 2, 1e154, 0.05), "sigma_v"),
    "soundness_rho sigma_v**2": (lambda: soundness_rho(16, 2, 1e200, 1e201, 0.05), "sigma_v"),
    "soundness_rho tau**2": (lambda: soundness_rho(16, 2, 0.1, 1e200, 0.05), "tau"),
    "gaussian_sigma eps": (lambda: gaussian_sigma(1e-320, 0.1), "eps"),
    "gaussian_sigma sensitivity": (lambda: gaussian_sigma(1.0, 0.1, 1e308), "sensitivity"),
    "min_sigma_v": (lambda: min_sigma_v(16, 1e-2, 1e-320), "eps"),
    "min_sigma_ss": (lambda: min_sigma_ss(1e-320, 1e-2), "eps_ss"),
    "calibrate eps 1e-300": (lambda: calibrate(**{**CALIBRATION, "eps": 1e-300}), "eps"),
    "calibrate eps 1e-153": (lambda: calibrate(**{**CALIBRATION, "eps": 1e-153}), "eps"),
    "calibrate eps 1e-320": (lambda: calibrate(**{**CALIBRATION, "eps": 1e-320}), "eps"),
    "calibrate eps_ss 1e-320": (lambda: calibrate(**{**CALIBRATION, "eps_ss": 1e-320}),
                                "eps_ss"),
    "truncate_share B / step": (lambda: truncate_share([1.0], 1e308, 1e-308), "step"),
    # 1 - beta rounds to 1, and the exact upper quantile is inf
    "exact completeness_tau beta": (
        lambda: completeness_tau(16, 2, 0.1, 1e-17, exact_cdf=True), "beta"),
    "exact calibrate beta": (
        lambda: calibrate(**{**CALIBRATION, "beta": 1e-17}, exact_cdf=True), "beta"),
    # the exact lower quantile underflows to 0
    "exact soundness_rho beta": (
        lambda: soundness_rho(1, 2, 0.1, 1.0, 1e-300, exact_cdf=True), "beta"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflow_names_the_callers_argument(call, name):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value).startswith(f"{name} must"), str(info.value)


def test_calibration_near_the_float_range_keeps_its_values():
    # at eps = 1e-150 sigma_v**2 is about 1e303, near the float range; tau
    # and rho keep the values they had before the overflow checks
    params = calibrate(**{**CALIBRATION, "S": 2, "eps": 1e-150}).params
    assert (params.tau, params.rho) == (6.745187580841234e+151, 1.7825011074076536e+152)
    assert truncate_share([1.0, -3e300], 1e300, 1e-5).tolist() == [1.0, -1e300]
