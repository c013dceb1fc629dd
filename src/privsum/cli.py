"""Command-line front door: calibrate, share, verify-norm, aggregate, experiment, audit.

Exit codes are a stable contract: 0 success, 2 usage/config/infeasible
parameters, 3 protocol abort. CSV outputs carry a schema comment as their
first line. PRIVSUM_OUTPUT_DIR overrides the directory for relative
output paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .aggregation import run_norm_verification
from .core import CalibrationReport, ProtocolParams, calibrate, count, finite
from .errors import ParameterError, ProtocolError, ScenarioError
from .harness import Scenario, bytes_by_round, check_keys, measured_traffic, run_scenario
from .rng import substream
from .sharing import scale_to_norm, share_vector

# stays bound here, where perfbench/tracing.py counts its calls
from .sharing import simulate_share_view  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORT = 3

EXPERIMENT_SCHEMA = "privsum.experiment.v1"
EXPERIMENT_KINDS = ("completeness", "soundness")
AUDIT_SCHEMA = "privsum.audit.v1"


def _output_path(path: str) -> Path:
    base = os.environ.get("PRIVSUM_OUTPUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write(path: str, text: str, note: str = "") -> None:
    out = _output_path(path)
    out.write_text(text)
    print(f"wrote {out}{note}")


def _read_json(path: str, parse):
    """parse(the JSON in path); a file that cannot be read, is not JSON or does
    not describe the config raises a ScenarioError naming the path."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing field {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for a completeness or soundness sweep."""

    kind: str = "completeness"  # one of EXPERIMENT_KINDS
    k_grid: tuple[int, ...] = ()
    S: int = 2
    d: int = 64
    beta: float = 0.05
    eps: float = 1.0
    delta: float = 1e-2
    trials: int = 1000
    seed: int = 0
    norm_factor: float = 1.0  # soundness: adversary norm as a multiple of rho

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ScenarioError(f"unknown experiment kind {self.kind!r}")
        # sizes are numbers and run as ints (2.0 as 2), as in a Scenario; the rest finite
        object.__setattr__(self, "k_grid", tuple(count(k, "k_grid entry", 1, ScenarioError)
                                                 for k in self.k_grid))
        for name, least in (("S", 2), ("d", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               count(getattr(self, name), name, least, ScenarioError))
        for name in ("beta", "eps", "delta", "norm_factor"):
            object.__setattr__(self, name, finite(getattr(self, name), name, ScenarioError))
        if not self.k_grid:
            raise ScenarioError("empty grid: provide --k-grid or --config")
        if len(set(self.k_grid)) < len(self.k_grid):
            raise ScenarioError(f"k_grid must not repeat a point, got {list(self.k_grid)}")
        if self.norm_factor < 0:
            raise ScenarioError(f"norm_factor must be >= 0, got {self.norm_factor}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys(data, EXPERIMENT_FIELDS, "experiment config")
        return cls(**data)


EXPERIMENT_FIELDS = tuple(f.name for f in fields(ExperimentConfig))
# aggregate's calibration flags, which --params replaces
CALIBRATION_FLAGS = ("eps", "delta", "eps_ss", "delta_ss", "beta", "k", "exact_cdf")


def _file_or_flags(args, file_flag: str, settings) -> list[str]:
    """The settings the command line gave; none beside a file of them (file_flag)."""
    given = [name for name in vars(args) if name in settings]
    if given and getattr(args, file_flag):
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ScenarioError(f"--{file_flag} and {flags} cannot be given together")
    return given


def _add_privacy_flags(p: argparse.ArgumentParser, require: bool = True) -> None:
    """Without require the flags are optional, unset ones absent from the
    namespace, and S and d come from the command's input."""
    unset = {"required": True} if require else {"default": argparse.SUPPRESS}
    p.add_argument("--eps", type=float, **unset, help="DZK epsilon for norm verification")
    p.add_argument("--delta", type=float, **unset, help="DZK delta for norm verification")
    p.add_argument("--eps-ss", type=float, default=argparse.SUPPRESS,
                   help="secret-sharing epsilon (default: --eps)")
    p.add_argument("--delta-ss", type=float, default=argparse.SUPPRESS,
                   help="secret-sharing delta (default: --delta)")
    p.add_argument("--beta", type=float, **unset,
                   help="completeness/soundness failure probability")
    p.add_argument("--k", type=int, **unset, help="projection dimension")
    p.add_argument("--exact-cdf", action="store_true", default=unset.get("default", False),
                   help="use exact chi-square quantiles instead of tail bounds")
    if require:
        p.add_argument("--S", type=int, required=True, help="number of verifiers")
        p.add_argument("--d", type=int, required=True, help="payload dimension")


def _calibrate_from_args(args, S: int, d: int) -> CalibrationReport:
    """Calibrate from the privacy flags, the sharing budget defaulting to theirs,
    plus whichever of calibrate's options the command has."""
    options = {name: getattr(args, name) for name in
               ("n", "exact_cdf", "session_calibrated", "trunc_b", "quant_step")
               if hasattr(args, name)}
    return calibrate(eps=args.eps, delta=args.delta, eps_ss=getattr(args, "eps_ss", args.eps),
                     delta_ss=getattr(args, "delta_ss", args.delta), beta=args.beta,
                     S=S, k=args.k, d=d, **options)


def cmd_calibrate(args) -> int:
    report = _calibrate_from_args(args, args.S, args.d)
    for name, formula, value in report.derivation_log:
        print(f"{name:<16} {value:<24.12g} {formula}")
    if args.out:
        payload = {
            "params": report.params.to_dict(),
            "c_delta": report.c_delta,
            "lambda": report.lam,
            "rho_exact": report.params.rho,
            "rho_asymptotic_estimate": report.rho_asymptotic_estimate,
            "derivation_log": [list(entry) for entry in report.derivation_log],
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _random_input(args, rng) -> np.ndarray:
    """A random vector of norm --norm, which must be a finite number >= 0."""
    if finite(args.norm, "--norm") < 0:
        raise ParameterError(f"--norm must be >= 0, got {args.norm!r}")
    return scale_to_norm(rng.standard_normal(args.d), args.norm)


def cmd_share(args) -> int:
    count(args.d, "--d")
    rng = substream(args.seed, "cli-share")
    x = _random_input(args, rng)
    shares = share_vector(x, args.S, args.sigma_ss, rng)
    err = float(np.max(np.abs(shares.sum(axis=0) - x)))
    S, d = shares.shape
    print(f"client_id={args.client_id} S={S} d={d} reconstruction_error={err:.3g}")
    if args.out:
        payload = {
            "client_id": args.client_id,
            "sigma_ss": args.sigma_ss,
            "x": x.tolist(),
            "shares": shares.tolist(),
        }
        _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK


def cmd_verify_norm(args) -> int:
    params = _calibrate_from_args(args, args.S, args.d).params
    rng = substream(args.seed, "cli-verify-input")
    x = _random_input(args, rng)
    shares = share_vector(x, args.S, params.sigma_ss, rng)
    outcome, transcript = run_norm_verification(shares, params, args.seed, client_id="cli")
    print(f"accept={int(outcome.accept)} v_norm={outcome.v_norm:.6g} "
          f"tau={params.tau:.6g} transcript_sha256={transcript.sha256()}")
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl(include_payload=args.full_payloads))
    return EXIT_OK


def _load_params(args, scenario: Scenario) -> ProtocolParams:
    given = _file_or_flags(args, "params", CALIBRATION_FLAGS)
    if args.params:
        # calibrate --out nests the params beside its derivation
        return _read_json(args.params,
                          lambda data: ProtocolParams.from_dict(data.get("params", data)))
    missing = [f for f in ("eps", "delta", "beta", "k") if f not in given]
    if missing:
        raise ScenarioError(
            f"provide --params or the calibration flags (missing: {missing})"
        )
    return _calibrate_from_args(args, scenario.S, scenario.d).params


def cmd_aggregate(args) -> int:
    scenario = _read_json(args.config, Scenario.from_dict)
    params = _load_params(args, scenario)

    result, transcript = run_scenario(scenario, params, args.seed)
    traffic = measured_traffic(transcript)
    summary = {
        "aborted": result.aborted,
        "accepted": sorted(result.accepted),
        "n": scenario.n,
        "accepted_count": len(result.accepted),
        "sum_norm": None if result.sum is None else float(np.linalg.norm(result.sum)),
        "client_to_server_bytes": traffic.client_to_server,
        "server_to_server_bytes": traffic.server_to_server,
        "bytes_by_round": bytes_by_round(transcript),
        "transcript_sha256": transcript.sha256(),
        "master_seed": args.seed,
    }
    print(json.dumps(summary, indent=2))
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl(include_payload=args.full_payloads))
    if args.summary:
        _write(args.summary, json.dumps(summary, indent=2) + "\n")
    return EXIT_ABORT if result.aborted else EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    """The sweep of --config or of the setting flags, built by the same from_dict."""
    given = _file_or_flags(args, "config", EXPERIMENT_FIELDS)
    if args.config:
        return _read_json(args.config, ExperimentConfig.from_dict)
    return ExperimentConfig.from_dict({name: getattr(args, name) for name in given})


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    rows = []
    for k in config.k_grid:
        # verifier 0 sees only W x plus noise, as the blinds cancel, so the
        # accept rate does not depend on the sharing budget, set to (eps, delta)
        params = calibrate(eps=config.eps, delta=config.delta, eps_ss=config.eps,
                           delta_ss=config.delta, beta=config.beta, S=config.S, k=k,
                           d=config.d).params
        target = 1.0 if config.kind == "completeness" else config.norm_factor * params.rho
        est = audit_mod.norm_verification_rate(
            params, target, config.trials,
            substream(config.seed, "experiment", config.kind, k),
        )
        rows.append({
            "kind": config.kind, "k": k, "S": config.S, "d": config.d,
            "beta": config.beta, "eps": config.eps, "delta": config.delta,
            "target_norm": target, "trials": config.trials,
            "rate": est.rate, "ci_lo": est.ci95[0], "ci_hi": est.ci95[1],
        })

    header = list(rows[0].keys())
    out = args.out or "experiment.csv"
    path = _output_path(out)
    with path.open("w", newline="") as fh:
        fh.write(f"# schema: {EXPERIMENT_SCHEMA}\n")
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _lane_count() -> int:
    """2 when this process may run on more than one CPU, else 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


def _run_lane(checks, done: dict) -> None:
    """Runs checks in order, storing each one's rows, or what it raised, in done."""
    for check in checks:
        try:
            done[check] = check()
        except Exception as exc:  # re-raised in report order once both lanes end
            done[check] = exc


def _audit_rows(samples: int, seed: int) -> list[audit_mod.CheckResult]:
    """The fixed audit battery, each check on its own substream of seed.

    The checks share no state, so they run in two lanes: the two rate
    checks on a worker thread, and the rest on this one, share
    simulations first. numpy's normal fills release the interpreter lock,
    so the lanes overlap on a second CPU; on one CPU they run one after
    the other here. The share simulations, the checks with the largest
    arrays, stay in one lane, so no two of them are ever alive together.
    The rows come back in report order, and a failing check raises what
    the first failing row, in that order, raised.
    """
    chi2 = [partial(audit_mod.chi2_tail_checks, k, x, samples,
                    substream(seed, "audit-chi2", k, int(x * 1000)))
            for k in (8, 64, 256) for x in (1.0, 3.0, math.log(100.0))]
    gauss = [partial(audit_mod.gaussian_mechanism_mc_check, max(samples, 1000),
                     substream(seed, "audit-gauss")),
             audit_mod.gaussian_mechanism_analytic_check]
    proj = [partial(audit_mod.projection_privacy_check, max(samples, 1000),
                    substream(seed, "audit-proj"))]
    # exact share simulation, coalitions without verifier 0
    sims = [partial(audit_mod.share_simulation_check, S, T, 10.0, min(samples, 10_000),
                    substream(seed, "audit-sim", S, len(T)))
            for S, T in ((2, (1,)), (3, (1,)), (3, (1, 2)))]
    rate_trials = max(1000, min(samples, 10_000))
    params = calibrate(**audit_mod.AUDIT_POINT).params
    rates = [partial(audit_mod.completeness_check, params, rate_trials,
                     substream(seed, "audit-comp")),
             partial(audit_mod.soundness_check, params, audit_mod.PATTERN_CONCENTRATED,
                     rate_trials, substream(seed, "audit-sound"))]
    clamp = [audit_mod.truncation_clamp_check]

    done = {}
    here = sims + proj + chi2 + gauss + clamp
    if _lane_count() == 1:
        _run_lane(rates + here, done)
    else:
        worker = threading.Thread(target=_run_lane, args=(rates, done),
                                  name="privsum-audit-rates")
        worker.start()
        try:
            _run_lane(here, done)
        finally:
            worker.join()
    rows = []
    for check in chi2 + gauss + proj + sims + rates + clamp:
        outcome = done[check]
        if isinstance(outcome, Exception):
            raise outcome
        rows += [outcome] if isinstance(outcome, audit_mod.CheckResult) else outcome
    return rows


def cmd_audit(args) -> int:
    count(args.samples, "--samples")
    rows = _audit_rows(args.samples, args.seed)
    lines = [f"# schema: {AUDIT_SCHEMA}", "check\tparams\tstatistic\tthreshold\tverdict"]
    lines += [f"{r.check}\t{r.params}\t{r.statistic:.6g}\t{r.threshold:.6g}\t{r.verdict}"
              for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text, f" ({len(rows)} checks)")
    else:
        print(text, end="")
    consistent = sum(r.verdict == audit_mod.VERDICT_CONSISTENT for r in rows)
    print(f"audit: {consistent}/{len(rows)} checks consistent")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors for main to print as one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --norm is not --norm-factor
    parser = _Parser(prog="privsum", allow_abbrev=False,
                     description="Robust, differentially-secure vector summation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        # defaults show up in --help so published runs are self-documenting
        return sub.add_parser(name, allow_abbrev=False,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    p = add_command("calibrate", help="derive all protocol parameters")
    _add_privacy_flags(p)
    p.add_argument("--n", type=int, default=1, help="client count (for session calibration)")
    p.add_argument("--session-calibrated", action="store_true",
                   help="calibrate at beta/n for a session-level guarantee")
    p.add_argument("--trunc-b", type=float, default=None, help="share truncation bound")
    p.add_argument("--quant-step", type=float, default=1.0, help="share quantization step")
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=cmd_calibrate)

    p = add_command("share", help="secret-share a random vector")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--sigma-ss", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--norm", type=float, default=1.0)
    p.add_argument("--client-id", default="cli")
    p.add_argument("--out", default=None, help="write the bundle as JSON")
    p.set_defaults(func=cmd_share)

    p = add_command("verify-norm", help="run one norm-verification session")
    _add_privacy_flags(p)
    p.add_argument("--norm", type=float, default=1.0, help="input vector norm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None, help="write the transcript as JSONL")
    p.add_argument("--full-payloads", action="store_true",
                   help="include hex payloads in the transcript file")
    p.set_defaults(func=cmd_verify_norm)

    p = add_command("aggregate", help="run a full aggregation scenario")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--params", default=None,
                   help="params JSON (from calibrate --out), or the calibration flags")
    _add_privacy_flags(p, require=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None, help="write the transcript as JSONL")
    p.add_argument("--summary", default=None, help="write the run summary as JSON")
    p.add_argument("--full-payloads", action="store_true")
    p.set_defaults(func=cmd_aggregate)

    p = add_command("experiment", help="Monte Carlo sweep over a parameter grid")
    p.add_argument("--config", default=None, help="experiment config JSON")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, default=argparse.SUPPRESS,
                   help=f"which accept rate to sweep (default: {defaults['kind']})")

    def k_grid(text):  # a ValueError reads "argument --k-grid: invalid k_grid value"
        return [int(k) for k in text.split(",") if k]

    p.add_argument("--k-grid", type=k_grid,
                   default=argparse.SUPPRESS, help="comma-separated projection dimensions")
    for name, text in (("S", "number of verifiers"), ("d", "payload dimension"),
                       ("beta", "failure probability"), ("eps", "DZK epsilon"),
                       ("delta", "DZK delta"), ("trials", "trials per grid point"),
                       ("seed", "master seed"),
                       ("norm_factor", "soundness: adversary norm as a multiple of rho")):
        # an unset flag keeps the ExperimentConfig default, which --help shows
        p.add_argument("--" + name.replace("_", "-"), type=type(defaults[name]),
                       default=argparse.SUPPRESS, help=f"{text} (default: {defaults[name]})")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_experiment)

    p = add_command("audit", help="run the statistical audit battery")
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo samples per check (tail checks use this directly)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="TSV report path")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    # the one place a failure becomes an exit code
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ProtocolError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
