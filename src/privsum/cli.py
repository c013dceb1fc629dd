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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .aggregation import run_norm_verification
from .core import CalibrationReport, ProtocolParams, calibrate, count
from .errors import ProtocolError, ScenarioError
from .harness import Scenario, finite, integral, measured_traffic, run_scenario
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

    kind: str  # one of EXPERIMENT_KINDS
    k_grid: tuple[int, ...]
    S: int = 2
    d: int = 64
    n: int = 1
    beta: float = 0.05
    eps: float = 1.0
    delta: float = 1e-2
    eps_ss: float = 1.0
    delta_ss: float = 1e-2
    trials: int = 1000
    seed: int = 0
    norm_factor: float = 1.0  # soundness: adversary norm as a multiple of rho

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ScenarioError(f"unknown experiment kind {self.kind!r}")
        # integral fields run as ints (2.0 as 2), the rest must be finite
        object.__setattr__(self, "k_grid",
                           tuple(integral(k, "k_grid entry") for k in self.k_grid))
        for name in ("S", "d", "n", "trials", "seed"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        for name in ("beta", "eps", "delta", "eps_ss", "delta_ss", "norm_factor"):
            object.__setattr__(self, name, finite(getattr(self, name), name))
        if not self.k_grid:
            raise ScenarioError("empty grid: provide --k-grid or --config")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**{"k_grid": (), **data})


def _add_privacy_flags(p: argparse.ArgumentParser, require: bool = True) -> None:
    p.add_argument("--eps", type=float, required=require, help="DZK epsilon for norm verification")
    p.add_argument("--delta", type=float, required=require, help="DZK delta for norm verification")
    p.add_argument("--eps-ss", type=float, default=None, help="secret-sharing epsilon (default: --eps)")
    p.add_argument("--delta-ss", type=float, default=None, help="secret-sharing delta (default: --delta)")
    p.add_argument("--beta", type=float, required=require, help="completeness/soundness failure probability")
    p.add_argument("--S", type=int, required=require, help="number of verifiers")
    p.add_argument("--k", type=int, required=require, help="projection dimension")
    p.add_argument("--d", type=int, required=require, help="payload dimension")


def _calibrate_from_args(args) -> CalibrationReport:
    """Calibrate from the privacy flags plus whichever optional flags the command has."""
    return calibrate(
        eps=args.eps, delta=args.delta,
        eps_ss=args.eps_ss if args.eps_ss is not None else args.eps,
        delta_ss=args.delta_ss if args.delta_ss is not None else args.delta,
        beta=args.beta, S=args.S, k=args.k, d=args.d,
        n=getattr(args, "n", 1),
        exact_cdf=getattr(args, "exact_cdf", False),
        session_calibrated=getattr(args, "session_calibrated", False),
        trunc_b=getattr(args, "trunc_b", None),
        quant_step=getattr(args, "quant_step", 1.0),
    )


def cmd_calibrate(args) -> int:
    report = _calibrate_from_args(args)
    for name, formula, value in report.derivation_log:
        print(f"{name:<16} {value:<24.12g} {formula}")
    if args.out:
        payload = {
            "params": report.params.to_dict(),
            "c_delta": report.c_delta,
            "lambda": report.lam,
            "rho_exact": report.rho_exact,
            "rho_asymptotic_estimate": report.rho_asymptotic_estimate,
            "derivation_log": [list(entry) for entry in report.derivation_log],
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_share(args) -> int:
    count(args.d, "--d")
    rng = substream(args.seed, "cli-share")
    x = scale_to_norm(rng.standard_normal(args.d), args.norm)
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
    params = _calibrate_from_args(args).params
    rng = substream(args.seed, "cli-verify-input")
    x = scale_to_norm(rng.standard_normal(args.d), args.norm)
    shares = share_vector(x, args.S, params.sigma_ss, rng)
    outcome, transcript = run_norm_verification(shares, params, args.seed, client_id="cli")
    print(f"accept={int(outcome.accept)} v_norm={outcome.v_norm:.6g} "
          f"tau={outcome.tau:.6g} transcript_sha256={transcript.sha256()}")
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl(include_payload=args.full_payloads))
    return EXIT_OK


def _load_params(args) -> ProtocolParams:
    if args.params:
        # calibrate --out nests the params beside its derivation
        return _read_json(args.params,
                          lambda data: ProtocolParams.from_dict(data.get("params", data)))
    missing = [f for f in ("eps", "delta", "beta", "k") if getattr(args, f) is None]
    if missing:
        raise ScenarioError(
            f"provide --params or the calibration flags (missing: {missing})"
        )
    return _calibrate_from_args(args).params


def cmd_aggregate(args) -> int:
    scenario = _read_json(args.config, Scenario.from_dict)
    args.S, args.d = scenario.S, scenario.d
    params = _load_params(args)

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
    if args.config:
        return _read_json(args.config, ExperimentConfig.from_dict)
    return ExperimentConfig(
        kind=args.kind,
        k_grid=tuple(k for k in args.k_grid.split(",") if k),
        S=args.S, d=args.d, beta=args.beta,
        eps=args.eps, delta=args.delta,
        eps_ss=args.eps_ss if args.eps_ss is not None else args.eps,
        delta_ss=args.delta_ss if args.delta_ss is not None else args.delta,
        trials=args.trials, seed=args.seed, norm_factor=args.norm_factor,
    )


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    rows = []
    for k in config.k_grid:
        params = calibrate(eps=config.eps, delta=config.delta,
                           eps_ss=config.eps_ss, delta_ss=config.delta_ss,
                           beta=config.beta, S=config.S, k=k, d=config.d).params
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


def _audit_rows(samples: int, seed: int) -> list[audit_mod.CheckResult]:
    """The fixed audit battery, each check on its own substream of seed."""
    rows = []
    for k in (8, 64, 256):
        for x in (1.0, 3.0, math.log(100.0)):
            rows += audit_mod.chi2_tail_checks(
                k, x, samples, substream(seed, "audit-chi2", k, int(x * 1000)))
    rows.append(audit_mod.gaussian_mechanism_mc_check(
        max(samples, 1000), substream(seed, "audit-gauss")))
    rows.append(audit_mod.gaussian_mechanism_analytic_check())
    rows.append(audit_mod.projection_privacy_check(
        max(samples, 1000), substream(seed, "audit-proj")))
    # exact share simulation, coalitions without verifier 0
    for S, T in ((2, (1,)), (3, (1,)), (3, (1, 2))):
        rows.append(audit_mod.share_simulation_check(
            S, T, 10.0, min(samples, 10_000), substream(seed, "audit-sim", S, len(T))))
    rate_trials = max(1000, min(samples, 10_000))
    params = calibrate(**audit_mod.AUDIT_POINT).params
    rows.append(audit_mod.completeness_check(params, rate_trials,
                                             substream(seed, "audit-comp")))
    rows.append(audit_mod.soundness_check(params, audit_mod.PATTERN_CONCENTRATED,
                                          rate_trials, substream(seed, "audit-sound")))
    rows.append(audit_mod.truncation_clamp_check())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsum",
        description="Robust, differentially-secure vector summation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        # defaults show up in --help so published runs are self-documenting
        return sub.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    p = add_command("calibrate", help="derive all protocol parameters")
    _add_privacy_flags(p)
    p.add_argument("--n", type=int, default=1, help="client count (for session calibration)")
    p.add_argument("--exact-cdf", action="store_true",
                   help="use exact chi-square quantiles instead of tail bounds")
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
    p.add_argument("--exact-cdf", action="store_true")
    p.add_argument("--transcript", default=None, help="write the transcript as JSONL")
    p.add_argument("--full-payloads", action="store_true",
                   help="include hex payloads in the transcript file")
    p.set_defaults(func=cmd_verify_norm)

    p = add_command("aggregate", help="run a full aggregation scenario")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--params", default=None, help="params JSON (from calibrate --out)")
    _add_privacy_flags(p, require=False)
    p.add_argument("--exact-cdf", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None, help="write the transcript as JSONL")
    p.add_argument("--summary", default=None, help="write the run summary as JSON")
    p.add_argument("--full-payloads", action="store_true")
    p.set_defaults(func=cmd_aggregate)

    p = add_command("experiment", help="Monte Carlo sweep over a parameter grid")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS,
                   default="completeness", help="which accept rate to sweep")
    p.add_argument("--k-grid", default="", help="comma-separated projection dimensions")
    p.add_argument("--S", type=int, default=2, help="number of verifiers")
    p.add_argument("--d", type=int, default=64, help="payload dimension")
    p.add_argument("--beta", type=float, default=0.05, help="failure probability")
    p.add_argument("--eps", type=float, default=1.0, help="DZK epsilon")
    p.add_argument("--delta", type=float, default=1e-2, help="DZK delta")
    p.add_argument("--eps-ss", type=float, default=None, help="sharing epsilon (default: --eps)")
    p.add_argument("--delta-ss", type=float, default=None, help="sharing delta (default: --delta)")
    p.add_argument("--trials", type=int, default=1000, help="trials per grid point")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--norm-factor", type=float, default=1.0,
                   help="soundness: adversary norm as a multiple of rho")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the one place a failure becomes an exit code
    try:
        return args.func(args)
    except (ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
