"""Command-line front end.

Three subcommands: ``simulate`` (draw populations from the neutral or
selected stationary law), ``analyze`` (MLE, bootstrap, exact monotone CI or
posterior on a dataset), and ``study`` (run a study spec to CSV tables).

Human-readable summaries go to stdout; machine-readable JSON run records go
to ``--out``.  Every randomized command flows from one ``--seed`` (drawn
from system entropy and recorded when omitted), so a run record is always
sufficient to replay its outputs exactly.  Instability statuses are
successful completions: they are printed verbatim and exit 0.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time

from . import __version__
from .core import FrequencyParseError, MutationParams, load_dataset, homozygosity
from .density import pool_for_sigma_range
from .inference import (
    DEFAULT_PRIOR_BOUNDS,
    _check_level,
    _check_replicates,
    _check_retained,
    BootstrapConfig,
    MonotoneCiConfig,
    PosteriorConfig,
    bootstrap,
    mle_joint,
    JointMleConfig,
    monotone_ci,
    posterior_sample,
    posterior_summary,
)
from .sampler import RejectionStarvedError, _neutral_arrays, _selection_arrays, write_samples_jsonl
from .study import StudySchemaError, StudySpec, run_study

__all__ = ["main"]


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        if seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
        return int(seed)
    import numpy as np

    return int(np.random.SeedSequence().entropy % (2**31))


def _data_fingerprint(label: str, values: tuple[float, ...]) -> str:
    payload = f"{label}:{','.join(repr(v) for v in values)}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _check_writable(*paths: str) -> None:
    """Raise now, not after the work, the OSError that writing a path would raise.

    A directory, or a parent directory that is missing or not writable,
    fails; no path is opened, so an existing file is not truncated early.
    """
    for path in paths:
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


def _record(command: str, flags: dict, inputs: dict, outputs: dict, started: float) -> dict:
    return {
        "version": __version__,
        "command": command,
        "flags": flags,
        "inputs": inputs,
        "outputs": outputs,
        "timing_seconds": round(time.time() - started, 3),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    started = time.time()
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 2
    _check_writable(args.out, args.out + ".run.json")
    seed = _resolve_seed(args.seed)
    theta = MutationParams.symmetric(args.theta, args.k)
    # Draws stay one array from the sampler to the file: no SimplexPoint per row.
    if args.sigma == 0.0:
        draws = _neutral_arrays(theta, args.n, seed)
        report = {"method": "neutral", "acceptance_rate": 1.0, "n_proposals": args.n, "n_distinct": args.n,
                  "flags": [], "proposal_kind": None, "proposal_concentration": None}
    else:
        draws, rep = _selection_arrays(theta, args.sigma, args.n, seed)
        report = {
            "method": rep.method,
            "acceptance_rate": rep.acceptance_rate,
            "n_proposals": rep.n_proposals,
            "n_distinct": rep.n_distinct,
            "flags": list(rep.flags),
            "proposal_kind": rep.proposal_kind,
            "proposal_concentration": rep.proposal_concentration,
        }
    write_samples_jsonl(draws, args.out)
    flags = {
        "k": args.k,
        "theta": args.theta,
        "sigma": args.sigma,
        "n": args.n,
        "seed": seed,
        "out": args.out,
    }
    record = _record("simulate", flags, {}, {"samples": args.out, "sampler": report}, started)
    _write_record(args.out + ".run.json", record)
    print(
        f"simulate: wrote {args.n} draws to {args.out} "
        f"(method={report['method']}, acceptance={report['acceptance_rate']:.4g}, seed={seed})"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    if args.chain_csv and args.method != "posterior":
        raise ValueError(f"--chain-csv needs --method posterior, got --method {args.method}")
    # Before any pilot fit or chain: a bad value would only surface after them.
    if args.method != "mle":
        _check_level(args.level)
    if args.method == "bootstrap":
        _check_replicates(args.m)
    if args.method == "posterior":
        _check_retained(args.chain_length - PosteriorConfig().burn_in)
    # The posterior's --chain-csv too, which would otherwise fail only after the chain.
    _check_writable(*(p for p in (args.out, args.chain_csv) if p))
    label, point = load_dataset(args.data)
    h = homozygosity(point)
    k = point.k
    inputs = {
        "data": args.data,
        "label": label,
        "k": k,
        "frequencies": list(point.values),
        "homozygosity": h.value,
        "fingerprint": _data_fingerprint(label, point.values),
    }
    flags = {
        "method": args.method,
        "seed": seed,
        "pool_size": args.pool_size,
    }
    outputs: dict = {}

    if args.method == "mle":
        result = mle_joint(point, seed, JointMleConfig(pool_n=args.pool_size))
        outputs["mle"] = result.as_dict()
        print(f"analyze[{label}] joint MLE: theta_hat={_fmt(result.theta_hat)} "
              f"sigma_hat={_fmt(result.sigma_hat)} status={result.status}")
        for note in result.notes:
            print(f"  note: {note}")

    elif args.method == "monotone-ci":
        if args.fix_theta is not None:
            theta = float(args.fix_theta)
        else:
            pilot = mle_joint(point, seed, JointMleConfig(pool_n=args.pool_size))
            if pilot.theta_hat is None:
                print(f"analyze[{label}]: joint MLE did not produce a theta "
                      f"(status={pilot.status}); pass --fix-theta", file=sys.stderr)
                return 1
            theta = pilot.theta_hat
            print(f"analyze[{label}]: conditioning on theta MLE = {theta:.4g}")
        flags.update({"fix_theta": theta, "level": args.level})
        params = MutationParams.symmetric(theta, k)
        cfg = MonotoneCiConfig()
        pool = pool_for_sigma_range(
            params, args.pool_size, seed, sigma_lo=cfg.sigma_range[0], sigma_hi=cfg.sigma_range[1]
        )
        tail = (1.0 - args.level) / 2.0
        interval = monotone_ci(h, pool, tail, tail, cfg)
        outputs["interval"] = interval.as_dict()
        print(f"analyze[{label}] exact monotone {interval.level:.0%} CI: "
              f"({interval.lower:.4g}, {interval.upper:.4g})")
        for note in interval.notes:
            print(f"  note: {note}")

    elif args.method == "bootstrap":
        if args.fix_theta is not None and args.sigma is not None:
            theta, sigma = float(args.fix_theta), float(args.sigma)
        else:
            pilot = mle_joint(point, seed, JointMleConfig(pool_n=args.pool_size))
            if not pilot.converged or pilot.theta_hat is None:
                print(f"analyze[{label}]: joint MLE status={pilot.status}; "
                      "pass --fix-theta and --sigma to bootstrap explicitly", file=sys.stderr)
                return 1
            theta, sigma = pilot.theta_hat, pilot.sigma_hat
            outputs["pilot_mle"] = pilot.as_dict()
            print(f"analyze[{label}]: bootstrapping at MLE (theta={theta:.4g}, sigma={sigma:.4g})")
        flags.update({"fix_theta": theta, "sigma": sigma, "m": args.m, "level": args.level})
        cfg = BootstrapConfig(level=args.level, pool_n=args.pool_size, joint_refit=args.joint_refit)
        result = bootstrap(theta, sigma, k, args.m, seed, cfg)
        outputs["bootstrap"] = result.as_dict()
        iv = result.percentile_interval
        se = "undefined-by-heavy-tail" if result.heavy_tail else f"{result.standard_error:.4g}"
        print(f"analyze[{label}] bootstrap (m={args.m}): SE={se}, "
              f"{iv.level:.0%} percentile interval ({iv.lower:.4g}, {iv.upper:.4g}), "
              f"unbounded replicates={result.n_unbounded}")

    elif args.method == "posterior":
        bounds = (tuple(args.prior_theta), tuple(args.prior_sigma))
        cfg = PosteriorConfig(
            theta_fixed=(float(args.fix_theta) if args.fix_theta is not None else None),
            pool_n=args.pool_size,
        )
        chain = posterior_sample(point, bounds, args.chain_length, seed, cfg)
        interval, mode = posterior_summary(chain, args.level)
        outputs["posterior"] = {
            "chain": chain.as_dict(),
            "credible_interval": interval.as_dict(),
            "mode": {"theta": mode[0], "sigma": mode[1]},
            "pool_passes": chain.pool_passes,
        }
        flags.update(
            {
                "chain_length": args.chain_length,
                "prior_theta": list(args.prior_theta),
                "prior_sigma": list(args.prior_sigma),
                "fix_theta": args.fix_theta,
                "level": args.level,
            }
        )
        if args.chain_csv:
            chain.to_csv(args.chain_csv)
            outputs["chain_csv"] = args.chain_csv
        mode_desc = f"theta={mode[0]:.4g}, sigma={mode[1]:.4g}"
        print(f"analyze[{label}] posterior ({'fixed theta' if args.fix_theta is not None else 'joint'}): "
              f"{interval.level:.0%} credible interval ({interval.lower:.4g}, {interval.upper:.4g}), "
              f"mode ({mode_desc}), acceptance={chain.acceptance_rate:.3f}")
        for note in chain.notes:
            print(f"  note: {note}")

    if args.out:
        _write_record(args.out, _record("analyze", flags, inputs, outputs, started))
        print(f"run record written to {args.out}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    started = time.time()
    if args.out:
        _check_writable(args.out)
    spec = StudySpec.from_json(args.spec)
    outputs = run_study(spec)
    print(f"study[{spec.kind}]: " + ", ".join(f"{k}={v}" for k, v in outputs.items()))
    if args.out:
        with open(args.spec) as fh:
            spec_content = json.load(fh)
        record = _record("study", {"spec": args.spec}, {"spec_content": spec_content}, outputs, started)
        _write_record(args.out, record)
    return 0


def _fmt(v) -> str:
    return "none" if v is None else f"{v:.4g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kallele",
        description="Wright-Fisher k-allele stationary simulation and selection inference",
    )
    parser.add_argument("--version", action="version", version=f"kallele {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw populations from the stationary law")
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--theta", type=float, required=True)
    sim.add_argument("--sigma", type=float, default=0.0)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate selection intensity from data")
    ana.add_argument("--data", required=True, help="bundled name (lyme, kir) or a file path")
    ana.add_argument(
        "--method", required=True, choices=["mle", "bootstrap", "monotone-ci", "posterior"]
    )
    ana.add_argument("--level", type=float, default=0.95, help="interval level for every method but mle")
    ana.add_argument("--m", type=int, default=1000, help="bootstrap replicates")
    ana.add_argument("--sigma", type=float, default=None, help="generator sigma for bootstrap")
    ana.add_argument("--chain-length", type=int, default=100_000)
    ana.add_argument("--prior-theta", type=float, nargs=2, default=list(DEFAULT_PRIOR_BOUNDS[0]))
    ana.add_argument("--prior-sigma", type=float, nargs=2, default=list(DEFAULT_PRIOR_BOUNDS[1]))
    ana.add_argument("--fix-theta", type=float, default=None)
    ana.add_argument("--joint-refit", action="store_true", help="re-estimate theta per bootstrap replicate")
    ana.add_argument("--pool-size", type=int, default=100_000)
    ana.add_argument("--seed", type=int, default=None)
    ana.add_argument("--chain-csv", default=None, help="dump the posterior chain to CSV")
    ana.add_argument("--out", default=None, help="write the JSON run record here")
    ana.set_defaults(func=_cmd_analyze)

    stu = sub.add_parser("study", help="run a study spec to CSV tables")
    stu.add_argument("spec", help="path to a StudySpec JSON file")
    stu.add_argument("--out", default=None, help="write the JSON run record here")
    stu.set_defaults(func=_cmd_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FrequencyParseError, StudySchemaError, ValueError, RejectionStarvedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
