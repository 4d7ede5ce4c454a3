"""Experiment drivers: MLE curves, sampling distributions, instability regions.

Each driver regenerates one of the package's reference analyses as a plain
CSV table plus a JSON sidecar carrying the full study specification, so a
replay with the same spec is byte-identical.  Plotting is left to external
tools.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import Homozygosity, MutationParams, SimplexPoint, parse_frequencies
from .density import (
    WeightedPool,
    _check_k,
    _fraction_below,
    _weights,
    pool_for_sigma_range,
    weighted_quantile,
)
from .inference import (
    DEFAULT_PRIOR_BOUNDS,
    SIGMA_CAP,
    BootstrapConfig,
    BootstrapResult,
    GSigmaTable,
    PosteriorConfig,
    _check_retained,
    bootstrap,
    mle_sigma,
    posterior_sample,
    posterior_summary,
    _subseed,
)
from .sampler import _selection_arrays

__all__ = [
    "StudySpec",
    "StudySchemaError",
    "STUDY_KINDS",
    "mle_curve",
    "instability_probability",
    "cdf_panel",
    "run_study",
]

STUDY_KINDS = (
    "mle_curve",
    "sampling_dist",
    "bootstrap_hist",
    "cdf_panel",
    "posterior_hist",
    "instability_prob",
)


class StudySchemaError(ValueError):
    def __init__(self, message: str, fields: list[str]):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class StudySpec:
    kind: str
    parameters: dict
    seed: int
    out: str

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise StudySchemaError(
                f"unknown study kind {self.kind!r}; expected one of {STUDY_KINDS}", ["kind"]
            )

    @classmethod
    def from_json(cls, path: str) -> "StudySpec":
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise StudySchemaError("study spec must be a JSON object", ["kind", "parameters", "seed", "out"])
        missing = [f for f in ("kind", "parameters", "seed", "out") if f not in obj]
        if missing:
            raise StudySchemaError(f"study spec missing fields: {missing}", missing)
        if not isinstance(obj["parameters"], dict):
            raise StudySchemaError("study spec parameters must be an object", ["parameters"])
        return cls(
            kind=str(obj["kind"]),
            parameters=dict(obj["parameters"]),
            seed=_integer(obj, "seed", "study spec", minimum=0),
            out=str(obj["out"]),
        )


def mle_curve(h_grid: list[float], pool: WeightedPool) -> list[dict]:
    """The conditional MLE as a function of observed homozygosity.

    On a shared pool the emitted curve is non-increasing in h, diverging as
    h falls to the 1/k floor (k is the pool's).  Grid points at or below
    1/k are rejected.  The grid's solves, in grid order, share one
    ``GSigmaTable`` of passes.
    """
    k = pool.k
    bad = [hv for hv in h_grid if hv <= 1.0 / k]
    if bad:
        raise ValueError(f"h grid points at or below 1/k={1.0 / k:.6g}: {bad}")
    if list(h_grid) != sorted(h_grid):
        raise ValueError("h grid must be sorted ascending")
    rows = []
    table = GSigmaTable(pool)
    for hv in h_grid:
        res = mle_sigma(Homozygosity(value=float(hv), k=k), pool, sweep=table)
        rows.append({"h": float(hv), "sigma_hat": res.sigma_hat, "status": res.status})
    return rows


def instability_probability(
    k: int,
    theta: float,
    sigma_grid: list[float],
    epsilon: float,
    n_per_sigma: int,
    seed: int,
) -> list[dict]:
    """Probability of landing in an instability region, by selection regime.

    For each grid intensity, draws populations under heterozygote advantage
    (+sigma) and homozygote advantage (-sigma) and reports the fraction
    falling within epsilon of the respective composition of strongest
    signal: h in (1/k, 1/k + eps) and h in (1 - eps, 1).
    """
    if not (0.0 < epsilon < 1.0 - 1.0 / k):
        raise ValueError(f"epsilon must lie in (0, 1 - 1/k) = (0, {1.0 - 1.0 / k:.6g})")
    if not sigma_grid:
        raise ValueError("sigma grid must be non-empty")
    params = MutationParams.symmetric(theta, k)
    hetero_hi = 1.0 / k + epsilon
    homo_lo = 1.0 - epsilon
    rows = []
    for i, sigma in enumerate(sigma_grid):
        het_draws, het_rep = _selection_arrays(params, float(sigma), n_per_sigma, _subseed(seed, 10, i))
        hom_draws, hom_rep = _selection_arrays(params, -float(sigma), n_per_sigma, _subseed(seed, 11, i))
        het_h = np.einsum("ij,ij->i", het_draws, het_draws)
        hom_h = np.einsum("ij,ij->i", hom_draws, hom_draws)
        rows.append(
            {
                "sigma": float(sigma),
                "hetero_hit_fraction": float(((het_h > 1.0 / k) & (het_h < hetero_hi)).mean()),
                "homo_hit_fraction": float(((hom_h > homo_lo) & (hom_h < 1.0)).mean()),
                "n_per_sigma": int(n_per_sigma),
                "hetero_method": het_rep.method,
                "homo_method": hom_rep.method,
            }
        )
    return rows


def cdf_panel(
    h: Homozygosity,
    pool: WeightedPool,
    sigma_values: list[float],
    bins: int = 60,
) -> tuple[list[dict], list[dict]]:
    """Weighted empirical homozygosity distributions at chosen intensities.

    Returns histogram rows and a summary per intensity: the 2.5th/97.5th
    weighted percentiles and the CDF value at the observed h (which sits at
    the nominal tail mass when the intensity is a monotone-CI endpoint).
    """
    _check_k(h, pool)
    edges = np.linspace(1.0 / pool.k, 1.0, bins + 1)
    hist_rows, summary_rows = [], []
    for sigma in sigma_values:
        w = _weights(pool.b, pool.h, float(sigma))[0]
        below = pool.h <= h.value
        f_at_h = _fraction_below(float(w @ below), float(w @ ~below))
        w /= w.sum()
        mass, _ = np.histogram(pool.h, bins=edges, weights=w)
        for j in range(bins):
            hist_rows.append(
                {
                    "sigma": float(sigma),
                    "bin_left": float(edges[j]),
                    "bin_right": float(edges[j + 1]),
                    "mass": float(mass[j]),
                }
            )
        q025, q975 = weighted_quantile(pool.h, w, [0.025, 0.975])
        summary_rows.append(
            {
                "sigma": float(sigma),
                "q025": float(q025),
                "q975": float(q975),
                "F_at_h": f_at_h,
            }
        )
    return hist_rows, summary_rows


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")


def _write_replicates(out: str, name: str, result: BootstrapResult) -> str:
    """Write a bootstrap's replicate estimates as a replicate,sigma_hat,status table."""
    rows = [{"replicate": i, "sigma_hat": r.sigma_hat, "status": r.status} for i, r in enumerate(result.estimates)]
    path = os.path.join(out, name)
    _write_csv(path, rows, ["replicate", "sigma_hat", "status"])
    return path


def _require(params: dict, names: list[str], kind: str) -> None:
    missing = [n for n in names if n not in params]
    if missing:
        raise StudySchemaError(f"{kind} study spec missing parameters: {missing}", missing)


def _is_number(value) -> bool:
    # JSON numbers such as 1e400 parse to inf, which int() cannot take.
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and math.isfinite(value)
    )


def _number(params: dict, name: str, kind: str, default: float | None = None) -> float:
    """A numeric parameter (``default`` when absent), or a schema error naming it."""
    value = params.get(name, default)
    if not _is_number(value):
        raise StudySchemaError(f"{kind}: {name} must be a finite number, got {value!r}", [name])
    return value


def _integer(params: dict, name: str, kind: str, default: int | None = None, minimum: int | None = None) -> int:
    """An integral numeric parameter (``default`` when absent), at least ``minimum``, or a schema error naming it."""
    value = _number(params, name, kind, default)
    if value != int(value):
        raise StudySchemaError(f"{kind}: {name} must be an integer, got {value!r}", [name])
    if minimum is not None and value < minimum:
        raise StudySchemaError(f"{kind}: {name} must be at least {minimum}, got {value!r}", [name])
    return int(value)


def _number_list(params: dict, name: str, kind: str, length: int | None = None) -> list[float]:
    """A list-of-numbers parameter (of ``length`` entries if given), or a schema error naming it."""
    value = params[name]
    if not isinstance(value, list) or not all(_is_number(v) for v in value) or (
        length is not None and len(value) != length
    ):
        size = "a list of finite numbers" if length is None else f"a list of {length} finite numbers"
        raise StudySchemaError(f"{kind}: {name} must be {size}, got {value!r}", [name])
    return [float(v) for v in value]


def run_study(spec: StudySpec) -> dict:
    """Execute a study spec: compute tables, write CSVs and the JSON sidecar."""
    os.makedirs(spec.out, exist_ok=True)
    p = spec.parameters
    outputs: dict[str, str] = {}

    def num(name: str, default: float | None = None) -> float:
        return _number(p, name, spec.kind, default)

    def integer(name: str, default: int | None = None, minimum: int | None = None) -> int:
        return _integer(p, name, spec.kind, default, minimum)

    if spec.kind == "mle_curve":
        _require(p, ["k", "theta"], spec.kind)
        k = integer("k")
        theta = float(num("theta"))
        grid = p.get("h_grid")
        if grid is not None:
            grid = _number_list(p, "h_grid", spec.kind)
        else:
            start = 1.0 / k + 0.002
            if start >= 0.5:
                raise StudySchemaError(
                    f"mle_curve: at k={k} the default h grid would start at 1/k + 0.002 = {start:.6g}, "
                    "past its end at 0.5; give h_grid",
                    ["h_grid"],
                )
            grid = np.linspace(start, 0.5, integer("grid_points", 100, minimum=1)).tolist()
        if not grid:
            raise StudySchemaError("mle_curve: empty h_grid", ["h_grid"])
        params = MutationParams.symmetric(theta, k)
        pool = pool_for_sigma_range(
            params, integer("pool_n", 100_000), _subseed(spec.seed, 1),
            sigma_lo=-SIGMA_CAP, sigma_hi=SIGMA_CAP,
        )
        rows = mle_curve(list(grid), pool)
        path = os.path.join(spec.out, "mle_curve.csv")
        _write_csv(path, rows, ["h", "sigma_hat", "status"])
        outputs["table"] = path

    elif spec.kind == "sampling_dist":
        # The sampling distribution of the conditional MLE is the bootstrap's replicate set.
        _require(p, ["k", "theta", "sigma"], spec.kind)
        result = bootstrap(
            float(num("theta")),
            float(num("sigma")),
            integer("k"),
            integer("n_datasets", 1000),
            spec.seed,
            BootstrapConfig(pool_n=integer("pool_n", 100_000)),
        )
        outputs["table"] = _write_replicates(spec.out, "sampling_dist.csv", result)

    elif spec.kind == "bootstrap_hist":
        _require(p, ["k", "theta", "sigma", "m"], spec.kind)
        cfg = BootstrapConfig(level=float(num("level", 0.95)), pool_n=integer("pool_n", 100_000))
        result = bootstrap(
            float(num("theta")), float(num("sigma")), integer("k"), integer("m"), spec.seed, cfg
        )
        outputs["table"] = _write_replicates(spec.out, "bootstrap_hist.csv", result)
        summary_path = os.path.join(spec.out, "bootstrap_summary.json")
        with open(summary_path, "w") as fh:
            json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        outputs["summary"] = summary_path

    elif spec.kind == "cdf_panel":
        _require(p, ["k", "theta", "h", "sigma_values"], spec.kind)
        k = integer("k")
        bins = integer("bins", 60, minimum=1)
        sig_values = _number_list(p, "sigma_values", spec.kind)
        if not sig_values:
            raise StudySchemaError("cdf_panel: empty sigma_values", ["sigma_values"])
        params = MutationParams.symmetric(float(num("theta")), k)
        pool = pool_for_sigma_range(
            params, integer("pool_n", 100_000), _subseed(spec.seed, 1),
            sigma_lo=min(sig_values + [0.0]), sigma_hi=max(sig_values + [0.0]),
        )
        hist_rows, summary_rows = cdf_panel(
            Homozygosity(value=float(num("h")), k=k),
            pool,
            sig_values,
            bins=bins,
        )
        path = os.path.join(spec.out, "cdf_panel.csv")
        _write_csv(path, hist_rows, ["sigma", "bin_left", "bin_right", "mass"])
        spath = os.path.join(spec.out, "cdf_panel_summary.csv")
        _write_csv(spath, summary_rows, ["sigma", "q025", "q975", "F_at_h"])
        outputs["table"] = path
        outputs["summary"] = spath

    elif spec.kind == "posterior_hist":
        _require(p, ["data", "chain_length"], spec.kind)
        data = p["data"]
        point = parse_frequencies(data) if isinstance(data, str) else SimplexPoint(
            _number_list(p, "data", spec.kind), sum_tol=5e-3
        )
        cfg = PosteriorConfig(
            theta_fixed=(float(num("fix_theta")) if p.get("fix_theta") is not None else None),
            pool_n=integer("pool_n", 100_000),
        )
        chain_length = integer("chain_length")
        # Before the pool and the chain, which would only be thrown away.
        _check_retained(chain_length - cfg.burn_in)
        # A side the spec leaves out takes its default; a given side is kept as passed.
        bounds = []
        for name, default in zip(("prior_theta", "prior_sigma"), DEFAULT_PRIOR_BOUNDS):
            if name in p:
                _number_list(p, name, spec.kind, length=2)
            bounds.append(tuple(p[name]) if name in p else default)
        chain = posterior_sample(point, tuple(bounds), chain_length, spec.seed, cfg)
        interval, mode = posterior_summary(chain, float(num("level", 0.95)))
        path = os.path.join(spec.out, "posterior_chain.csv")
        chain.to_csv(path)
        outputs["table"] = path
        summary_path = os.path.join(spec.out, "posterior_summary.json")
        with open(summary_path, "w") as fh:
            json.dump(
                {
                    "chain": chain.as_dict(),
                    "credible_interval": interval.as_dict(),
                    "mode": {"theta": mode[0], "sigma": mode[1]},
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        outputs["summary"] = summary_path

    elif spec.kind == "instability_prob":
        _require(p, ["k", "theta", "sigma_grid", "epsilon"], spec.kind)
        grid = _number_list(p, "sigma_grid", spec.kind)
        if not grid:
            raise StudySchemaError("instability_prob: empty sigma_grid", ["sigma_grid"])
        if grid != sorted(grid):
            raise StudySchemaError("instability_prob: sigma_grid must be sorted", ["sigma_grid"])
        rows = instability_probability(
            integer("k"),
            float(num("theta")),
            grid,
            float(num("epsilon")),
            integer("n_per_sigma", 1000),
            spec.seed,
        )
        path = os.path.join(spec.out, "instability_prob.csv")
        _write_csv(
            path,
            rows,
            [
                "sigma",
                "hetero_hit_fraction",
                "homo_hit_fraction",
                "n_per_sigma",
                "hetero_method",
                "homo_method",
            ],
        )
        outputs["table"] = path

    sidecar = os.path.join(spec.out, f"{spec.kind}_spec.json")
    with open(sidecar, "w") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
    outputs["sidecar"] = sidecar
    return outputs
