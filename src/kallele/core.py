"""Domain types and elementary statistics for k-allele frequency data.

A population is a point on the interior of the (k-1)-simplex: k strictly
positive allele frequencies summing to one.  Selection is encoded either as
a scalar overdominance intensity (sigma > 0 favours heterozygotes,
sigma < 0 homozygotes) or as a general symmetric k x k matrix of scaled
intensities.  Everything here is an immutable value object, safe to share
across threads and processes without synchronization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SimplexPoint",
    "MutationParams",
    "SelectionModel",
    "Homozygosity",
    "FrequencyParseError",
    "homozygosity",
    "quadratic_form",
    "parse_frequencies",
    "load_dataset",
    "bundled_dataset",
    "BUNDLED_DATASETS",
    "derive_rng",
]

# Internally generated points must satisfy the simplex constraint almost
# exactly; user-ingested data gets a coarser gate (and is rejected, never
# renormalized, beyond it).
INTERNAL_SUM_TOL = 1e-9
INGEST_SUM_TOL = 5e-3

MATRIX_SYMMETRY_TOL = 1e-12


class FrequencyParseError(ValueError):
    """Raised when a frequency vector fails ingestion validation."""


class SimplexPoint:
    """An interior point of the k-simplex: the allele frequencies of one population.

    Entries must be strictly positive (boundary populations are outside the
    support of every density in this package) and sum to one within
    ``sum_tol``.  Instances are immutable.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float], *, sum_tol: float = INTERNAL_SUM_TOL):
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise ValueError(f"need at least 2 allele frequencies, got {len(vals)}")
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                raise ValueError(f"frequency {i} is not finite: {v!r}")
            if v <= 0.0:
                raise ValueError(
                    f"allele {i} has non-positive frequency {v!r}; "
                    "boundary and exterior points are not valid populations"
                )
        total = math.fsum(vals)
        if abs(total - 1.0) > sum_tol:
            raise ValueError(
                f"frequencies sum to {total!r}, deviating from 1 by "
                f"{abs(total - 1.0):.3g} (> {sum_tol:g})"
            )
        object.__setattr__(self, "_values", vals)

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    @property
    def k(self) -> int:
        return len(self._values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexPoint is immutable")

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, i):
        return self._values[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexPoint) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{v:.6g}" for v in self._values)
        return f"SimplexPoint(({body}))"


@dataclass(frozen=True)
class MutationParams:
    """Scaled parent-independent mutation rates.

    ``symmetric`` mode carries a single total rate ``theta`` spread evenly
    over k alleles (per-allele rate theta/k); ``general`` mode carries one
    positive rate per allele.
    """

    mode: str
    thetas: tuple[float, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.mode not in ("symmetric", "general"):
            raise ValueError(f"unknown mutation mode {self.mode!r}")
        if len(self.thetas) < 2:
            raise ValueError("need at least 2 alleles")
        if any((not math.isfinite(t)) or t <= 0.0 for t in self.thetas):
            raise ValueError("all per-allele mutation rates must be positive and finite")
        if self.mode == "symmetric" and (self.theta is None or self.theta <= 0.0):
            raise ValueError("symmetric mode requires a positive total rate")

    @classmethod
    def symmetric(cls, theta: float, k: int) -> "MutationParams":
        theta = float(theta)
        if k < 2:
            raise ValueError("k must be at least 2")
        return cls(mode="symmetric", thetas=(theta / k,) * k, theta=theta)

    @classmethod
    def general(cls, thetas: Sequence[float]) -> "MutationParams":
        return cls(mode="general", thetas=tuple(float(t) for t in thetas), theta=None)

    @property
    def k(self) -> int:
        return len(self.thetas)

    @property
    def total(self) -> float:
        return self.theta if self.theta is not None else math.fsum(self.thetas)

    def alphas(self) -> np.ndarray:
        """Per-allele Dirichlet concentration parameters."""
        return np.asarray(self.thetas, dtype=np.float64)


@dataclass(frozen=True)
class SelectionModel:
    """Scaled selection intensities.

    ``symmetric`` mode is the scalar overdominance model: the intensity
    matrix is sigma * I, so the quadratic form reduces to
    sigma * homozygosity.  Negative sigma encodes homozygote advantage.
    ``matrix`` mode is a general symmetric matrix of pairwise intensities.
    """

    mode: str
    sigma: float | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.mode == "symmetric":
            if self.sigma is None or not math.isfinite(self.sigma):
                raise ValueError("symmetric mode requires a finite sigma")
        elif self.mode == "matrix":
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
                raise ValueError("selection matrix must be square, k >= 2")
            if not np.all(np.isfinite(m)):
                raise ValueError("selection matrix entries must be finite")
            asym = float(np.abs(m - m.T).max())
            if asym > MATRIX_SYMMETRY_TOL:
                raise ValueError(
                    f"selection matrix is asymmetric (max |S - S'| = {asym:.3g})"
                )
        else:
            raise ValueError(f"unknown selection mode {self.mode!r}")

    @classmethod
    def overdominance(cls, sigma: float) -> "SelectionModel":
        return cls(mode="symmetric", sigma=float(sigma))

    @classmethod
    def from_matrix(cls, matrix) -> "SelectionModel":
        m = np.asarray(matrix, dtype=np.float64)
        return cls(mode="matrix", matrix=tuple(tuple(float(v) for v in row) for row in m))

    def matrix_array(self, k: int | None = None) -> np.ndarray:
        """The k x k intensity matrix (sigma * I for the scalar model)."""
        if self.mode == "symmetric":
            if k is None:
                raise ValueError("k is required to expand the scalar model")
            return float(self.sigma) * np.eye(k)
        m = np.asarray(self.matrix, dtype=np.float64)
        if k is not None and m.shape[0] != k:
            raise ValueError(f"selection matrix is {m.shape[0]}x{m.shape[0]}, expected k={k}")
        return m


@dataclass(frozen=True)
class Homozygosity:
    """The summary statistic sum(x_i^2), in [1/k, 1] for a k-allele population."""

    value: float
    k: int

    def __post_init__(self):
        lo = 1.0 / self.k
        if not (lo - 1e-12 <= self.value <= 1.0 + 1e-12):
            raise ValueError(
                f"homozygosity {self.value!r} outside [{lo:.6g}, 1] for k={self.k}"
            )

    def __float__(self) -> float:
        return self.value


def homozygosity(x: SimplexPoint) -> Homozygosity:
    """Probability that two genes sampled from the population share an allele.

    Computed with compensated summation so that the gap above the 1/k floor
    is accurate near equal frequencies, where downstream root-finding is
    most sensitive.
    """
    value = math.fsum(v * v for v in x.values)
    return Homozygosity(value=min(value, 1.0), k=x.k)


def quadratic_form(x: SimplexPoint, model: SelectionModel) -> float:
    """The selection exponent x' S x.

    For the scalar overdominance model this is exactly
    sigma * homozygosity(x); for a general matrix it is the bilinear form.
    """
    if model.mode == "symmetric":
        return float(model.sigma) * homozygosity(x).value
    m = model.matrix_array()
    if m.shape[0] != x.k:
        raise ValueError(f"selection matrix is {m.shape[0]}x{m.shape[0]}, data has k={x.k}")
    v = x.as_array()
    return float(v @ m @ v)


# Bundled data sets: population allele frequencies analyzed throughout the
# package documentation and acceptance suite.
#   lyme: Borrelia burgdorferi outer-surface-protein locus, 4 alleles
#         (Qiu et al. 1997, via Donnelly, Nordborg and Joyce 2001).
#   kir:  human KIR DL1/S1 locus, United Kingdom population, 8 alleles
#         (Norman et al. 2004, Table 2).
BUNDLED_DATASETS: dict[str, tuple[float, ...]] = {
    "lyme": (0.103, 0.375, 0.270, 0.252),
    "kir": (0.22, 0.21, 0.17, 0.16, 0.15, 0.04, 0.03, 0.02),
}

_TOKEN_SPLIT = re.compile(r"[,\s]+")


def bundled_dataset(name: str) -> SimplexPoint:
    key = name.strip().lower()
    if key not in BUNDLED_DATASETS:
        raise KeyError(f"no bundled dataset named {name!r}; have {sorted(BUNDLED_DATASETS)}")
    return SimplexPoint(BUNDLED_DATASETS[key])


def parse_frequencies(text: str) -> SimplexPoint:
    """Parse a frequency vector from text, or resolve a bundled dataset name.

    Accepts comma/whitespace-separated decimals.  Rejects (never silently
    renormalizes): non-numeric tokens, fewer than 2 entries, non-positive
    entries, and sums deviating from 1 by more than 0.005.
    """
    stripped = text.strip()
    if stripped.lower() in BUNDLED_DATASETS:
        return bundled_dataset(stripped)
    tokens = [t for t in _TOKEN_SPLIT.split(stripped) if t]
    if len(tokens) < 2:
        raise FrequencyParseError(f"need at least 2 frequencies, got {len(tokens)}")
    vals = []
    for i, tok in enumerate(tokens):
        try:
            vals.append(float(tok))
        except ValueError:
            raise FrequencyParseError(f"token {i} is not a number: {tok!r}") from None
    for i, v in enumerate(vals):
        if not math.isfinite(v) or v <= 0.0:
            raise FrequencyParseError(
                f"allele {i} has non-positive frequency {v!r}; "
                "zero-frequency alleles must be dropped from the data, not listed"
            )
    total = math.fsum(vals)
    if abs(total - 1.0) > INGEST_SUM_TOL:
        raise FrequencyParseError(
            f"frequencies sum to {total:.6g}, deviating from 1 by {abs(total - 1.0):.3g} "
            f"(> {INGEST_SUM_TOL}); fix the data rather than relying on renormalization"
        )
    return SimplexPoint(vals, sum_tol=INGEST_SUM_TOL)


def load_dataset(source: str) -> tuple[str, SimplexPoint]:
    """Load one labelled frequency vector from a bundled name or a file.

    A plain-text file holds one comma-separated dataset on one line
    (labelled by its line number), among blank and ``#`` comment lines; a
    ``.json`` file holds a single object
    ``{"k": int, "frequencies": [...], "label": str}``.
    """
    import json
    import os

    if source.strip().lower() in BUNDLED_DATASETS:
        return source.strip().lower(), bundled_dataset(source)
    if not os.path.exists(source):
        raise FrequencyParseError(
            f"{source!r} is neither a bundled dataset name nor an existing file"
        )
    if source.endswith(".json"):
        with open(source) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "frequencies" not in obj:
            raise FrequencyParseError(f"{source}: expected an object with a 'frequencies' field")
        freqs = obj["frequencies"]
        if not isinstance(freqs, list):
            raise FrequencyParseError(f"{source}: 'frequencies' must be a list, got {freqs!r}")
        k = obj.get("k", len(freqs))
        if isinstance(k, bool) or not isinstance(k, int):
            raise FrequencyParseError(f"{source}: 'k' must be an integer, got {k!r}")
        if k != len(freqs):
            raise FrequencyParseError(f"{source}: declared k={k} but {len(freqs)} frequencies listed")
        label = str(obj.get("label", os.path.basename(source)))
        # Entries go through the text parser, which rejects any that is not a number.
        return label, parse_frequencies(", ".join(str(v) for v in freqs))
    with open(source) as fh:
        found = [(n, line) for n, line in enumerate(map(str.strip, fh), start=1) if line and not line.startswith("#")]
    if len(found) != 1:
        raise FrequencyParseError(f"{source}: expected exactly one dataset line, found {len(found)}")
    lineno, line = found[0]
    try:
        return f"line{lineno}", parse_frequencies(line)
    except FrequencyParseError as exc:
        raise FrequencyParseError(f"{source}:{lineno}: {exc}") from None


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic substream generator.

    Every random quantity in the package flows from one user seed through
    named substream paths, so results do not depend on evaluation order.
    Their last bits do depend on the BLAS thread count, which sets the
    summation order of the pool passes' dot products.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(path)))


# Redrawn rows a Dirichlet draw may spend, per row asked for.
_REDRAW_BUDGET = 100


def _dirichlet(alphas: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` Dirichlet rows: ``alphas`` is one row of concentrations or one row per draw.

    At small concentrations gamma variates underflow to 0, which puts a row
    on the simplex boundary or, when every coordinate underflows, makes it
    0/0 = NaN.  A row is redrawn unless every coordinate is > 0.  Draws with
    no such row are exactly those of one ``rng.gamma`` call.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    k = alphas.shape[-1]
    # NumPy draws the same gamma stream for a scalar shape as for a row of
    # equal shapes, and draws it about 30% faster.
    if alphas.ndim == 1 and (alphas == alphas[0]).all():
        alphas = alphas[0]
    budget = _REDRAW_BUDGET * size
    with np.errstate(invalid="ignore"):
        g = rng.gamma(alphas, size=(size, k))
        x = g / g.sum(axis=1, keepdims=True)
        bad = ~(x > 0.0).all(axis=1)
        while bad.any():
            n_bad = int(bad.sum())
            budget -= n_bad
            if budget < 0:
                raise ValueError(
                    f"Dirichlet concentration {float(alphas.min()):.3g} is too small to draw interior "
                    f"points in float64: {_REDRAW_BUDGET * size} redrawn rows did not suffice"
                )
            g = rng.gamma(alphas if alphas.ndim < 2 else alphas[bad], size=(n_bad, k))
            x[bad] = g / g.sum(axis=1, keepdims=True)
            bad = ~(x > 0.0).all(axis=1)
    return x
