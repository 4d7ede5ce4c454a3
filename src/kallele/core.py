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
# NumPy sums a contiguous float row pairwise; up to this length in one
# block, which ``_row_sums`` reproduces.
_PAIRWISE_BLOCK = 128
# Bytes of rows ``_row_sums`` adds at a time, so that a block's columns
# stay in cache from one column's pass to the next.
_ROW_BLOCK_BYTES = 1 << 20


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a 2-D float64 array, bit for bit, added column by column.

    NumPy adds a row of fewer than 8 entries one after another.  From 8 up
    to ``_PAIRWISE_BLOCK`` entries it keeps eight running sums r0..r7 over
    the longest prefix whose length is a multiple of 8, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the rest one at a time.
    Here the same additions run down whole columns, which spares NumPy's
    loop overhead per short row.  (A row of -0.0 alone sums to -0.0 here,
    to 0.0 in NumPy.)  Longer rows are left to NumPy.
    """
    n, k = a.shape
    if k > _PAIRWISE_BLOCK:
        return a.sum(axis=1)
    out = np.empty(n)
    step = max(1, _ROW_BLOCK_BYTES // (8 * k))
    for lo in range(0, n, step):
        c = a[lo : lo + step].T
        o = out[lo : lo + step]
        if k < 8:
            o[:] = c[0]
            for j in range(1, k):
                o += c[j]
            continue
        stop = k - k % 8
        r = list(c[:8]) if stop == 8 else [c[j] + c[j + 8] for j in range(8)]
        for i in range(16, stop, 8):
            for j in range(8):
                r[j] += c[i + j]
        np.add(r[0] + r[1], r[2] + r[3], out=o)
        o += (r[4] + r[5]) + (r[6] + r[7])
        for j in range(stop, k):
            o += c[j]
    return out


def _dirichlet(alphas: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` Dirichlet rows: ``alphas`` is one row of concentrations or one row per draw.

    At small concentrations gamma variates underflow to 0, which puts a row
    on the simplex boundary or, when every coordinate underflows, makes it
    0/0 = NaN.  A row is redrawn unless every coordinate is > 0.  Draws with
    no such row are exactly those of one ``rng.gamma`` call, and every row
    is its gammas over their ``g.sum(axis=1)``, bit for bit: ``_row_sums``
    adds the columns in NumPy's order.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    k = alphas.shape[-1]
    # NumPy draws the same gamma stream for a scalar shape as for a row of
    # equal shapes, and draws it about 30% faster.
    if alphas.ndim == 1 and (alphas == alphas[0]).all():
        alphas = alphas[0]
    budget = _REDRAW_BUDGET * size
    with np.errstate(invalid="ignore"):
        x = rng.gamma(alphas, size=(size, k))
        x /= _row_sums(x)[:, None]
        # The minimum of a draw with a 0/0 row is NaN, which is not > 0 either.
        while x.size and not x.min() > 0.0:
            bad = ~(x > 0.0).all(axis=1)
            n_bad = int(bad.sum())
            budget -= n_bad
            if budget < 0:
                raise ValueError(
                    f"Dirichlet concentration {float(alphas.min()):.3g} is too small to draw interior "
                    f"points in float64: {_REDRAW_BUDGET * size} redrawn rows did not suffice"
                )
            g = rng.gamma(alphas if alphas.ndim < 2 else alphas[bad], size=(n_bad, k))
            x[bad] = g / _row_sums(g)[:, None]
    return x


# Coefficients of Cephes ``lgam`` (Moshier 1989): A is the Stirling series
# in 1/x^2, B/C the rational approximation on [2, 3) (C with a leading 1).
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LGAM_MAX = 2.556348e305
_LOG_SQRT_2PI = 0.91893853320467274178


def _polevl(x: float, coef: tuple[float, ...], ans: float) -> float:
    """Horner's rule over ``coef``, from a leading value ``ans``."""
    for c in coef:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"log-gamma is defined here for x > 0, got {x!r}")
    if math.isnan(x) or x == math.inf:
        return x
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B[1:], _LGAM_B[0]) / _polevl(x, _LGAM_C[1:], x + _LGAM_C[0])
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A[1:], _LGAM_A[0]) / x


def _gammaln(x):
    """log Gamma(x) for x > 0, elementwise, with the bits of ``scipy.special.gammaln``.

    Takes Cephes ``lgam``'s steps (Moshier 1989), which SciPy runs: below
    13, shift the argument into [2, 3) and apply a rational approximation;
    from 13 on, Stirling's formula with a series in 1/x^2 below 1e8.  NaN
    and +inf return themselves, x > 2.556348e305 returns +inf, and x <= 0
    raises ``ValueError``.  Logs come from ``math.log`` (the C library's,
    as in Cephes): NumPy's vectorized log can differ in the last bit.  A
    scalar gives a float; an array gives an ndarray of its shape, so
    ``_gammaln(a).sum()`` adds in NumPy's pairwise order.
    """
    if np.ndim(x) == 0:
        return _lgam(float(x))
    x = np.asarray(x, dtype=np.float64)
    return np.array([_lgam(v) for v in x.ravel().tolist()]).reshape(x.shape)
