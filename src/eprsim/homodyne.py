"""Synthetic homodyne sampling and binned variance traces.

Sampling is deterministic: a PCG64 stream seeded from SweepConfig.seed feeds
an inverse-CDF normal transform (exactly one uniform per normal draw, no
rejection), so a given seed always reproduces the same dataset bytes.

CSV formats (LF line endings, 17 significant digits):

* dataset:  index,theta1,x1[,theta2,x2]
* trace:    bin_center_index,theta1_center[,theta2_center],variance,count
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .errors import DataFormatError
from .gaussian import GaussianState

_TARGETS = ("mode1", "mode2", "sum", "difference")


@dataclass(frozen=True)
class PhaseSchedule:
    """Local-oscillator phase of one mode: theta0 + rate * sample_index."""

    theta0: float
    rate: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and math.isfinite(self.rate)):
            raise ValueError("phase schedule must be finite")


@dataclass(frozen=True)
class SweepConfig:
    """Per-mode phase schedules, sample count and RNG seed of one run."""

    phases: tuple[PhaseSchedule, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        if not self.phases:
            raise ValueError("at least one phase schedule is required")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def n_modes(self) -> int:
        return len(self.phases)

    def thetas(self) -> np.ndarray:
        """(n_samples, n_modes) array of LO phases, exactly as scheduled."""
        idx = np.arange(self.n_samples, dtype=float)[:, None]
        theta0 = np.array([p.theta0 for p in self.phases])
        rate = np.array([p.rate for p in self.phases])
        return theta0[None, :] + rate[None, :] * idx


def _format(value: float) -> str:
    return f"{value:.17g}"


def _check_finite(lines: list[str], data: np.ndarray) -> None:
    """Raise DataFormatError naming the first line with a non-finite value.

    `data` holds one row per non-blank line of the CSV `lines` after the
    header; the line is looked up only when a value is not finite.
    """
    finite = np.isfinite(data).all(axis=1)
    if finite.all():
        return
    data_lines = [lineno for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    raise DataFormatError("values must be finite", line=data_lines[int(np.argmin(finite))])


@dataclass(frozen=True, eq=False)
class QuadratureDataset:
    """Homodyne records: per sample, the LO phases and measured quadratures."""

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        if thetas.shape != xs.shape:
            raise ValueError("thetas and xs must have matching shapes")
        if thetas.shape[1] not in (1, 2):
            raise ValueError("datasets hold 1 or 2 modes")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(xs))):
            raise ValueError("phases and quadrature values must be finite")
        thetas.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)

    @property
    def n_samples(self) -> int:
        return self.thetas.shape[0]

    @property
    def n_modes(self) -> int:
        return self.thetas.shape[1]

    def to_csv(self, path) -> None:
        cols = ["index"]
        for m in range(self.n_modes):
            cols += [f"theta{m + 1}", f"x{m + 1}"]
        lines = [",".join(cols)]
        for i in range(self.n_samples):
            row = [str(i)]
            for m in range(self.n_modes):
                row += [_format(self.thetas[i, m]), _format(self.xs[i, m])]
            lines.append(",".join(row))
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))

    @classmethod
    def from_csv(cls, path) -> "QuadratureDataset":
        text = Path(path).read_text(encoding="ascii")
        lines = text.splitlines()
        if not lines:
            raise DataFormatError("empty dataset file", line=1)
        header = lines[0].strip()
        if header == "index,theta1,x1":
            n_modes = 1
        elif header == "index,theta1,x1,theta2,x2":
            n_modes = 2
        else:
            raise DataFormatError(f"unrecognized dataset header {header!r}", line=1)
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 1 + 2 * n_modes:
                raise DataFormatError(
                    f"expected {1 + 2 * n_modes} fields, got {len(parts)}", line=lineno
                )
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from None
        if not rows:
            raise DataFormatError("dataset has no records", line=2)
        data = np.array(rows)
        _check_finite(lines, data)
        return cls(data[:, 0::2], data[:, 1::2])


@dataclass(frozen=True, eq=False)
class VarianceTrace:
    """Binned variance versus swept phase / sample index."""

    bin_center_index: np.ndarray
    theta_centers: np.ndarray
    variance: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        bci = np.asarray(self.bin_center_index, dtype=float)
        tc = np.atleast_2d(np.asarray(self.theta_centers, dtype=float))
        var = np.asarray(self.variance, dtype=float)
        cnt = np.asarray(self.count, dtype=int)
        if not (len(bci) == tc.shape[0] == len(var) == len(cnt)):
            raise ValueError("trace columns must have equal length")
        if not all(np.all(np.isfinite(arr)) for arr in (bci, tc, var)):
            raise ValueError("trace columns must be finite")
        if np.any(var < 0):
            raise ValueError("variances must be non-negative")
        for arr in (bci, tc, var, cnt):
            arr.setflags(write=False)
        object.__setattr__(self, "bin_center_index", bci)
        object.__setattr__(self, "theta_centers", tc)
        object.__setattr__(self, "variance", var)
        object.__setattr__(self, "count", cnt)

    @property
    def n_bins(self) -> int:
        return len(self.variance)

    @property
    def n_modes(self) -> int:
        return self.theta_centers.shape[1]

    def to_csv(self, path) -> None:
        cols = ["bin_center_index", "theta1_center"]
        if self.n_modes == 2:
            cols.append("theta2_center")
        cols += ["variance", "count"]
        lines = [",".join(cols)]
        for i in range(self.n_bins):
            row = [_format(self.bin_center_index[i])]
            row += [_format(t) for t in self.theta_centers[i]]
            row += [_format(self.variance[i]), str(int(self.count[i]))]
            lines.append(",".join(row))
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))

    @classmethod
    def from_csv(cls, path) -> "VarianceTrace":
        lines = Path(path).read_text(encoding="ascii").splitlines()
        if not lines:
            raise DataFormatError("empty trace file", line=1)
        header = lines[0].strip()
        if header == "bin_center_index,theta1_center,variance,count":
            n_modes = 1
        elif header == "bin_center_index,theta1_center,theta2_center,variance,count":
            n_modes = 2
        else:
            raise DataFormatError(f"unrecognized trace header {header!r}", line=1)
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3 + n_modes:
                raise DataFormatError(
                    f"expected {3 + n_modes} fields, got {len(parts)}", line=lineno
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from None
        if not rows:
            raise DataFormatError("trace has no bins", line=2)
        data = np.array(rows)
        _check_finite(lines, data)
        return cls(
            bin_center_index=data[:, 0],
            theta_centers=data[:, 1 : 1 + n_modes],
            variance=data[:, 1 + n_modes],
            count=data[:, 2 + n_modes].astype(int),
        )


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # rng.random() can return exactly 0, where the inverse CDF diverges
    u = np.where(u == 0.0, 0.5 ** 54, u)
    return ndtri(u)


def sample(state: GaussianState, config: SweepConfig) -> QuadratureDataset:
    """Draw homodyne records of the rotated quadratures under a phase sweep.

    For each record the vector (X_{1,theta1}[, X_{2,theta2}]) is drawn from
    the zero-mean Gaussian whose covariance is induced by the state and the
    scheduled phases, via a closed-form Cholesky factor per record.
    """
    if state.n_modes != config.n_modes:
        raise ValueError(
            f"state has {state.n_modes} mode(s) but config schedules {config.n_modes}"
        )
    if state.n_modes > 2:
        raise ValueError("sampling supports 1 or 2 modes")
    thetas = config.thetas()
    c = np.cos(thetas)
    s = np.sin(thetas)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    z = _standard_normals(rng, (config.n_samples, state.n_modes))
    cov = state.cov
    if state.n_modes == 1:
        var = c[:, 0] ** 2 * cov[0, 0] + 2 * c[:, 0] * s[:, 0] * cov[0, 1] + s[:, 0] ** 2 * cov[1, 1]
        xs = np.sqrt(var) * z[:, 0]
        return QuadratureDataset(thetas, xs[:, None])
    s11 = c[:, 0] ** 2 * cov[0, 0] + 2 * c[:, 0] * s[:, 0] * cov[0, 1] + s[:, 0] ** 2 * cov[1, 1]
    s22 = c[:, 1] ** 2 * cov[2, 2] + 2 * c[:, 1] * s[:, 1] * cov[2, 3] + s[:, 1] ** 2 * cov[3, 3]
    s12 = (
        c[:, 0] * c[:, 1] * cov[0, 2]
        + c[:, 0] * s[:, 1] * cov[0, 3]
        + s[:, 0] * c[:, 1] * cov[1, 2]
        + s[:, 0] * s[:, 1] * cov[1, 3]
    )
    l11 = np.sqrt(s11)
    l21 = s12 / l11
    l22 = np.sqrt(np.clip(s22 - l21**2, 0.0, None))
    x1 = l11 * z[:, 0]
    x2 = l21 * z[:, 0] + l22 * z[:, 1]
    return QuadratureDataset(thetas, np.column_stack([x1, x2]))


def binned_variance(data: QuadratureDataset, window: int, target: str) -> VarianceTrace:
    """Unbiased per-bin sample variance of a quadrature combination.

    `target` selects mode1, mode2, or the sum/difference (x1 +/- x2)/sqrt(2).
    Records are grouped into consecutive bins of `window` samples; a trailing
    remainder shorter than the window is dropped.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
    if target != "mode1" and data.n_modes < 2:
        raise ValueError(f"target {target!r} needs a 2-mode dataset")
    if target == "mode1":
        values = data.xs[:, 0]
    elif target == "mode2":
        values = data.xs[:, 1]
    elif target == "sum":
        values = (data.xs[:, 0] + data.xs[:, 1]) / math.sqrt(2.0)
    else:
        values = (data.xs[:, 0] - data.xs[:, 1]) / math.sqrt(2.0)
    n_bins = data.n_samples // window
    if n_bins < 1:
        raise ValueError("window larger than the dataset")
    used = n_bins * window
    chunks = values[:used].reshape(n_bins, window)
    variance = chunks.var(axis=1, ddof=1)
    idx = np.arange(used, dtype=float).reshape(n_bins, window).mean(axis=1)
    theta_centers = data.thetas[:used].reshape(n_bins, window, data.n_modes).mean(axis=1)
    counts = np.full(n_bins, window, dtype=int)
    return VarianceTrace(idx, theta_centers, variance, counts)
