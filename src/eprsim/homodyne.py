"""Synthetic homodyne sampling and binned variance traces.

Sampling is deterministic: a PCG64 stream seeded from SweepConfig.seed feeds
an inverse-CDF normal transform (exactly one uniform per normal draw, no
rejection), so a given seed always reproduces the same dataset bytes.

Per-record arrays are mode-major: a dataset's `thetas` and `xs` keep their
(n_samples, n_modes) shape, but each mode's column is contiguous (Fortran
order) however the arrays were built, so per-mode arithmetic runs over
contiguous memory.  Only the normals are drawn record by record,
(z_1[, z_2]) per record, which fixes the PCG64 stream order.  A trace's
theta centres are numpy's pairwise mean of each mode's windows.

Sampling and binning work `_BLOCK_ROWS` records at a time: `sample` fills
its preallocated output a block of records at a time (drawing the uniforms
block by block gives the stream of one draw), and `binned_variance` forms
values and variances over groups of whole bins.  Every expression keeps its
operation order, so the bytes are those of one whole-array pass, and peak
memory is the output plus a few blocks of temporaries.

CSV formats (ASCII, LF line endings, 17 significant digits):

* dataset:  index,theta1,x1[,theta2,x2]
* trace:    bin_center_index,theta1_center[,theta2_center],variance,count

Both are written a block of rows at a time, each block formatted by one
`%` operation ('%.17g' gives the bytes of f"{v:.17g}"), and read in bulk:
every non-blank line's field count is checked at once, then each block of
lines is joined, split on ',' and its value fields parsed by one
`np.fromiter(map(float, ...))`.  Working a block at a time keeps peak
memory to one block's text and strings.  The dataset's index column is not
parsed.  When a bulk check fails, a line scan names the first bad line; it
only raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

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
        """(n_samples, n_modes) array of LO phases, exactly as scheduled,
        each mode's column contiguous."""
        idx = np.arange(self.n_samples, dtype=float)
        out = np.empty((self.n_modes, self.n_samples))
        for row, p in zip(out, self.phases):
            np.multiply(p.rate, idx, out=row)
            row += p.theta0
        return out.T


# records per block: sampled, binned, formatted per write, parsed per step,
# turned into MaxLik features (tomography._mode_features) and run through
# each MaxLik pass (tomography._ProjectorFeatures)
_BLOCK_ROWS = 16384


def _blocks(n: int):
    """The slices of `n` records, `_BLOCK_ROWS` at a time, in record order."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _dataset_header(n_modes: int) -> str:
    return "index" + "".join(f",theta{m + 1},x{m + 1}" for m in range(n_modes))


def _trace_header(n_modes: int) -> str:
    theta_cols = [f"theta{m + 1}_center" for m in range(n_modes)]
    return ",".join(["bin_center_index", *theta_cols, "variance", "count"])


def _write_csv(path, header: str, row_format: str, columns: list[np.ndarray]) -> None:
    """Write `header`, then one `row_format` line per row of `columns`."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for rows in _blocks(len(columns[0])):
            block = np.column_stack([c[rows] for c in columns])
            text = (row_format * len(block)) % tuple(block.ravel().tolist())
            fh.write(text.encode("ascii"))


def _read_lines(path) -> list[str]:
    """The lines of an ASCII file, numbered as `str.splitlines` numbers them."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        raise DataFormatError(f"non-ASCII byte 0x{raw[exc.start]:02x}", line=line) from None


def _read_csv(path, kind: str, row_name: str, header_of, has_index: bool) -> tuple[list[str], np.ndarray]:
    """Read a `kind` CSV whose header is `header_of(n_modes)` for 1 or 2 modes.

    Returns the file's lines and the values: one row per non-blank line
    after the header, the index field, if `has_index`, left out unparsed.
    """
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"empty {kind} file", line=1)
    header = lines[0].strip()
    if header not in map(header_of, (1, 2)):
        raise DataFormatError(f"unrecognized {kind} header {header!r}", line=1)
    n_fields = header.count(",") + 1
    body = list(filter(str.strip, lines[1:]))
    if set(map(str.count, body, repeat(","))) - {n_fields - 1}:
        _raise_first_bad_line(lines, n_fields, has_index)
    if not body:
        raise DataFormatError(f"{kind} has no {row_name}", line=2)
    data = np.empty((len(body), n_fields - 1 if has_index else n_fields))
    for rows in _blocks(len(body)):
        fields = ",".join(body[rows]).split(",")
        if has_index:
            del fields[::n_fields]
        try:
            values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
        except ValueError:
            _raise_first_bad_line(lines, n_fields, has_index)
        data[rows] = values.reshape(-1, data.shape[1])
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        _raise_at_row(lines, int(np.argmin(finite)), "values must be finite")
    return lines, data


def _raise_first_bad_line(lines: list[str], n_fields: int, has_index: bool) -> NoReturn:
    """Raise DataFormatError for the first line after the header with a
    wrong field count or an unparsable value.  Called only when a bulk
    check has failed, so some line is bad."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise DataFormatError(f"expected {n_fields} fields, got {len(parts)}", line=lineno)
        try:
            list(map(float, parts[1:] if has_index else parts))
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
    raise RuntimeError("bulk CSV check failed on no line")


def _raise_at_row(lines: list[str], row: int, message: str) -> NoReturn:
    """Raise DataFormatError naming the line of data row `row`, counting the
    non-blank lines after the header."""
    data_lines = [lineno for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    raise DataFormatError(message, line=data_lines[row])


def _positive_integers(values) -> np.ndarray:
    """Elementwise: is the value an integer in [1, 2**53]?"""
    values = np.asarray(values, dtype=float)
    return (values >= 1) & (values <= 2.0**53) & (np.floor(values) == values)


@dataclass(frozen=True, eq=False)
class QuadratureDataset:
    """Homodyne records: per sample, the LO phases and measured quadratures,
    as read-only (n_samples, n_modes) arrays with each mode's column
    contiguous."""

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        thetas = np.asfortranarray(np.atleast_2d(np.asarray(self.thetas, dtype=float)))
        xs = np.asfortranarray(np.atleast_2d(np.asarray(self.xs, dtype=float)))
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
        columns = [np.arange(self.n_samples)]
        for m in range(self.n_modes):
            columns += [self.thetas[:, m], self.xs[:, m]]
        _write_csv(path, _dataset_header(self.n_modes), "%d" + ",%.17g,%.17g" * self.n_modes + "\n", columns)

    @classmethod
    def from_csv(cls, path) -> "QuadratureDataset":
        _, data = _read_csv(path, "dataset", "records", _dataset_header, has_index=True)
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
        if not (len(bci) == tc.shape[0] == len(var) == len(self.count)):
            raise ValueError("trace columns must have equal length")
        if not all(np.all(np.isfinite(arr)) for arr in (bci, tc, var)):
            raise ValueError("trace columns must be finite")
        if np.any(var < 0):
            raise ValueError("variances must be non-negative")
        if not _positive_integers(self.count).all():
            raise ValueError("counts must be positive integers")
        cnt = np.asarray(self.count, dtype=int)
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
        columns = [self.bin_center_index, *self.theta_centers.T, self.variance, self.count]
        _write_csv(path, _trace_header(self.n_modes), "%.17g" + ",%.17g" * self.n_modes + ",%.17g,%d\n", columns)

    @classmethod
    def from_csv(cls, path) -> "VarianceTrace":
        lines, data = _read_csv(path, "trace", "bins", _trace_header, has_index=False)
        n_modes = data.shape[1] - 3
        whole = _positive_integers(data[:, -1])
        if not whole.all():
            row = int(np.argmin(whole))
            _raise_at_row(lines, row, f"count must be a positive integer, got {float(data[row, -1])!r}")
        return cls(
            bin_center_index=data[:, 0],
            theta_centers=data[:, 1 : 1 + n_modes],
            variance=data[:, 1 + n_modes],
            count=data[:, 2 + n_modes],
        )


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    from scipy.special import ndtri  # imported here: ~0.2 s that commands sampling nothing skip

    u = rng.random(shape)
    # rng.random() can return exactly 0, where the inverse CDF diverges
    u[u == 0.0] = 0.5 ** 54
    return ndtri(u, out=u)


def sample(state: GaussianState, config: SweepConfig) -> QuadratureDataset:
    """Draw homodyne records of the rotated quadratures under a phase sweep.

    For each record the vector (X_{1,theta1}[, X_{2,theta2}]) is drawn from
    the zero-mean Gaussian whose covariance is induced by the state and the
    scheduled phases, via a closed-form Cholesky factor per record.  The
    records are drawn `_BLOCK_ROWS` at a time, the normals record by record,
    (z_1[, z_2]) each, and every other array is one contiguous column per
    mode.  A held phase's cos/sin are taken once, from its first record.
    """
    if state.n_modes != config.n_modes:
        raise ValueError(
            f"state has {state.n_modes} mode(s) but config schedules {config.n_modes}"
        )
    if state.n_modes > 2:
        raise ValueError("sampling supports 1 or 2 modes")
    thetas = config.thetas()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x = np.empty((state.n_modes, config.n_samples))
    cov = state.cov

    def cos_sin(m: int, rows: slice):
        phases = thetas[:1, m] if config.phases[m].rate == 0.0 else thetas[rows, m]
        return np.cos(phases), np.sin(phases)

    for rows in _blocks(config.n_samples):
        z = _standard_normals(rng, (rows.stop - rows.start, state.n_modes))
        c1, s1 = cos_sin(0, rows)
        l11 = np.sqrt(c1**2 * cov[0, 0] + 2 * c1 * s1 * cov[0, 1] + s1**2 * cov[1, 1])
        np.multiply(l11, z[:, 0], out=x[0, rows])
        if state.n_modes == 2:
            c2, s2 = cos_sin(1, rows)
            s22 = c2**2 * cov[2, 2] + 2 * c2 * s2 * cov[2, 3] + s2**2 * cov[3, 3]
            s12 = c1 * c2 * cov[0, 2] + c1 * s2 * cov[0, 3] + s1 * c2 * cov[1, 2] + s1 * s2 * cov[1, 3]
            l21 = s12 / l11
            l22 = np.sqrt(np.clip(s22 - l21**2, 0.0, None))
            np.multiply(l21, z[:, 0], out=x[1, rows])
            x[1, rows] += l22 * z[:, 1]
    return QuadratureDataset(thetas, x.T)


def binned_variance(data: QuadratureDataset, window: int, target: str) -> VarianceTrace:
    """Unbiased per-bin sample variance of a quadrature combination.

    `target` selects mode1, mode2, or the sum/difference (x1 +/- x2)/sqrt(2).
    Records are grouped into consecutive bins of `window` samples; a trailing
    remainder shorter than the window is dropped.  Values and variances are
    formed over groups of whole bins of about `_BLOCK_ROWS` records each.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
    if target != "mode1" and data.n_modes < 2:
        raise ValueError(f"target {target!r} needs a 2-mode dataset")
    n_bins = data.n_samples // window
    if n_bins < 1:
        raise ValueError("window larger than the dataset")
    xs = data.xs
    variance = np.empty(n_bins)
    group = max(1, _BLOCK_ROWS // window)
    for first in range(0, n_bins, group):
        last = min(first + group, n_bins)
        rows = slice(first * window, last * window)
        if target == "mode1":
            values = xs[rows, 0]
        elif target == "mode2":
            values = xs[rows, 1]
        elif target == "sum":
            values = xs[rows, 0] + xs[rows, 1]
            values /= math.sqrt(2.0)
        else:
            values = xs[rows, 0] - xs[rows, 1]
            values /= math.sqrt(2.0)
        values.reshape(last - first, window).var(axis=1, ddof=1, out=variance[first:last])
    idx = np.arange(n_bins) * float(window) + (window - 1) / 2
    used = n_bins * window
    theta_centers = data.thetas.T[:, :used].reshape(data.n_modes, n_bins, window).mean(axis=2)
    counts = np.full(n_bins, window, dtype=int)
    return VarianceTrace(idx, theta_centers.T, variance, counts)
