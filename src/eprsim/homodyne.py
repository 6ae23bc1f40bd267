"""Synthetic homodyne sampling and binned variance traces.

Sampling is deterministic: a PCG64 stream seeded from SweepConfig.seed feeds
an inverse-CDF normal transform, `_ndtri`, a numpy port of Cephes ndtri
(exactly one uniform per normal draw, no rejection), so a given seed always
reproduces the same dataset bytes.  The transform's tail values take numpy's
`log`, so their last bits follow numpy's build, not the C library's.

Per-record arrays are mode-major: a dataset's `thetas` and `xs` keep their
(n_samples, n_modes) shape, but each mode's column is contiguous (Fortran
order) however the arrays were built, so per-mode arithmetic runs over
contiguous memory.  Only the normals are drawn record by record,
(z_1[, z_2]) per record, which fixes the PCG64 stream order.  A trace's
theta centres are numpy's pairwise mean of each mode's windows.

Sampling and binning walk the records in blocks through `_blocks`: `sample`
fills its preallocated output `_BLOCK_ROWS // n_modes` records a step, one
block of `_BLOCK_ROWS` normals drawn and transformed in one call each (the
uniforms drawn block by block are the stream of one draw), and
`binned_variance` forms values and variances over blocks of whole bins,
`_BLOCK_ROWS` rounded down to a multiple of the window (one bin if the
window is longer).  Every expression keeps its operation order, so the
bytes are those of one whole-array pass, and peak memory is the output plus
a few blocks of temporaries.

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


# records per block: binned (rounded down to whole bins, at least one),
# formatted per write, parsed per step, summed into the second-moment Grams
# (tomography._second_moment_ranks), turned into MaxLik features
# (tomography._mode_features) and run through each MaxLik pass
# (tomography._ProjectorFeatures); sampling draws this many normals a step
_BLOCK_ROWS = 16384


def _blocks(n: int, rows: int = _BLOCK_ROWS):
    """The slices of `n` records, `rows` at a time, in record order."""
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


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


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only view of `values` as a `dtype` array: the caller's own array,
    if it needs no conversion, is shared, not copied, and stays writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


def _mode_columns(values) -> np.ndarray:
    """`values` as a read-only float (n_samples, n_modes) view with each mode's
    column contiguous; a 1-D array is one mode's column."""
    columns = np.asarray(values, dtype=float)
    if columns.ndim == 1:
        columns = columns[:, np.newaxis]
    if columns.ndim != 2:
        raise ValueError(f"mode columns must be an (n_samples, n_modes) array, got shape {columns.shape}")
    return _frozen(np.asfortranarray(columns))


@dataclass(frozen=True, eq=False)
class QuadratureDataset:
    """Homodyne records: per sample, the LO phases and measured quadratures,
    as read-only (n_samples, n_modes) arrays with each mode's column
    contiguous; a 1-D array is one mode's column."""

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        thetas, xs = _mode_columns(self.thetas), _mode_columns(self.xs)
        if thetas.shape != xs.shape:
            raise ValueError("thetas and xs must have matching shapes")
        if thetas.shape[1] not in (1, 2):
            raise ValueError("datasets hold 1 or 2 modes")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(xs))):
            raise ValueError("phases and quadrature values must be finite")
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
        for name in ("bin_center_index", "variance", "count"):
            shape = np.shape(getattr(self, name))
            if len(shape) != 1:
                raise ValueError(f"trace column {name} must be 1-D, got shape {shape}")
        bci = _frozen(self.bin_center_index)
        tc = _mode_columns(self.theta_centers)
        var = _frozen(self.variance)
        if not (len(bci) == tc.shape[0] == len(var) == len(self.count)):
            raise ValueError("trace columns must have equal length")
        if tc.shape[1] not in (1, 2):
            raise ValueError("traces hold 1 or 2 theta columns")
        if not all(np.all(np.isfinite(arr)) for arr in (bci, tc, var)):
            raise ValueError("trace columns must be finite")
        if np.any(var < 0):
            raise ValueError("variances must be non-negative")
        if not _positive_integers(self.count).all():
            raise ValueError("counts must be positive integers")
        object.__setattr__(self, "bin_center_index", bci)
        object.__setattr__(self, "theta_centers", tc)
        object.__setattr__(self, "variance", var)
        object.__setattr__(self, "count", _frozen(self.count, int))

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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): a rational function of (y - 1/2)**2 on the central
# branch exp(-2) < y <= 1 - exp(-2), and of 1/x, x = sqrt(-2 ln y), on the
# tails (P1/Q1 below x = 8, P2/Q2 from 8 up); the Q are monic, their
# leading 1 left out
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x * P(x) / Q(x) for monic Q, each polynomial by Horner's rule from its
    highest power, in Cephes' operation order (polevl, p1evl)."""
    num = x * p[0]
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each `y` in (0, 1), an array of any
    shape: Cephes ndtri, branch by branch and in its operation order.

    The central branch gives the bits of the C code.  It is evaluated for
    every value (Q0 has no root for (y - 1/2)**2 < 1/4) and the tails are
    overwritten.  The tails take numpy's `log`, whose last bit can differ
    from the C library's, so a tail value can differ from the C code's by a
    few ULP.
    """
    c = y - 0.5
    x = _rational(c * c, _P0, _Q0)
    x *= c
    x += c
    x *= _SQRT_2PI
    tails = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    t = y.take(tails)
    np.minimum(t, 1.0 - t, out=t)  # y on the lower tail, Cephes' 1 - y on the upper
    np.log(t, out=t)
    t *= -2.0
    np.sqrt(t, out=t)
    z = 1.0 / t
    x0 = np.log(t)
    x0 /= t
    np.subtract(t, x0, out=x0)
    x1 = _rational(z, _P1, _Q1)
    far = t >= 8.0
    if far.any():  # y < exp(-32): about one draw in 10**14, so gather only then
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 -= x1
    x.put(tails, np.copysign(x0, c.take(tails)))  # Cephes negates the lower tail
    return x


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # rng.random() can return exactly 0, where the inverse CDF diverges
    u[u == 0.0] = 0.5 ** 54
    return _ndtri(u)


def sample(state: GaussianState, config: SweepConfig) -> QuadratureDataset:
    """Draw homodyne records of the rotated quadratures under a phase sweep.

    For each record the vector (X_{1,theta1}[, X_{2,theta2}]) is drawn from
    the zero-mean Gaussian whose covariance is induced by the state and the
    scheduled phases, via a closed-form Cholesky factor per record.  Each
    step draws `_BLOCK_ROWS // n_modes` records, one block of normals,
    (z_1[, z_2]) per record; every other array is one contiguous column per
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

    for rows in _blocks(config.n_samples, _BLOCK_ROWS // state.n_modes):
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
    remainder shorter than the window is dropped.  One `_blocks` walk forms
    the values and variances a block of whole bins at a time, `_BLOCK_ROWS`
    records rounded down to whole bins (at least one bin per block).
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
    combine = {"sum": np.add, "difference": np.subtract}.get(target)
    variance = np.empty(n_bins)
    for rows in _blocks(n_bins * window, window * max(1, _BLOCK_ROWS // window)):
        if combine is None:
            values = xs[rows, _TARGETS.index(target)]  # mode1 or mode2: column 0 or 1
        else:
            values = combine(xs[rows, 0], xs[rows, 1])
            values /= math.sqrt(2.0)
        values.reshape(-1, window).var(axis=1, ddof=1, out=variance[rows.start // window : rows.stop // window])
    idx = np.arange(n_bins) * float(window) + (window - 1) / 2
    used = n_bins * window
    theta_centers = data.thetas.T[:, :used].reshape(data.n_modes, n_bins, window).mean(axis=2)
    counts = np.full(n_bins, window, dtype=int)
    return VarianceTrace(idx, theta_centers.T, variance, counts)
