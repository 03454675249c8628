"""Dataset representation, CSV ingestion, bootstrap resampling, synthetic data.

A :class:`Dataset` is an immutable rectangular matrix of finite metric values
plus a boolean outcome vector (True = defective). Structural invariants
(shapes, finiteness, unique names) are enforced at construction; the
presence of both outcome classes is a precondition of the supervised
consumers and is checked there, because bootstrap test sets and outcome
permutation fixtures legitimately contain a single class.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataset,
    EmptyTestSet,
    InvalidOutcomeValue,
    InvalidSpec,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
)
from .seeding import RESEED_OFFSET

_TRUE_TOKENS = {"1", "defective"}
_FALSE_TOKENS = {"0", "clean"}


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` read-only and C-contiguous; a writeable ``a`` is copied, as it may be the caller's."""
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Metric matrix with named columns and a binary outcome per row."""

    metric_names: tuple[str, ...]
    rows: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        names = tuple(str(n) for n in self.metric_names)
        rows = np.asarray(self.rows, dtype=np.float64)
        outcome = np.asarray(self.outcome, dtype=bool)
        if rows.ndim != 2:
            raise EmptyDataset("metric matrix must be two-dimensional")
        n, p = rows.shape
        if p == 0 or len(names) == 0:
            raise EmptyDataset("dataset needs at least one metric")
        if n == 0:
            raise EmptyDataset("dataset needs at least one row")
        if p != len(names):
            raise EmptyDataset(
                f"row width {p} does not match {len(names)} metric names"
            )
        if outcome.shape != (n,):
            raise EmptyDataset("outcome length does not match row count")
        if len(set(names)) != len(names):
            raise EmptyDataset("duplicate metric names")
        if any(not n for n in names):
            raise EmptyDataset("empty metric name")
        if not np.all(np.isfinite(rows)):
            raise EmptyDataset("metric values must be finite")
        object.__setattr__(self, "metric_names", names)
        object.__setattr__(self, "rows", _frozen(rows))
        object.__setattr__(self, "outcome", _frozen(outcome))

    # structural equality; arrays compare by value
    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.metric_names == other.metric_names
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.outcome, other.outcome)
        )

    @property
    def n_modules(self) -> int:
        return self.rows.shape[0]

    @property
    def n_metrics(self) -> int:
        return self.rows.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.metric_names.index(name)
        except ValueError:
            raise MissingColumn(name) from None
        return self.rows[:, j]

    def columns(self, names) -> np.ndarray:
        """The rows' values of the metrics in the sequence ``names``, in order."""
        try:
            idx = [self.metric_names.index(n) for n in names]
        except ValueError:
            raise MissingColumn(next(n for n in names if n not in self.metric_names)) from None
        return self.rows[:, idx]

    def project(self, names) -> "Dataset":
        """Dataset restricted to the given metrics (given order kept)."""
        names = tuple(names)
        return Dataset(names, self.columns(names), self.outcome)

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.metric_names, self.rows[indices], self.outcome[indices])

    def has_both_classes(self) -> bool:
        return bool(self.outcome.any()) and not bool(self.outcome.all())


@dataclass(frozen=True, eq=False)
class BootstrapSplit:
    train: Dataset
    test: Dataset
    draw_indices: np.ndarray
    seed: int  # the seed the rows were drawn at

    def __post_init__(self):
        object.__setattr__(
            self, "draw_indices", _frozen(np.asarray(self.draw_indices, dtype=np.int64))
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-correlation dataset.

    Base metrics are i.i.d. standard normal; each clone group adds copies of
    one base metric plus Gaussian noise, so the clone/source Spearman
    correlation is controlled by the noise standard deviation (sd 0 means an
    exact duplicate). The outcome is Bernoulli with log-odds
    ``signal_coefficients . base_metrics``.
    """

    base_metric_count: int
    module_count: int
    signal_coefficients: tuple[float, ...]
    clone_groups: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        if self.base_metric_count < 1:
            raise InvalidSpec("base_metric_count must be >= 1")
        if self.module_count < 10:
            raise InvalidSpec("module_count must be >= 10")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        coef = tuple(float(c) for c in self.signal_coefficients)
        if len(coef) != self.base_metric_count:
            raise InvalidSpec("signal_coefficients length must equal base_metric_count")
        if not all(map(math.isfinite, coef)):
            raise InvalidSpec(f"signal_coefficients must be finite, got {list(coef)}")
        groups = tuple(
            (int(src), int(count), float(sd)) for src, count, sd in self.clone_groups
        )
        for src, count, sd in groups:
            if not 0 <= src < self.base_metric_count:
                raise InvalidSpec(f"clone source {src} out of range")
            if count < 1:
                raise InvalidSpec("clone count must be >= 1")
            if sd < 0 or not math.isfinite(sd):
                raise InvalidSpec("clone noise sd must be finite and >= 0")
        object.__setattr__(self, "signal_coefficients", coef)
        object.__setattr__(self, "clone_groups", groups)


def sigmoid(eta: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-eta)): with e = exp(-|eta|), 1 / (1 + e) or e / (1 + e)."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _read_header(reader, path, outcome_column: str):
    """Stripped header names, the outcome's position, and the metric names."""
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    if outcome_column not in header:
        raise MissingColumn(outcome_column)
    if header.count(outcome_column) > 1:
        raise EmptyDataset(f"{path}: duplicate column name {outcome_column!r}")
    out_idx = header.index(outcome_column)
    metric_names = tuple(h for i, h in enumerate(header) if i != out_idx)
    if not metric_names:
        raise EmptyDataset(f"{path}: no metric columns besides {outcome_column!r}")
    return header, out_idx, metric_names


def _outcome_value(cell: str) -> float:
    token = cell.strip().lower()
    if token in _TRUE_TOKENS:
        return 1.0
    if token in _FALSE_TOKENS:
        return 0.0
    raise ValueError(f"outcome {cell!r}")


def _short_lines(lines):
    """``lines`` unchanged, failing on one the csv module would refuse as too long."""
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit:
            raise ValueError("line longer than the csv field size limit")
        yield line


def _parse_table(lines, width: int, out_idx: int):
    """The body in one ``np.loadtxt`` call: (metric rows, outcome), or None.

    Unquoted cells that ``float()`` reads (or, in the outcome column, the
    four outcome tokens) parse to the same values here, so a table that
    comes back whole and finite is what :func:`_parse_cells` would build.
    Anything else (quotes, underscores, a bad or non-finite cell, a ragged
    or missing body) returns None, and the per-cell loop decides.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                _short_lines(lines),
                dtype=np.float64,
                delimiter=",",
                comments=None,
                ndmin=2,
                converters={out_idx: _outcome_value},
            )
    except (ValueError, Warning):
        return None
    if table.shape[1] != width:
        return None
    rows = np.delete(table, out_idx, axis=1)
    if not np.isfinite(rows).all():
        return None
    return rows, table[:, out_idx] == 1.0


def _parse_cells(fh, path, outcome_column: str) -> Dataset:
    """Parse a CSV text stream cell by cell: csv module, ``float()`` per cell.

    :func:`load_csv`'s error path, and the reference its one-call parse is
    checked against: every load error comes from here.
    """
    reader = csv.reader(fh)
    header, out_idx, metric_names = _read_header(reader, path, outcome_column)
    data_rows: list[list[float]] = []
    outcome: list[bool] = []
    for row_no, cells in enumerate(reader, start=1):
        if not cells:
            continue
        if len(cells) != len(header):
            raise MalformedCsv(f"row {row_no}: {len(cells)} cells, expected {len(header)}")
        raw_outcome = cells[out_idx].strip().lower()
        if raw_outcome in _TRUE_TOKENS:
            outcome.append(True)
        elif raw_outcome in _FALSE_TOKENS:
            outcome.append(False)
        else:
            raise InvalidOutcomeValue(row_no, cells[out_idx])
        vals = []
        for i, cell in enumerate(cells):
            if i == out_idx:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCell(row_no, header[i], cell) from None
            if not math.isfinite(v):
                raise NonNumericCell(row_no, header[i], cell)
            vals.append(v)
        data_rows.append(vals)

    if not data_rows:
        raise EmptyDataset(f"{path}: no data rows")
    return Dataset(metric_names, np.array(data_rows, dtype=np.float64), np.array(outcome))


def load_csv(path, outcome_column: str) -> Dataset:
    """Read a UTF-8 comma-delimited file with a header row into a Dataset.

    A leading byte-order mark (as spreadsheet programs write it) is skipped.

    The outcome column is removed from the metrics and mapped to booleans;
    accepted encodings are {0, 1} and {clean, defective} (case-insensitive).
    Column order is preserved from the file.

    The header is read with the csv module; the body is parsed in one
    ``np.loadtxt`` call. When that call fails, when its table is not the
    header's width or not finite, or when the header spans lines, the file
    is read again by the per-cell loop, which accepts or rejects it and
    names the row and column of the first bad cell. A file that is not
    UTF-8, or that the csv module cannot split, raises :class:`MalformedCsv`.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header, out_idx, metric_names = _read_header(reader, path, outcome_column)
            if reader.line_num == 1:
                table = _parse_table(fh, len(header), out_idx)
                if table is not None:
                    return Dataset(metric_names, *table)
            fh.seek(0)
            return _parse_cells(fh, path, outcome_column)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from None


def write_csv(d: Dataset, path, outcome_column: str) -> None:
    """Write a Dataset back to CSV; floats use shortest round-trip formatting."""
    if outcome_column in d.metric_names:
        raise MissingColumn(outcome_column)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.metric_names) + [outcome_column])
        for i in range(d.n_modules):
            writer.writerow(
                [repr(float(v)) for v in d.rows[i]] + ["1" if d.outcome[i] else "0"]
            )


def bootstrap_sample(d: Dataset, seed: int) -> BootstrapSplit:
    """Draw N rows with replacement; the never-drawn rows form the test set.

    Row identity is by source index, so duplicate-valued rows stay
    distinguishable. Same seed, same split. A draw that takes every row is
    made again at ``seed + RESEED_OFFSET`` (mod 2**64), until one leaves a
    row out; the split records the seed it was drawn at. Raises
    :class:`EmptyTestSet` for a one-row dataset, whose every draw takes it.
    """
    n = d.n_modules
    if n < 2:
        raise EmptyTestSet(f"a bootstrap sample of {n} row leaves no row out")
    while True:
        draw = np.random.default_rng(seed).integers(0, n, size=n)
        mask = np.ones(n, dtype=bool)
        mask[draw] = False
        test_idx = np.flatnonzero(mask)
        if test_idx.size:
            return BootstrapSplit(d.take(draw), d.take(test_idx), draw, seed)
        seed = (seed + RESEED_OFFSET) % (1 << 64)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically realise a :class:`SyntheticSpec`.

    Column order: base metrics ``m1..mK`` first, then clones in group order,
    named after their source (``m2_clone1`` is the first clone of ``m2``).
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.module_count, spec.base_metric_count
    base = rng.standard_normal((n, k))
    names = [f"m{i + 1}" for i in range(k)]
    cols = [base[:, i] for i in range(k)]
    clones_of = [0] * k
    for src, count, sd in spec.clone_groups:
        for _ in range(count):
            noise = rng.standard_normal(n) * sd
            cols.append(base[:, src] + noise)
            clones_of[src] += 1
            names.append(f"m{src + 1}_clone{clones_of[src]}")
    outcome = rng.random(n) < sigmoid(base @ np.asarray(spec.signal_coefficients))
    return Dataset(tuple(names), np.column_stack(cols), outcome)
