"""Dataset ingestion, splitting, client partitioning, task splitting,
Gaussian augmentation, minibatching, and a synthetic-data generator.

CSV schema: header-named columns, UTF-8, comma separated. Feature columns
are prefixed ``f_`` (exactly 29, one of which must be ``f_within_circle``,
the 0/1 circle-vs-arrow context flag, stored at feature index 0). Label
columns carry the 8 canonical ``label_*`` names and hold values on the
1-5 Likert scale.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

N_FEATURES = 29
N_LABELS = 8

CIRCLE_FLAG_COLUMN = "f_within_circle"

LABEL_COLUMNS = [
    "label_vacuuming",
    "label_mopping",
    "label_carry_warm_food",
    "label_carry_cold_food",
    "label_carry_big_objects",
    "label_carry_small_objects",
    "label_carry_drinks",
    "label_clean_or_converse",
]

DEFAULT_FEATURE_COLUMNS = [CIRCLE_FLAG_COLUMN] + [f"f_feat{i:02d}" for i in range(1, N_FEATURES)]


class DataError(ValueError):
    """Raised on malformed input data."""


@dataclass
class Dataset:
    """A fixed-order collection of scene samples.

    features: (n, 29) float64, column 0 is the circle/arrow flag.
    labels:   (n, 8) float64 in [1, 5].
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] = field(default_factory=lambda: list(DEFAULT_FEATURE_COLUMNS))

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise DataError(f"features must have shape (n, {N_FEATURES}), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0], N_LABELS):
            raise DataError(f"labels must have shape (n, {N_LABELS}), got {self.labels.shape}")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], list(self.feature_names))


def concat(a: Dataset, b: Dataset) -> Dataset:
    return Dataset(np.concatenate([a.features, b.features]),
                   np.concatenate([a.labels, b.labels]), list(a.feature_names))


@dataclass
class ClientPartition:
    client_id: int
    shard: Dataset


@dataclass
class TaskSplit:
    task1: Dataset  # circle (flag == 1)
    task2: Dataset  # arrow (flag == 0)


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

def load_csv(path: str) -> Dataset:
    """Parse a dataset CSV by header name; row order is preserved.

    A cell is a decimal or scientific-notation float64 literal as Python's
    ``float()`` reads it (``1``, ``-0.5``, ``2.5e-3``, ``nan``, ``inf``),
    optionally in double quotes and surrounded by whitespace, and parses
    to the same bits. Two forms that ``float()`` accepts are refused:
    underscores between digits (``1_0``) and non-ASCII digits. ``#`` starts
    no comment. Labels must lie in [1, 5]; NaN does not.

    The body is streamed through one ``np.loadtxt`` pass. Only when that
    fails does a second, validating pass walk the rows to report the first
    bad one by its row number (the header is row 1).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first_line = fh.readline()
            if not first_line:
                raise DataError(f"{path}: empty file")
            header = next(csv.reader([first_line]))
            ordered_features = _check_header(path, header)
            lines = 0

            def counted_lines():
                nonlocal lines
                for line in fh:
                    lines += 1
                    yield line

            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a header-only file
                    table = np.loadtxt(counted_lines(), dtype=np.float64, delimiter=",",
                                       comments=None, quotechar='"', ndmin=2)
                failure = None
            except ValueError as exc:
                table, failure = None, exc
        if failure is not None or table.shape != (lines, len(header)):
            # a blank line, a ragged row or a bad cell: name its row
            _check_rows(path, header, ordered_features)
            # no bad row: a cell float() reads but loadtxt refuses, or else
            # a quoted line break (one row over two lines) or no row at all
            if failure is not None:
                raise DataError(f"{path}: {failure}") from None
            table = table.reshape(-1, len(header))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None

    # take, unlike table[:, index], returns C-ordered arrays
    features = table.take([header.index(c) for c in ordered_features], axis=1)
    labels = table.take([header.index(c) for c in LABEL_COLUMNS], axis=1)
    outside = ~((labels >= 1.0) & (labels <= 5.0))
    if outside.any():
        i, j = divmod(int(np.argmax(outside)), N_LABELS)
        raise DataError(f"{path}: row {i + 2}, column {LABEL_COLUMNS[j]!r}: "
                        f"label {labels[i, j]} outside [1, 5]")
    return Dataset(features, labels, ordered_features)


def _check_header(path: str, header: list[str]) -> list[str]:
    """Validate the header; returns the feature columns in dataset order."""
    duplicates = sorted({c for c in header if header.count(c) > 1})
    if duplicates:
        raise DataError(f"{path}: duplicate columns {duplicates}")
    feature_cols = [c for c in header if c.startswith("f_")]
    label_cols = [c for c in header if c.startswith("label_")]
    unknown = [c for c in header if c not in feature_cols and c not in label_cols]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    for c in LABEL_COLUMNS:
        if c not in label_cols:
            raise DataError(f"{path}: missing label column {c!r}")
    if len(label_cols) != N_LABELS:
        extra = sorted(set(label_cols) - set(LABEL_COLUMNS))
        raise DataError(f"{path}: unexpected label columns {extra}")
    if CIRCLE_FLAG_COLUMN not in feature_cols:
        raise DataError(f"{path}: missing feature column {CIRCLE_FLAG_COLUMN!r}")
    if len(feature_cols) != N_FEATURES:
        raise DataError(f"{path}: expected {N_FEATURES} feature columns, found {len(feature_cols)}")
    # flag column goes to feature index 0; the rest keep file order
    return [CIRCLE_FLAG_COLUMN] + [c for c in feature_cols if c != CIRCLE_FLAG_COLUMN]


def _check_rows(path: str, header: list[str], ordered_features: list[str]) -> None:
    """Walk the body row by row and raise a ``DataError`` for the first bad
    row: a wrong cell count, a cell ``float()`` cannot read, or a label
    outside [1, 5], checked in that order, cells in dataset order. Builds
    no arrays."""
    columns = ([(c, header.index(c), False) for c in ordered_features]
               + [(c, header.index(c), True) for c in LABEL_COLUMNS])
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for number, row in enumerate(reader, 2):  # the header is row 1
            if len(row) != len(header):
                raise DataError(f"{path}: row {number} has {len(row)} cells, expected {len(header)}")
            for c, k, is_label in columns:
                try:
                    value = float(row[k])
                except ValueError:
                    raise DataError(f"{path}: row {number}, column {c!r}: "
                                    f"non-numeric value {row[k]!r}") from None
                if is_label and not 1.0 <= value <= 5.0:
                    raise DataError(f"{path}: row {number}, column {c!r}: label {value} outside [1, 5]")


def save_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in the same schema load_csv reads."""
    header = list(ds.feature_names) + LABEL_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(ds)):
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + [repr(float(v)) for v in ds.labels[i]])


# ---------------------------------------------------------------------------
# Splitting / partitioning
# ---------------------------------------------------------------------------

def train_test_split(ds: Dataset, ratio: float = 0.75, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle, then split at floor(ratio * n)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n = len(ds)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    perm = np.random.default_rng([seed, 1]).permutation(n)
    cut = int(np.floor(ratio * n))
    return ds.subset(perm[:cut]), ds.subset(perm[cut:])


def partition_clients(train: Dataset, n_clients: int, seed: int = 0) -> list[ClientPartition]:
    """Seeded shuffle, then contiguous near-equal shards (remainder spread
    one-per-client starting at client 0). The shards are consecutive row
    views of one shuffled copy of ``train``."""
    n = len(train)
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if n_clients > n:
        raise DataError(f"cannot partition {n} samples into {n_clients} clients")
    shuffled = train.subset(np.random.default_rng([seed, 2]).permutation(n))
    base, rem = divmod(n, n_clients)
    parts = []
    pos = 0
    for cid in range(n_clients):
        size = base + (1 if cid < rem else 0)
        rows = slice(pos, pos + size)
        parts.append(ClientPartition(cid, Dataset(shuffled.features[rows], shuffled.labels[rows],
                                                  list(train.feature_names))))
        pos += size
    return parts


def split_tasks(ds: Dataset) -> TaskSplit:
    """Split by the circle/arrow flag: flag 1 -> task1 (circle), 0 -> task2."""
    flag = ds.features[:, 0]
    bad = ~np.isin(flag, (0.0, 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"sample {i}: circle/arrow flag must be 0 or 1, got {flag[i]}")
    return TaskSplit(task1=ds.subset(flag == 1.0), task2=ds.subset(flag == 0.0))


def augment(ds: Dataset, sigma: float = 0.01, seed: int = 0) -> Dataset:
    """Return the originals plus one Gaussian-perturbed copy of each sample.

    Noise is i.i.d. N(0, sigma) per feature; labels are left untouched.
    """
    if not 0.0 <= sigma < math.inf:  # NaN included
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if len(ds) == 0:
        raise DataError("cannot augment an empty dataset")
    rng = np.random.default_rng([seed, 3])
    noisy = ds.features + rng.normal(0.0, sigma, size=ds.features.shape) if sigma > 0 else ds.features.copy()
    return Dataset(
        np.concatenate([ds.features, noisy]),
        np.concatenate([ds.labels, ds.labels]),
        list(ds.feature_names),
    )


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def synthetic_generate(n: int, seed: int = 0, noise_std: float = 0.1,
                       flag_value: float | None = None,
                       coeffs: tuple[np.ndarray, np.ndarray] | None = None):
    """Generate n samples from a seeded random affine map 29 -> 8.

    Features are U(0, 1) except the binary context flag at index 0 (a fair
    coin unless flag_value pins it). Labels are clip(A x + b + eps, 1, 5).
    Returns (Dataset, (A, b)) so tests can compute the Bayes-optimal error.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= noise_std < math.inf:  # NaN included
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng([seed, 4])
    features = rng.uniform(0.0, 1.0, size=(n, N_FEATURES))
    if flag_value is None:
        features[:, 0] = rng.integers(0, 2, size=n).astype(np.float64)
    else:
        if flag_value not in (0.0, 1.0):
            raise ValueError("flag_value must be 0 or 1")
        features[:, 0] = flag_value
    if coeffs is None:
        a = rng.uniform(-0.1, 0.1, size=(N_LABELS, N_FEATURES))
        b = 3.0 + rng.uniform(-0.2, 0.2, size=N_LABELS)
    else:
        a, b = coeffs
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
    noise = rng.normal(0.0, noise_std, size=(n, N_LABELS)) if noise_std > 0 else 0.0
    labels = np.clip(features @ a.T + b + noise, 1.0, 5.0)
    return Dataset(features, labels), (a, b)


def synthetic_two_task(n_per_task: int, seed: int = 0, noise_std: float = 0.1):
    """A two-context dataset with a deliberate shift between the circle map
    and the arrow map, used by the continual-learning benchmark."""
    circle, map1 = synthetic_generate(n_per_task, seed=seed, noise_std=noise_std, flag_value=1.0)
    arrow, map2 = synthetic_generate(n_per_task, seed=seed + 1, noise_std=noise_std, flag_value=0.0)
    ds = concat(circle, arrow)
    perm = np.random.default_rng([seed, 5]).permutation(len(ds))
    return ds.subset(perm), (map1, map2)


# ---------------------------------------------------------------------------
# Minibatching
# ---------------------------------------------------------------------------

def minibatch_indices(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Row indices of each per-(seed, epoch) shuffled minibatch of an n-row
    dataset; a trailing batch of size 1 is dropped (train-mode BatchNorm
    needs at least 2 samples)."""
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    if batch_size > n:
        raise DataError(f"batch_size {batch_size} exceeds dataset size {n}")
    perm = np.random.default_rng([seed, 6, epoch]).permutation(n)
    batches = []
    for pos in range(0, n, batch_size):
        idx = perm[pos:pos + batch_size]
        if len(idx) == 1:
            break
        batches.append(idx)
    return batches


def minibatches(ds: Dataset, batch_size: int, seed: int, epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (features, labels) rows of each batch of ``minibatch_indices``."""
    return [(ds.features[idx], ds.labels[idx])
            for idx in minibatch_indices(len(ds), batch_size, seed, epoch)]
