"""Time-series log container and its on-disk CSV/JSON schema.

One row per simulation step.  Column groups:

* ``time_s``
* truth state, the 19-entry ``VehicleState.vector`` record: quaternion
  (q0..q3), body rates, position, velocity, external torque, external force
* pose measurement, the 7-entry ``PoseMeasurement.vector`` record (NaN on
  steps without a sample)
* per estimator: 19 mean-state columns (a state record) plus 18
  covariance-diagonal columns in minimal coordinates (MRP, rates, position,
  velocity, torque, force); the observer logs zeros for the diagonal

In memory a log is one ``(N, len(log_columns(estimators)))`` matrix in this
file layout; its blocks (time, truth, measurements, each estimator's mean and
covariance diagonal) are column views of it, so writing a block writes the
matrix.

File contract: the first line is a schema version comment, the second carries
run metadata (and dwell segments) as JSON so post-processing tools can work
from the CSV alone, and the third names the columns in the fixed layout above.
Every value is printed with ``%.10g``, comma separated, one row per line: the
bytes ``np.savetxt(path, log.to_matrix(), fmt="%.10g", delimiter=",",
header=..., comments="")`` writes.  The reader checks the header against the
layout for the estimator names it finds and raises ``ValueError`` on any
other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCHEMA_VERSION", "STATE_FIELDS", "COV_FIELDS", "MEAS_FIELDS", "CSV_BLOCK_ROWS",
    "log_columns", "write_csv", "DwellSegment", "TimeSeriesLog",
]

SCHEMA_VERSION = "quadwrench-timeseries v1"

STATE_FIELDS = (
    ["q0", "q1", "q2", "q3"]
    + [f"w{a}" for a in "xyz"]
    + [f"pos_{a}" for a in "xyz"]
    + [f"vel_{a}" for a in "xyz"]
    + [f"tau_e_{a}" for a in "xyz"]
    + [f"f_e_{a}" for a in "xyz"]
)
COV_FIELDS = [
    f"var_{name}_{a}"
    for name in ("rho", "w", "pos", "vel", "tau_e", "f_e")
    for a in "xyz"
]
MEAS_FIELDS = [f"meas_pos_{a}" for a in "xyz"] + [f"meas_q{i}" for i in range(4)]

_TRUTH_COLS = slice(1, 1 + len(STATE_FIELDS))
_MEAS_COLS = slice(_TRUTH_COLS.stop, _TRUTH_COLS.stop + len(MEAS_FIELDS))
_EST_WIDTH = len(STATE_FIELDS) + len(COV_FIELDS)

CSV_BLOCK_ROWS = 256   # rows printed by one string formatting operation


def log_columns(estimators) -> list[str]:
    """Column names of a log carrying ``estimators``, in file order."""
    names = ["time_s"] + [f"truth_{f}" for f in STATE_FIELDS] + MEAS_FIELDS
    for est in estimators:
        names += [f"{est}_{f}" for f in STATE_FIELDS]
        names += [f"{est}_{f}" for f in COV_FIELDS]
    return names


def write_csv(path, header: str, matrix: np.ndarray) -> None:
    """Write the non-empty ``header`` and the rows of the 2-D ``matrix``.

    The bytes are those of ``np.savetxt(path, matrix, fmt="%.10g",
    delimiter=",", header=header, comments="")``, formatted ``CSV_BLOCK_ROWS``
    rows at a time, so no string or value list of the whole matrix is built.
    """
    row_fmt = ",".join(["%.10g"] * matrix.shape[1]) + "\n"
    block_fmt = row_fmt * CSV_BLOCK_ROWS
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(matrix), CSV_BLOCK_ROWS):
            block = matrix[start:start + CSV_BLOCK_ROWS]
            fmt = block_fmt if len(block) == CSV_BLOCK_ROWS else row_fmt * len(block)
            fh.write(fmt % tuple(block.ravel().tolist()))


@dataclass
class DwellSegment:
    """One grid-survey dwell window at a commanded cell position."""

    x: float
    y: float
    t_start: float
    t_end: float


class TimeSeriesLog:
    """One run's per-step log: an ``(N, len(log_columns(estimators)))`` matrix
    in the file layout, whose blocks are column views set at construction:
    ``time`` ``(N,)``, ``truth`` ``(N, 19)``, ``meas`` ``(N, 7)`` and, per
    estimator name, ``estimates`` ``(N, 19)`` and ``cov_diags`` ``(N, 18)``.
    Another width or a repeated estimator name raises ``ValueError``.
    """

    def __init__(self, data: np.ndarray, estimators, segments=(), meta: dict | None = None):
        estimators = list(estimators)
        width = len(log_columns(estimators))
        if len(set(estimators)) < len(estimators) or np.ndim(data) != 2 or np.shape(data)[1] != width:
            raise ValueError(f"a {np.shape(data)} matrix is not the {SCHEMA_VERSION} layout of {width} "
                             f"columns for the estimators {estimators}, each named once")
        self._data = data
        self.time = data[:, 0]
        self.truth = data[:, _TRUTH_COLS]
        self.meas = data[:, _MEAS_COLS]
        n_state = len(STATE_FIELDS)
        starts = {est: _MEAS_COLS.stop + i * _EST_WIDTH for i, est in enumerate(estimators)}
        self.estimates = {est: data[:, i:i + n_state] for est, i in starts.items()}
        self.cov_diags = {est: data[:, i + n_state:i + _EST_WIDTH] for est, i in starts.items()}
        self.segments = list(segments)
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return len(self._data)

    def estimator_names(self) -> list[str]:
        return list(self.estimates.keys())

    def column_names(self) -> list[str]:
        return log_columns(self.estimates)

    def to_matrix(self) -> np.ndarray:
        """The log's own matrix, not a copy: writing to it writes the log."""
        return self._data

    def to_csv(self, path) -> None:
        meta = dict(self.meta)
        meta["segments"] = [[s.x, s.y, s.t_start, s.t_end] for s in self.segments]
        header = (
            f"# {SCHEMA_VERSION}\n"
            f"# meta: {json.dumps(meta, sort_keys=True)}\n"
            + ",".join(self.column_names())
        )
        write_csv(path, header, self._data)

    @classmethod
    def from_csv(cls, path) -> "TimeSeriesLog":
        with open(path) as fh:
            version = fh.readline().strip()
            if version != f"# {SCHEMA_VERSION}":
                raise ValueError(f"unsupported log schema: {version!r}")
            meta_line = fh.readline().strip()
            if not meta_line.startswith("# meta: "):
                raise ValueError("missing metadata line")
            meta = json.loads(meta_line[len("# meta: "):])
            names = fh.readline().strip().split(",")
            # every estimator block starts with its q0 column
            estimators = [name.removesuffix("_q0") for name in names[_MEAS_COLS.stop::_EST_WIDTH]]
            if names != log_columns(estimators):
                raise ValueError(f"columns do not follow the {SCHEMA_VERSION} layout")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        segments = [DwellSegment(*row) for row in meta.pop("segments", [])]
        return cls(data, estimators, segments, meta)
