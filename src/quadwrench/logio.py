"""Time-series log container and its on-disk CSV/JSON schema.

One row per simulation step.  Column groups:

* ``time_s``
* truth state, 19 columns: quaternion (q0..q3), body rates, position,
  velocity, external torque, external force
* pose measurement, 7 columns (NaN on steps without a sample)
* per estimator: 19 mean-state columns plus 18 covariance-diagonal columns in
  minimal coordinates (MRP, rates, position, velocity, torque, force); the
  observer logs zeros for the diagonal

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
from dataclasses import dataclass, field

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


def write_csv(path, header: str, groups) -> None:
    """Write the non-empty ``header`` and the rows of the 2-D column ``groups``, side by side.

    The bytes are those of ``np.savetxt(path, np.hstack(groups), fmt="%.10g",
    delimiter=",", header=header, comments="")``, stacked and formatted
    ``CSV_BLOCK_ROWS`` rows at a time, so no whole-log matrix is built.
    """
    n_rows = len(groups[0])
    row_fmt = ",".join(["%.10g"] * sum(g.shape[1] for g in groups)) + "\n"
    block_fmt = row_fmt * CSV_BLOCK_ROWS
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = np.hstack([g[start:start + CSV_BLOCK_ROWS] for g in groups])
            fmt = block_fmt if len(block) == CSV_BLOCK_ROWS else row_fmt * len(block)
            fh.write(fmt % tuple(block.ravel().tolist()))


@dataclass
class DwellSegment:
    """One grid-survey dwell window at a commanded cell position."""

    x: float
    y: float
    t_start: float
    t_end: float


@dataclass
class TimeSeriesLog:
    time: np.ndarray                      # (N,)
    truth: np.ndarray                     # (N, 19)
    meas: np.ndarray                      # (N, 7), NaN when no sample
    estimates: dict[str, np.ndarray]      # name -> (N, 19)
    cov_diags: dict[str, np.ndarray]      # name -> (N, 18)
    segments: list[DwellSegment] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.time)

    def estimator_names(self) -> list[str]:
        return list(self.estimates.keys())

    def column_names(self) -> list[str]:
        return log_columns(self.estimates)

    def _column_groups(self) -> list[np.ndarray]:
        groups = [self.time[:, None], self.truth, self.meas]
        for est in self.estimates:
            groups += [self.estimates[est], self.cov_diags[est]]
        return groups

    def to_matrix(self) -> np.ndarray:
        return np.hstack(self._column_groups())

    def to_csv(self, path) -> None:
        meta = dict(self.meta)
        meta["segments"] = [[s.x, s.y, s.t_start, s.t_end] for s in self.segments]
        header = (
            f"# {SCHEMA_VERSION}\n"
            f"# meta: {json.dumps(meta, sort_keys=True)}\n"
            + ",".join(self.column_names())
        )
        write_csv(path, header, self._column_groups())

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
            if names != log_columns(estimators) or len(set(estimators)) < len(estimators):
                raise ValueError(f"columns do not follow the {SCHEMA_VERSION} layout")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(names):
            raise ValueError(f"rows have {data.shape[1]} values for {len(names)} columns")

        # column slices of the one matrix, not copies
        n_state = len(STATE_FIELDS)
        starts = {est: _MEAS_COLS.stop + i * _EST_WIDTH for i, est in enumerate(estimators)}
        segments = [DwellSegment(*row) for row in meta.pop("segments", [])]
        return cls(
            time=data[:, 0],
            truth=data[:, _TRUTH_COLS],
            meas=data[:, _MEAS_COLS],
            estimates={est: data[:, i:i + n_state] for est, i in starts.items()},
            cov_diags={est: data[:, i + n_state:i + _EST_WIDTH] for est, i in starts.items()},
            segments=segments,
            meta=meta,
        )
