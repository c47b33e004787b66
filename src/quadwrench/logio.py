"""Time-series log container and its on-disk CSV/JSON schema.

One row per simulation step.  Column groups:

* ``time_s``
* truth state, 19 columns: quaternion (q0..q3), body rates, position,
  velocity, external torque, external force
* pose measurement, 7 columns (NaN on steps without a sample)
* per estimator: 19 mean-state columns plus 18 covariance-diagonal columns in
  minimal coordinates (MRP, rates, position, velocity, torque, force); the
  observer logs zeros for the diagonal

The first line is a schema version comment, the second carries run metadata
(and dwell segments) as JSON so post-processing tools can work from the CSV
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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
        names = ["time_s"] + [f"truth_{f}" for f in STATE_FIELDS] + MEAS_FIELDS
        for est in self.estimates:
            names += [f"{est}_{f}" for f in STATE_FIELDS]
            names += [f"{est}_{f}" for f in COV_FIELDS]
        return names

    def to_matrix(self) -> np.ndarray:
        cols = [self.time[:, None], self.truth, self.meas]
        for est in self.estimates:
            cols += [self.estimates[est], self.cov_diags[est]]
        return np.hstack(cols)

    def to_csv(self, path) -> None:
        meta = dict(self.meta)
        meta["segments"] = [[s.x, s.y, s.t_start, s.t_end] for s in self.segments]
        header = (
            f"# {SCHEMA_VERSION}\n"
            f"# meta: {json.dumps(meta, sort_keys=True)}\n"
            + ",".join(self.column_names())
        )
        np.savetxt(path, self.to_matrix(), delimiter=",", header=header, comments="", fmt="%.10g")

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
            data = np.loadtxt(fh, delimiter=",", ndmin=2)

        col = {n: i for i, n in enumerate(names)}
        n_fixed = 1 + len(STATE_FIELDS) + len(MEAS_FIELDS)
        est_names: list[str] = []
        for name in names[n_fixed:]:
            prefix = name.rsplit("_q0", 1)[0]
            if name.endswith("_q0") and prefix not in est_names:
                est_names.append(prefix)

        def block(prefix, fields):
            return data[:, [col[f"{prefix}_{f}"] for f in fields]]

        segments = [DwellSegment(*row) for row in meta.pop("segments", [])]
        return cls(
            time=data[:, col["time_s"]],
            truth=block("truth", STATE_FIELDS),
            meas=data[:, [col[f] for f in MEAS_FIELDS]],
            estimates={e: block(e, STATE_FIELDS) for e in est_names},
            cov_diags={e: block(e, COV_FIELDS) for e in est_names},
            segments=segments,
            meta=meta,
        )
