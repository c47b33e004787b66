"""Log file contract: the writer's bytes and the reader's header check.

The oracle of the writer is ``np.savetxt`` with ``fmt="%.10g"``: the log file
must be byte for byte what it writes for the log's matrix and header.
"""

import json
import tracemalloc

import numpy as np
import pytest

from quadwrench.logio import CSV_BLOCK_ROWS, SCHEMA_VERSION, TimeSeriesLog
from quadwrench.simulator import Hover, RunSetup, Scenario, SteppedMass, run_scenario


def savetxt_bytes(path, matrix, header) -> bytes:
    np.savetxt(path, matrix, fmt="%.10g", delimiter=",", header=header, comments="")
    return path.read_bytes()


def log_header(log) -> str:
    meta = {**log.meta, "segments": [[s.x, s.y, s.t_start, s.t_end] for s in log.segments]}
    return f"# {SCHEMA_VERSION}\n# meta: {json.dumps(meta, sort_keys=True)}\n" + ",".join(log.column_names())


def head(log, n) -> TimeSeriesLog:
    """The first ``n`` rows of ``log``, as a copy."""
    return TimeSeriesLog(log.to_matrix()[:n].copy(), log.estimator_names(), list(log.segments), dict(log.meta))


def run(estimators):
    # a 50 Hz sensor on the 200 Hz loop leaves three NaN measurement rows in four
    steps = CSV_BLOCK_ROWS + 1
    scen = Scenario(duration_s=steps * 0.005, seed=4, sensor_rate_hz=50.0, trajectory=Hover(),
                    disturbance=SteppedMass(onset_s=0.2))
    log = run_scenario(scen, RunSetup(estimators=estimators))
    assert len(log) == steps
    return log


@pytest.fixture(scope="module")
def full_log():
    log = run(("usque", "observer"))
    # values whose printing differs from the common case
    log.truth[0, :6] = [-0.0, 1e300, -1e300, 1e-300, -1e-300, np.inf]
    log.estimates["usque"][1, :3] = [-np.inf, -0.0, 5e-324]
    return log


ROW_COUNTS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]


class TestWriteContract:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_bytes_equal_savetxt(self, full_log, rows, tmp_path):
        log = head(full_log, rows)
        assert np.isnan(log.meas).any(axis=1).sum() == len(log) - len(log) // 4
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == savetxt_bytes(tmp_path / "oracle.csv", log.to_matrix(), log_header(log))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_log_without_estimators(self, rows, tmp_path):
        log = head(run(()), rows)
        assert log.to_matrix().shape[1] == 27
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == savetxt_bytes(tmp_path / "oracle.csv", log.to_matrix(), log_header(log))

    def test_writer_builds_no_whole_log_matrix(self, tmp_path):
        # the stepped-mass benchmark's log: 4000 rows, two estimators, 101 columns
        log = TimeSeriesLog(np.random.default_rng(0).standard_normal((4000, 101)), ["usque", "observer"])
        tracemalloc.start()
        try:
            log.to_csv(tmp_path / "log.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < log.to_matrix().nbytes


class TestReadContract:
    @pytest.fixture
    def written(self, full_log, tmp_path):
        path = tmp_path / "log.csv"
        full_log.to_csv(path)
        return full_log, path

    def rewrite(self, path, names, matrix):
        """The file at ``path`` with its column line and rows replaced."""
        lines = path.read_text().split("\n", 2)
        np.savetxt(path, matrix, fmt="%.10g", delimiter=",", comments="",
                   header="\n".join(lines[:2] + [",".join(names)]))
        return path

    def test_round_trip_is_the_log_at_10_digits(self, written, tmp_path):
        log, path = written
        back = TimeSeriesLog.from_csv(path)
        assert back.column_names() == log.column_names()
        expected = np.char.mod("%.10g", log.to_matrix()).astype(float)
        assert np.array_equal(back.to_matrix(), expected, equal_nan=True)
        assert back.meta == json.loads(json.dumps(log.meta))
        again = tmp_path / "again.csv"
        back.to_csv(again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("source", ["csv", "run"])
    def test_blocks_are_views_of_one_matrix(self, written, source):
        log = TimeSeriesLog.from_csv(written[1]) if source == "csv" else written[0]
        base = log.time.base
        assert base is not None
        blocks = [log.truth, log.meas, *log.estimates.values(), *log.cov_diags.values()]
        assert all(block.base is base for block in blocks)
        assert np.shares_memory(log.to_matrix(), log.time)

    @pytest.mark.parametrize(
        "edit", ["reordered", "missing", "extra", "missing_estimator_column", "repeated_estimator"])
    def test_other_layouts_rejected(self, written, edit):
        log, path = written
        names, matrix = log.column_names(), log.to_matrix()
        order = list(range(len(names)))
        if edit == "reordered":
            order[1], order[2] = order[2], order[1]
        elif edit == "missing":
            del order[5]
        elif edit == "missing_estimator_column":
            del order[-1]
        names = [names[i] for i in order]
        matrix = matrix[:, order]
        if edit == "extra":
            names.append("extra")
            matrix = np.hstack([matrix, matrix[:, :1]])
        elif edit == "repeated_estimator":
            names = names[:-37] + [n.replace("observer", "usque") for n in names[-37:]]
        self.rewrite(path, names, matrix)
        with pytest.raises(ValueError, match="layout"):
            TimeSeriesLog.from_csv(path)

    def test_rows_wider_than_the_header_rejected(self, written):
        log, path = written
        matrix = log.to_matrix()
        self.rewrite(path, log.column_names(), np.hstack([matrix, matrix[:, :1]]))
        with pytest.raises(ValueError, match="columns"):
            TimeSeriesLog.from_csv(path)

    def test_wrong_schema_line_rejected(self, written):
        path = written[1]
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "quadwrench-timeseries v0", 1))
        with pytest.raises(ValueError, match="schema"):
            TimeSeriesLog.from_csv(path)
