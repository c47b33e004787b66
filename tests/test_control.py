"""Post-processing tests: wrench map, RMSE metrics, rise time, admittance law.

The synthetic log gives every column its own value range (column j holds
``1000 j`` plus a per-row term), so reading a wrong column shows up as an
offset of a multiple of 1000.
"""

import numpy as np
import pytest

from quadwrench.control import (
    AdmittanceConfig,
    EmptyCell,
    NoStepDetected,
    admittance_command,
    build_wrench_map,
    log_metrics,
    rise_time_10_90,
)
from quadwrench.logio import COV_FIELDS, MEAS_FIELDS, STATE_FIELDS, DwellSegment, TimeSeriesLog

DT = 0.01
N = 1000  # 10 s of samples
# state record layout: q (0:4), omega (4:7), pos (7:10), vel (10:13),
# tau_e (13:16), f_e (16:19)
TAU_COLS = [13, 14, 15]
F_COLS = [16, 17, 18]


def synthetic_log(truth=None, est=None, segments=()):
    time = DT * np.arange(1, N + 1)
    rows = np.arange(N)[:, None]
    cols = np.arange(len(STATE_FIELDS))[None, :]
    distinct = 1000.0 * cols + 0.01 * rows
    return TimeSeriesLog(
        time=time,
        truth=distinct if truth is None else truth,
        meas=np.full((N, len(MEAS_FIELDS)), np.nan),
        estimates={"usque": distinct.copy() if est is None else est},
        cov_diags={"usque": np.zeros((N, len(COV_FIELDS)))},
        segments=list(segments),
    )


def test_record_layout_matches_state_fields():
    assert [STATE_FIELDS[i] for i in TAU_COLS] == ["tau_e_x", "tau_e_y", "tau_e_z"]
    assert [STATE_FIELDS[i] for i in F_COLS] == ["f_e_x", "f_e_y", "f_e_z"]


class TestWrenchMap:
    SEGMENTS = (DwellSegment(x=0.5, y=-0.5, t_start=1.0, t_end=4.0),
                DwellSegment(x=1.0, y=0.5, t_start=5.0, t_end=9.0))

    def test_cells_read_the_force_and_torque_columns(self):
        log = synthetic_log(segments=self.SEGMENTS)
        cells = build_wrench_map(log, "usque", settle_s=1.5)
        assert len(cells) == 2
        for cell, seg in zip(cells, self.SEGMENTS):
            mask = (log.time >= seg.t_start + 1.5) & (log.time <= seg.t_end)
            rows = np.nonzero(mask)[0]
            row_term = 0.01 * rows.mean()
            assert (cell.x, cell.y) == (seg.x, seg.y)
            assert cell.count == len(rows)
            np.testing.assert_allclose(cell.mean_f, 1000.0 * np.array(F_COLS) + row_term, rtol=1e-12)
            np.testing.assert_allclose(cell.mean_tau, 1000.0 * np.array(TAU_COLS) + row_term, rtol=1e-12)
            row_std = 0.01 * rows.std(ddof=1)
            np.testing.assert_allclose(cell.std_f, row_std, rtol=1e-9)
            np.testing.assert_allclose(cell.std_tau, row_std, rtol=1e-9)

    def test_settle_cut_longer_than_dwell_raises(self):
        log = synthetic_log(segments=self.SEGMENTS)
        with pytest.raises(EmptyCell):
            build_wrench_map(log, "usque", settle_s=3.5)

    def test_log_without_segments_rejected(self):
        with pytest.raises(ValueError):
            build_wrench_map(synthetic_log(), "usque")


class TestLogMetrics:
    def error_log(self):
        # estimate = truth + an error that is large on every non-wrench column
        # and, on the wrench columns, (1, 2, 2) N / (0, 0.03, 0.04) N m from
        # t >= 5 s and twice that before
        truth = synthetic_log().truth
        err = np.full_like(truth, 50.0)
        late = np.arange(N) >= 499  # time = DT * (row + 1)
        for cols, value in ((F_COLS, [1.0, 2.0, 2.0]), (TAU_COLS, [0.0, 0.03, 0.04])):
            err[np.ix_(late, cols)] = value
            err[np.ix_(~late, cols)] = 2.0 * np.array(value)
        return synthetic_log(truth=truth, est=truth + err)

    def test_rmse_from_cut_matches_hand_computation(self):
        out = log_metrics(self.error_log(), "usque", rmse_from_s=5.0)
        assert out["force_rmse"] == pytest.approx(3.0, rel=1e-9)
        assert out["torque_rmse"] == pytest.approx(0.05, rel=1e-9)
        assert out["channels"]["f_e_y"]["rmse"] == pytest.approx(2.0, rel=1e-9)
        assert out["channels"]["tau_e_x"]["rmse"] == pytest.approx(0.0, abs=1e-9)

    def test_rmse_over_whole_log_matches_hand_computation(self):
        # 499 early rows at twice the error, 501 late rows at the error
        scale = np.sqrt((499 * 4.0 + 501 * 1.0) / N)
        out = log_metrics(self.error_log(), "usque")
        assert out["force_rmse"] == pytest.approx(3.0 * scale, rel=1e-9)
        assert out["torque_rmse"] == pytest.approx(0.05 * scale, rel=1e-9)


class TestRiseTime:
    @staticmethod
    def ramp(sign=1.0):
        # flat until row 200, linear to the final value at row 400
        k = np.arange(N)
        return DT * k, sign * np.clip((k - 200) / 200, 0.0, 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ramp(self, sign):
        # 10 % is reached at row 220, 90 % at row 380
        time, signal = self.ramp(sign)
        assert rise_time_10_90(time, signal) == pytest.approx(1.6, abs=1e-12)

    def test_flat_signal_has_no_step(self):
        with pytest.raises(NoStepDetected):
            rise_time_10_90(DT * np.arange(N), np.full(N, 0.3))


class TestAdmittance:
    CFG = AdmittanceConfig(gain=8.0, limit=0.3, deadband=0.002)

    def test_odd(self):
        for tau in np.linspace(0.0, 0.1, 41):
            assert admittance_command(-tau, self.CFG) == -admittance_command(tau, self.CFG)

    def test_deadband(self):
        for tau in (0.0, 0.001, 0.002, -0.002):
            assert admittance_command(tau, self.CFG) == 0.0
        assert admittance_command(0.012, self.CFG) == pytest.approx(8.0 * 0.01, rel=1e-12)

    def test_clamped_at_limit(self):
        for tau in (0.05, 1.0, 1e6):
            assert admittance_command(tau, self.CFG) == 0.3
            assert admittance_command(-tau, self.CFG) == -0.3
