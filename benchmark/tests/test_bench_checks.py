"""Each check accepts a right output and rejects a wrong one."""

import json
import math

import numpy as np
from scipy import stats

import checks
import reference as ref
from run import grade
from workloads import Failed, event_json

import resfluor

SQ2 = 2.0 ** -0.5


def _pinned_event():
    return {
        "horizon": 2.0,
        "forward": {"outside": "free", "windows": [(0.4, 1.6, 1)]},
        "side": {"outside": "zero", "windows": [(0.3, 1.2, 1)]},
    }


def test_probability_off_by_1e9_is_rejected():
    event = _pinned_event()
    m = resfluor.build_model(SQ2, SQ2, 1.0)
    program_event = resfluor.event_from_json(json.dumps(event_json(event)))
    rho = 0.5 * np.eye(2)
    p = resfluor.event_probability(m, rho, program_event)
    qe = resfluor.davies_map(m, program_event).quad_error
    p_ref = ref.event_probability(SQ2, SQ2, 1.0, rho, event)
    assert checks.probability_tolerance(qe) < 1e-9
    assert checks.check_probability("e", p, p_ref, qe) == []
    assert checks.check_probability("e", p + 1e-9, p_ref, qe)
    assert checks.check_probability("e", p - 1e-9, p_ref, qe)


def test_mean_count_moved_by_10_standard_errors_is_rejected():
    rng = np.random.default_rng(5)
    counts = rng.poisson(9.88, size=20000)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    expected = counts.mean()
    assert checks.check_mean_count("side", counts, expected) == []
    assert checks.check_mean_count("side", counts, expected + 10 * se)
    assert checks.check_mean_count("side", counts, expected - 10 * se)


def test_altered_csv_row_is_rejected():
    records = ((0.8125, "side"), (3.0000000000000004, "forward"), (7.25, "side"))
    rows = checks.trajectory_rows(17, records)
    assert rows[1] == "17,1,3.0000000000000004,forward"
    assert checks.check_resampled_rows(17, rows, records) == []
    altered = list(rows)
    altered[1] = "17,1,3.0000000000000009,forward"
    assert checks.check_resampled_rows(17, altered, records)
    assert checks.check_resampled_rows(17, rows[:-1], records)
    assert checks.check_resampled_rows(17, [r.replace("side", "forward") for r in rows], records)


def _report(n=20000):
    thr = float(stats.kstwobign.isf(0.01))
    return {
        "n_traj": n, "n_first": n, "n_later": n - 2,
        "ks_stat_first": 0.009, "ks_stat_later": 0.008, "ks_stat_third": 0.005,
        "ks_threshold_99": thr, "independence_stat": 86.0, "independence_pvalue": 0.8,
        "underpowered": False,
        "passed": {"ks_first": True, "ks_later": True, "ks_third": True, "independence": True},
    }


def test_renewal_report_checks():
    n = 20000
    assert checks.check_renewal_report(_report(), n, n, n - 2, n - 10) == []
    # a flag that disagrees with its own statistic
    bad = _report()
    bad["passed"]["ks_later"] = False
    assert checks.check_renewal_report(bad, n, n, n - 2, n - 10)
    # a statistic far outside the law (flag consistently false)
    bad = _report()
    bad["ks_stat_first"], bad["passed"]["ks_first"] = 0.05, False
    assert checks.check_renewal_report(bad, n, n, n - 2, n - 10)
    # a 1 % false alarm alone is not a fault of the program
    alarm = _report()
    alarm["ks_stat_first"], alarm["passed"]["ks_first"] = 1.7 / math.sqrt(n), False
    assert checks.check_renewal_report(alarm, n, n, n - 2, n - 10) == []
    # dropped trajectories, underpowered reports
    assert checks.check_renewal_report(_report(), n + 1, n, n - 2, n - 10)
    weak = _report()
    weak["underpowered"] = True
    assert checks.check_renewal_report(weak, n, n, n - 2, n - 10)


def test_evolve_entry_off_by_1e9_is_rejected():
    times = np.linspace(0.0, 3.0, 7)
    rho0 = 0.5 * np.eye(2)
    rho = ref.evolve_states(SQ2, SQ2, 1.0, rho0, times)
    p_vec = ref.EXCITED.reshape(4, order="F")
    heis = np.array([(ref.master_superop(SQ2, SQ2, 1.0, t) @ p_vec).reshape(2, 2, order="F")
                     for t in times])
    table = np.column_stack([
        times,
        *[f(rho.reshape(-1, 4)[:, j]) for j in range(4) for f in (np.real, np.imag)],
        *[f(heis.reshape(-1, 4)[:, j]) for j in range(4) for f in (np.real, np.imag)],
        np.real(rho[:, 0, 0]),
    ])
    assert checks.check_evolve(table, times, rho, heis) == []
    for col in (3, 12, 17):
        bad = table.copy()
        bad[4, col] += 1e-9
        assert checks.check_evolve(bad, times, rho, heis)


def test_map_and_cdf_checks():
    M = ref.master_superop(SQ2, SQ2, 1.0, 0.3)
    assert checks.check_map("m", M, M, 0.0) == []
    assert checks.check_map("m", M + 1e-9, M, checks.ROUNDOFF)
    F = ref.side_cdf_later(SQ2, SQ2, 1.0, [0.5, 1.0])
    assert checks.check_cdf("F", F, F) == []
    assert checks.check_cdf("F", F + [0, 1e-9], F)


class _Fake:
    """Two steps of one op each; the check fails op (1, 0) when told to."""

    def __init__(self, fail=False, crash=False):
        self.fail, self.crash = fail, crash

    def check(self, payloads):
        return [[[]], [["wrong"] if self.fail or self.crash else []]]

    def rounds(self, keys):
        second = Failed("boom") if self.crash else "payload"
        return [[[("a", "payload")], [(k, second)]] for k in keys]


def test_grade_counts_failures_per_round():
    assert grade(_Fake(), _Fake().rounds(["x", "x", "x"])) == (6, 0, True, [])
    # a later round that does not reproduce round 1 fails, and is wrong
    attempted, failed, correct, msgs = grade(_Fake(), _Fake().rounds(["x", "y", "x"]))
    assert (attempted, failed, correct) == (6, 1, False)
    # a wrong output fails in every round
    attempted, failed, correct, _ = grade(_Fake(fail=True), _Fake().rounds(["x"] * 3))
    assert (attempted, failed, correct) == (6, 3, False)
    # an operation that raised fails without making the outputs incorrect
    fake = _Fake(crash=True)
    attempted, failed, correct, _ = grade(fake, fake.rounds(["x"] * 3))
    assert (attempted, failed, correct) == (6, 3, True)
    # so does one that raised in a later round only
    rounds = _Fake().rounds(["x"] * 3)
    rounds[2][1] = [("boom", Failed("boom"))]
    attempted, failed, correct, msgs = grade(_Fake(), rounds)
    assert (attempted, failed, correct) == (6, 1, True)
    assert msgs == ["round 3, step 2, op 1: boom"]
