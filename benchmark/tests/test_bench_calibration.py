"""The host-speed calibration kernel does fixed work."""

import calibration


def test_kernel_is_deterministic():
    assert calibration._kernel() == calibration._kernel()


def test_calibration_time_is_positive():
    assert calibration.calibration_s() > 0
