"""The probe-scaled timer pairs each repetition with the probes around it."""

import pytest

from probe import HostProbe, ScaledTimer, StealMeter


def test_host_probe_reads_both_cores_and_stops_its_helper():
    with HostProbe() as host:
        readings = [host.read(), host.read()]
        helper = host._helper
    assert all(0.0 < reading < 5.0 for reading in readings)
    assert host.readings == readings
    assert helper.poll() is not None


def test_each_wall_is_rescaled_by_its_steal_and_bracketing_probes():
    readings = iter([0.010, 0.030, 0.010, 0.020])
    timer = ScaledTimer(probe_ref_s=0.010, read=lambda: next(readings))
    timer.start()
    for wall in (1.0, 2.0, 3.0):
        timer.add(wall)
    assert timer.bracket() == pytest.approx([0.020, 0.020, 0.015])
    timer.steals = [0.0, 0.5, 0.0]       # half of the second one was stolen
    assert timer.scaled() == pytest.approx([0.5, 0.5, 2.0])
    assert timer.median() == pytest.approx(0.5)


def test_steal_meter_reports_a_share():
    meter = StealMeter()
    assert 0.0 <= meter.lap() <= 1.0
