"""The host-speed scale undoes a slowdown of the host and nothing else.

    python3 -m pytest bench/test_hostspeed.py
"""

import hostspeed
import pytest


def probes(durations, start=0.0, step=0.05):
    return [(start + i * step, d) for i, d in enumerate(durations)]


def test_factor_follows_the_probes_nearest_in_time():
    ref = hostspeed.REFERENCE_S
    # the host runs at reference speed for 2 s, then at half speed
    scale = hostspeed.Scale(probes([ref] * 40 + [2.0 * ref] * 40))
    assert scale.factor(0.5) == pytest.approx(1.0)
    assert scale.factor(3.0) == pytest.approx(0.5)
    # an operation that took 20 ms in the slow phase reads as 10 ms
    assert 0.020 * scale.factor(3.0) == pytest.approx(0.010)
    assert scale.speed() == pytest.approx(2.0 / 3.0)  # median probe: 1.5 x reference


def test_one_outlying_probe_does_not_move_the_factor():
    ref = hostspeed.REFERENCE_S
    scale = hostspeed.Scale(probes([ref] * 10 + [10.0 * ref] + [ref] * 10))
    assert scale.factor(0.5) == pytest.approx(1.0)


def test_probe_reports_its_own_cpu_time():
    mid, cpu = hostspeed.probe()
    assert cpu > 0.0 and mid > 0.0
