import math

import numpy as np
import pytest

from conftest import disaster_station, snapshot_from_stations
from disastersim.channel import (
    SPEED_OF_LIGHT,
    ChannelParams,
    _clamped_path_gain,
    db_to_linear,
    dbm_to_watts,
    friis_gain,
    path_gain,
)
from disastersim.netsim import Band, ScenarioConfig, downlink_sinr


def test_unity_is_zero_db():
    assert db_to_linear(0.0) == 1.0
    assert dbm_to_watts(0.0) == 1e-3


def test_minus_ten_db_is_one_tenth():
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)


def test_fifty_dbm_is_hundred_watts():
    assert dbm_to_watts(50.0) == pytest.approx(100.0, rel=1e-12)


def test_db_round_trip_forty_orders():
    # Independent inverse: 10 log10 of the linear value recovers the dB value.
    for x_db in np.linspace(-200.0, 200.0, 81):
        assert abs(10.0 * math.log10(db_to_linear(x_db)) - x_db) <= 1e-12 * max(1.0, abs(x_db))
        assert dbm_to_watts(x_db) == pytest.approx(1e-3 * db_to_linear(x_db), rel=1e-12)


def test_path_gain_reference_distance():
    assert path_gain(1.0, ChannelParams()) == 1.0


def test_path_gain_inverse_fourth():
    assert path_gain(2.0, ChannelParams(path_loss_exponent=4.0)) == pytest.approx(0.0625, rel=1e-12)


def test_path_gain_alpha_3_5():
    # 100^-3.5 = 1e-7
    p = ChannelParams(path_loss_exponent=3.5)
    assert path_gain(100.0, p) == pytest.approx(1.0e-7, rel=1e-12)


def test_path_gain_scales_with_reference_gain():
    p = ChannelParams(reference_gain_at_1m=2.5)
    assert path_gain(2.0, p) == pytest.approx(2.5 * 0.0625, rel=1e-12)


def test_path_gain_clamps_below_min_distance():
    p = ChannelParams(min_distance=1.0)
    assert path_gain(0.01, p) == path_gain(1.0, p)


def test_path_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_gain(0.0, ChannelParams())
    with pytest.raises(ValueError):
        path_gain(np.array([1.0, -2.0]), ChannelParams())


@pytest.mark.parametrize("alpha", [3.5, 4.0])
def test_clamped_path_gain_is_path_gain_without_the_check(alpha):
    # the engine's gain: path_gain's bits on every valid distance, and at a
    # station's distance to itself (0) the gain at min_distance, not an error
    p = ChannelParams(path_loss_exponent=alpha, min_distance=2.0)
    d = np.concatenate([[2.0], np.random.default_rng(1).uniform(2.0, 30000.0, 2000)])
    assert _clamped_path_gain(d, p).tolist() == path_gain(d, p).tolist()
    assert [float(_clamped_path_gain(x, p)) for x in d.tolist()] == path_gain(d, p).tolist()
    assert _clamped_path_gain(0.0, p) == path_gain(2.0, p)
    assert _clamped_path_gain(np.zeros(3), p).tolist() == [path_gain(2.0, p)] * 3


def test_path_gain_strictly_decreasing():
    p = ChannelParams()
    d = np.linspace(1.0, 5000.0, 200)
    g = path_gain(d, p)
    assert np.all(np.diff(g) < 0.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0])
def test_scalar_path_gain_equals_array_element_bitwise(alpha):
    # the engine takes serving-link gains from its gain arrays, while the
    # reference kernels call path_gain on one distance: both must agree to
    # the last bit, not just to rounding
    p = ChannelParams(path_loss_exponent=alpha)
    rng = np.random.default_rng(int(alpha * 10))
    d = np.concatenate([rng.uniform(0.5, 30000.0, 2000), np.geomspace(1.0, 1e5, 200)])
    g = path_gain(d, p)
    assert [path_gain(float(x), p) for x in d] == g.tolist()
    assert [path_gain(x, p) for x in d] == g.tolist()  # NumPy scalars


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_integer_alpha_path_gain_is_products_and_one_division(alpha):
    # correctly rounded operations only, so the bits cannot depend on the CPU
    p = ChannelParams(path_loss_exponent=alpha, reference_gain_at_1m=0.7, min_distance=2.0)
    rng = np.random.default_rng(int(alpha))
    d = np.concatenate([rng.uniform(0.5, 30000.0, 9000), np.geomspace(1.0, 1e5, 1000)])
    expected = [0.7 * (1.0 / (x * x * x if alpha == 3.0 else x * x * x * x)) for x in np.maximum(d, 2.0).tolist()]
    assert path_gain(d, p).tolist() == expected
    assert [path_gain(x, p) for x in d.tolist()] == expected


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(path_loss_exponent=2.0)
    with pytest.raises(ValueError):
        ChannelParams(sinr_threshold=0.0)
    with pytest.raises(ValueError):
        ChannelParams(noise_power=-1.0)
    for name in ("path_loss_exponent", "reference_gain_at_1m", "noise_power", "sinr_threshold", "min_distance"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{name: value})


def test_sinr_single_interferer_hand_case():
    # serving at d=1, interferer at d=2, alpha=4, unit power and fading: 1 / 2^-4 = 16
    net = snapshot_from_stations([disaster_station(1.0, 0.0), disaster_station(-2.0, 0.0)])
    cfg = ScenarioConfig(channel=ChannelParams(path_loss_exponent=4.0))
    sinr, serving = downlink_sinr(net, cfg, np.zeros(2), Band.DISASTER_BAND, 1.0, np.ones(2))
    assert serving == 0
    assert sinr == pytest.approx(16.0, rel=1e-12)
    assert 10.0 * math.log10(sinr) == pytest.approx(12.04, abs=0.01)


def test_sinr_interference_and_noise_free_limit():
    net = snapshot_from_stations([disaster_station(1.0, 0.0)])
    cfg = ScenarioConfig(channel=ChannelParams(noise_power=0.0))
    sinr, serving = downlink_sinr(net, cfg, np.zeros(2), Band.DISASTER_BAND, 1.0, np.ones(1))
    assert serving == 0
    assert sinr == math.inf


def test_friis_unit_gain_distance():
    f = 868e6
    wavelength = SPEED_OF_LIGHT / f
    assert friis_gain(wavelength / (4.0 * math.pi), f) == pytest.approx(1.0, rel=1e-12)


def test_friis_868mhz_200km():
    # Independent oracle in dB form: 20 log10(4 pi d f / c)
    f, d = 868e6, 200e3
    loss_db = 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)
    gain = friis_gain(d, f)
    assert 10.0 * math.log10(gain) == pytest.approx(-loss_db, abs=1e-9)
    assert loss_db == pytest.approx(137.23, abs=0.01)
    assert gain == pytest.approx(1.889e-14, rel=1e-3)


def test_friis_inverse_square_doubling_exact():
    f = 868e6
    assert friis_gain(400e3, f) == friis_gain(200e3, f) / 4.0


def test_friis_domain_errors():
    with pytest.raises(ValueError):
        friis_gain(0.0, 868e6)
    with pytest.raises(ValueError):
        friis_gain(100.0, 0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="distance"):
            friis_gain(value, 868e6)
        with pytest.raises(ValueError, match="frequency"):
            friis_gain(100.0, value)
