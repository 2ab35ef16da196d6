import math

import pytest

from disastersim.channel import SPEED_OF_LIGHT
from disastersim.satwet import (
    ChargingModel,
    SatWetParams,
    charge_curve,
    charging_time,
    pass_average_power,
    zenith_harvested_power,
)

# Reference link: 868 MHz, 50 dBm transmit, 50 dB transmit gain, 0 dBi
# receive, full conversion, 200 km altitude.
REF = SatWetParams()


def closed_form_pass_average(p: SatWetParams) -> float:
    """Independent oracle: the arc average of k / d(phi)^2 in closed form.

    With a = R^2 + (R+h)^2 and b = 2R(R+h), the integral of dphi/(a - b cos
    phi) is (2 / (h (2R+h))) atan(((2R+h)/h) tan(phi/2)).
    """
    e = math.radians(p.min_elevation)
    phi_max = math.acos(p.earth_radius * math.cos(e) / (p.earth_radius + p.altitude)) - e
    wavelength = SPEED_OF_LIGHT / p.frequency
    k = (
        p.rf_to_dc_efficiency
        * p.sat_tx_power
        * p.sat_tx_gain
        * p.ground_rx_gain
        * (wavelength / (4.0 * math.pi)) ** 2
    )
    if phi_max <= 0.0:
        return k / p.altitude**2
    h, r = p.altitude, p.earth_radius
    integral = (2.0 / (h * (2.0 * r + h))) * math.atan(((2.0 * r + h) / h) * math.tan(phi_max / 2.0))
    return k * integral / phi_max


def test_zenith_power_reference_budget():
    # 100 W * 1e5 * friis(200 km, 868 MHz) = 189 nW within 0.5%
    p = zenith_harvested_power(REF)
    assert p == pytest.approx(189.1e-9, rel=5e-3)
    wavelength = SPEED_OF_LIGHT / REF.frequency
    oracle = 100.0 * 1e5 * (wavelength / (4.0 * math.pi * 200e3)) ** 2
    assert p == pytest.approx(oracle, rel=1e-12)


def test_zenith_power_efficiency_scaling():
    half = SatWetParams(rf_to_dc_efficiency=0.5)
    assert zenith_harvested_power(half) == pytest.approx(zenith_harvested_power(REF) / 2, rel=1e-12)


def test_zenith_power_inverse_square_in_altitude():
    p400 = SatWetParams(altitude=400e3)
    assert zenith_harvested_power(p400) == zenith_harvested_power(REF) / 4.0


def test_pass_average_degenerate_at_zenith_only():
    p = SatWetParams(min_elevation=90.0)
    assert pass_average_power(p) == zenith_harvested_power(p)


def test_pass_average_strictly_below_zenith():
    p = SatWetParams(min_elevation=0.0)
    avg = pass_average_power(p)
    assert 0.0 < avg < zenith_harvested_power(p)


def test_pass_average_golden_value_and_oracle():
    # Golden value frozen from the closed-form oracle at the reference link,
    # horizon-to-horizon pass: 34.148 nW.
    p = SatWetParams(min_elevation=0.0)
    avg = pass_average_power(p)
    assert avg == pytest.approx(3.4147814175588014e-08, rel=1e-12)
    assert avg == pytest.approx(closed_form_pass_average(p), rel=1e-12)


def test_pass_average_matches_oracle_at_other_elevations():
    for el in (10.0, 30.0, 60.0):
        p = SatWetParams(min_elevation=el)
        assert pass_average_power(p) == pytest.approx(closed_form_pass_average(p), rel=1e-12)


def test_pass_average_monotone_in_min_elevation():
    values = [pass_average_power(SatWetParams(min_elevation=el)) for el in (0.0, 20.0, 50.0, 80.0, 90.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reconciliation_of_3nw_operating_point():
    # A horizon-to-horizon pass with an 8.8% RF-to-DC conversion lands on
    # the 3 nW harvested-power operating point used by the charging anchors.
    p = SatWetParams(min_elevation=0.0, rf_to_dc_efficiency=0.0878534)
    assert pass_average_power(p) == pytest.approx(3e-9, rel=1e-3)


def test_charging_time_anchor_400_bits():
    # 400 bits at 45 pJ/bit from 3 nW: 6 seconds
    assert charging_time(ChargingModel(45e-12, 400.0), 3e-9) == pytest.approx(6.0, rel=1e-9)


def test_charging_time_one_kilobit_under_a_minute():
    t = charging_time(ChargingModel(45e-12, 1000.0), 3e-9)
    assert t == pytest.approx(15.0, rel=1e-9)
    assert t < 60.0


def test_charging_time_megabit_rises_to_hours():
    t = charging_time(ChargingModel(45e-12, 1e6), 3e-9)
    assert t == pytest.approx(15000.0, rel=1e-9)
    assert t / 3600.0 == pytest.approx(4.1667, rel=1e-3)


def test_charging_time_zero_payload():
    assert charging_time(ChargingModel(45e-12, 0.0), 3e-9) == 0.0


def test_charging_time_rejects_nonpositive_power():
    for power in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="harvested_power"):
            charging_time(ChargingModel(45e-12, 400.0), power)


def test_charging_model_validation():
    with pytest.raises(ValueError):
        ChargingModel(0.0, 100.0)
    with pytest.raises(ValueError):
        ChargingModel(1e-12, -1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="energy_per_bit"):
            ChargingModel(energy_per_bit=value)
        with pytest.raises(ValueError, match="payload_bits"):
            ChargingModel(payload_bits=value)


def test_charge_curve_single_cell_matches_direct_call():
    rows = charge_curve([200e3], [400.0], REF, ChargingModel(45e-12, 400.0), mode="zenith")
    assert len(rows) == 1
    row = rows[0]
    assert row.harvested_power == zenith_harvested_power(REF)
    assert row.charging_time == charging_time(ChargingModel(45e-12, 400.0), row.harvested_power)
    assert row.mode == "zenith"


def test_charge_curve_altitude_doubling_quadruples_time():
    rows = charge_curve([200e3, 400e3], [400.0], REF, ChargingModel(45e-12, 400.0), mode="zenith")
    assert rows[1].charging_time == rows[0].charging_time * 4.0


def test_charge_curve_linear_in_payload():
    rows = charge_curve([200e3], [400.0, 4000.0], REF, ChargingModel(45e-12, 400.0), mode="zenith")
    assert rows[1].charging_time / rows[0].charging_time == pytest.approx(10.0, rel=1e-12)


def test_charge_curve_cross_product_order():
    rows = charge_curve([200e3, 400e3], [100.0, 200.0, 300.0], REF, ChargingModel(45e-12, 1.0))
    assert [(r.height, r.payload_bits) for r in rows] == [
        (200e3, 100.0), (200e3, 200.0), (200e3, 300.0),
        (400e3, 100.0), (400e3, 200.0), (400e3, 300.0),
    ]


def test_charge_curve_pass_average_mode():
    rows = charge_curve([200e3], [400.0], SatWetParams(min_elevation=0.0), ChargingModel(45e-12, 1.0), mode="pass-average")
    assert rows[0].mode == "pass-average"
    assert rows[0].harvested_power == pytest.approx(3.4147814175588014e-08, rel=1e-6)


def test_charge_curve_validates_inputs():
    with pytest.raises(ValueError):
        charge_curve([], [400.0], REF, ChargingModel(45e-12, 1.0))
    with pytest.raises(ValueError):
        charge_curve([200e3], [400.0], REF, ChargingModel(45e-12, 1.0), mode="orbit")


def test_params_validation():
    with pytest.raises(ValueError):
        SatWetParams(rf_to_dc_efficiency=0.0)
    with pytest.raises(ValueError):
        SatWetParams(rf_to_dc_efficiency=1.5)
    with pytest.raises(ValueError):
        SatWetParams(altitude=0.0)
    with pytest.raises(ValueError):
        SatWetParams(min_elevation=95.0)
    for name in ("frequency", "sat_tx_power", "sat_tx_gain", "ground_rx_gain", "altitude", "earth_radius",
                 "rf_to_dc_efficiency", "min_elevation"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                SatWetParams(**{name: value})
