from dataclasses import replace
import math
import re
import textwrap

import pytest
import yaml

from disastersim.acb import AcdcProfile
from disastersim.channel import ChannelParams
from disastersim.netsim import ScenarioConfig, ScenarioError
from disastersim.planner import TradeoffWeights
from disastersim.satwet import ChargingModel, SatWetParams
from disastersim.scenario import load_scenario

MINIMAL_SILENCING = """
name: unit
seed: 5
n_trials: 50
silencing:
  bs_density_per_m2: 1.0e-06
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_minimal_silencing_defaults(tmp_path):
    doc = load_scenario(write(tmp_path, MINIMAL_SILENCING))
    cfg = doc.silencing.config
    assert doc.name == "unit"
    assert cfg.master_seed == 5
    assert cfg.n_trials == 50
    assert cfg.disaster_radius == 2000.0
    assert cfg.active_ring_width == 600.0
    assert cfg.channel.sinr_threshold == pytest.approx(0.1)
    assert cfg.channel.noise_power == 0.0
    assert [p.kind for p in doc.silencing.policies] == ["none", "complete"]


def test_overrides(tmp_path):
    doc = load_scenario(write(tmp_path, MINIMAL_SILENCING), seed_override=99, trials_override=7)
    assert doc.silencing.config.master_seed == 99
    assert doc.silencing.config.n_trials == 7


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_named(tmp_path, seed):
    text = MINIMAL_SILENCING.replace("seed: 5", f"seed: {seed}")
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert err.value.field == "seed"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, MINIMAL_SILENCING), seed_override=seed)
    assert err.value.field == "seed"


def test_largest_seed_accepted(tmp_path):
    text = MINIMAL_SILENCING.replace("seed: 5", f"seed: {2**64 - 1}")
    assert load_scenario(write(tmp_path, text)).silencing.config.master_seed == 2**64 - 1
    doc = load_scenario(write(tmp_path, MINIMAL_SILENCING), seed_override=2**64 - 1)
    assert doc.seed == 2**64 - 1


def test_policy_parsing(tmp_path):
    doc = load_scenario(
        write(
            tmp_path,
            """
            silencing:
              bs_density_per_m2: 1.0e-06
              policies: [none, {partial: 0.35}, spectrum_split, complete]
            """,
        )
    )
    kinds = [(p.kind, p.silencing_power_factor) for p in doc.silencing.policies]
    assert kinds == [("none", 1.0), ("partial", 0.35), ("spectrum_split", 1.0), ("complete", 0.0)]


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, MINIMAL_SILENCING + "  bs_dencity_per_m2: 1.0\n"))
    assert "bs_dencity_per_m2" in str(err.value)


def test_missing_required_density(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, "silencing: {bs_survival_prob: 0.5}"))
    assert err.value.field == "silencing.bs_density_per_m2"


def test_geometry_invariant_violation_names_field(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                silencing:
                  bs_density_per_m2: 1.0e-06
                  silencing_radius_m: 2100.0
                """,
            )
        )
    assert err.value.field == "silencing_radius"


def test_aerial_tier_parsing(tmp_path):
    doc = load_scenario(
        write(
            tmp_path,
            """
            silencing:
              bs_density_per_m2: 1.0e-06
              aerial: {density_per_m2: 5.0e-07, altitude_m: 500.0, tx_power_w: 2.0}
            """,
        )
    )
    aerial = doc.silencing.config.aerial
    assert aerial is not None
    assert (aerial.density, aerial.altitude, aerial.tx_power) == (5e-7, 500.0, 2.0)


def test_aerial_tier_missing_key_named(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                silencing:
                  bs_density_per_m2: 1.0e-06
                  aerial: {density_per_m2: 5.0e-07, altitude_m: 500.0}
                """,
            )
        )
    assert err.value.field == "silencing.aerial.tx_power_w"


def test_noise_dbm_converts_to_watts(tmp_path):
    doc = load_scenario(
        write(
            tmp_path,
            """
            silencing:
              bs_density_per_m2: 1.0e-06
              channel: {noise_dbm: -90.0}
            """,
        )
    )
    assert doc.silencing.config.channel.noise_power == pytest.approx(1e-12)


def test_sweep_grid_parsing_and_bounds(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                silencing:
                  bs_density_per_m2: 1.0e-06
                  sweep:
                    rho_values: [0.0, 1.0]
                    silencing_radii_m: [2000.0]
                """,
            )
        )
    assert "silencing_radii_m[0]" in err.value.field


def test_satwet_section(tmp_path):
    doc = load_scenario(
        write(
            tmp_path,
            """
            satwet:
              heights_m: [200000.0]
              payload_bits: [400.0]
              mode: pass-average
              rf_to_dc_efficiency: 0.5
            """,
        )
    )
    assert doc.satwet.mode == "pass-average"
    assert doc.satwet.params.rf_to_dc_efficiency == 0.5
    assert doc.satwet.heights == (200e3,)


def test_unsigned_exponent_literal_is_rejected_not_coerced(tmp_path):
    # YAML 1.1 reads 200.0e3 (no exponent sign) as a string; the schema must
    # name the field instead of silently mis-parsing it.
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                satwet:
                  heights_m: [200.0e3]
                  payload_bits: [400.0]
                """,
            )
        )
    assert err.value.field == "satwet.heights_m[0]"


def test_satwet_rejects_bad_mode(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                satwet:
                  heights_m: [200000.0]
                  payload_bits: [400.0]
                  mode: hover
                """,
            )
        )
    assert err.value.field == "satwet.mode"


def test_acb_section(tmp_path):
    doc = load_scenario(
        write(
            tmp_path,
            """
            acb:
              capacity_per_s: 10.0
              horizon_s: 60.0
              monotone: true
              classes:
                - {name: a, acdc_category: 1, arrival_rate_per_s: 5.0, admit_prob: 1.0}
                - {name: b, acdc_category: 2, arrival_rate_per_s: 5.0, admit_prob: 0.5}
            """,
        )
    )
    assert doc.acb.capacity == 10.0
    assert doc.acb.profile.classes[1].admit_prob == 0.5


def test_acb_monotone_violation(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(
            write(
                tmp_path,
                """
                acb:
                  capacity_per_s: 10.0
                  monotone: true
                  classes:
                    - {name: a, acdc_category: 1, arrival_rate_per_s: 5.0, admit_prob: 0.2}
                    - {name: b, acdc_category: 2, arrival_rate_per_s: 5.0, admit_prob: 0.9}
                """,
            )
        )
    assert err.value.field == "acb.classes"


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, ""))


def test_unparsable_yaml_raises_yaml_error_with_mark(tmp_path):
    path = write(tmp_path, "silencing: [unclosed\n  nonsense: {")
    with pytest.raises(yaml.YAMLError):
        load_scenario(path)


def test_wrong_type_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, "silencing: {bs_density_per_m2: dense}"))
    assert err.value.field == "silencing.bs_density_per_m2"


def test_reference_scenarios_validate():
    fig5 = load_scenario("scenarios/paper_fig5.yaml")
    assert fig5.silencing is not None
    assert fig5.silencing.config.n_trials == 100_000
    assert fig5.silencing.sweep is not None
    fig4 = load_scenario("scenarios/paper_fig4.yaml")
    assert fig4.satwet is not None
    acb = load_scenario("scenarios/acb_example.yaml")
    assert acb.acb is not None


# ---------------------------------------------------------------------------
# what a run would reject is rejected at load, naming the field
# ---------------------------------------------------------------------------

# The largest mean NumPy's Poisson sampler accepts, 2^63 - 1 - 10 sqrt(2^63 - 1).
POISSON_MEAN_MAX = "9.223372006484771e+18"
ONE_CLASS = "[{name: a, acdc_category: 1, arrival_rate_per_s: 1.0, admit_prob: 1.0}]"


@pytest.mark.parametrize(
    "text,field",
    [
        # at the ring edge the silencing annulus is empty
        pytest.param(
            "silencing: {bs_density_per_m2: 1.0e-06, silencing_radius_m: 2600.0}",
            "silencing_radius",
            id="ring-edge-radius",
        ),
        pytest.param(
            "silencing: {bs_density_per_m2: 1.0e-06, sweep: {rho_values: [0.0], silencing_radii_m: [2600.0, 9000.0]}}",
            "silencing.sweep.silencing_radii_m[0]",
            id="ring-edge-sweep-radius",
        ),
        pytest.param(
            "silencing: {bs_density_per_m2: 1.0e-06, sweep: {rho_values: [0.0], silencing_radii_m: [9000.0, 25000.0]}}",
            "silencing.sweep.silencing_radii_m[1]",
            id="sweep-radius-beyond-sim-radius",
        ),
        pytest.param(
            "silencing: {bs_density_per_m2: 1.0e-06, policies: [none, {partial: 1.5}]}",
            "silencing.policies[1].partial",
            id="rho-above-one",
        ),
        pytest.param(
            "silencing: {bs_density_per_m2: 1.0e-06, policies: [{partial: high}]}",
            "silencing.policies[0].partial",
            id="rho-not-a-number",
        ),
        pytest.param(
            "satwet: {heights_m: [200000.0, -5.0], payload_bits: [400.0]}", "satwet.heights_m[1]", id="second-height"
        ),
        pytest.param("satwet: {heights_m: [-5.0], payload_bits: [400.0]}", "satwet.heights_m[0]", id="first-height"),
        pytest.param(
            "satwet: {heights_m: [200000.0], payload_bits: [400.0, -1.0]}",
            "satwet.payload_bits[1]",
            id="second-payload",
        ),
        pytest.param(
            "satwet: {heights_m: [200000.0], payload_bits: [400.0], rf_to_dc_efficiency: 1.5}",
            "satwet",
            id="satwet-link-field",
        ),
        pytest.param(
            "acb: {capacity_per_s: 10.0, classes: [{name: a, acdc_category: 1, arrival_rate_per_s: 1.0e+300, admit_prob: 1.0}]}",
            "acb.classes[0].arrival_rate_per_s",
            id="acb-arrivals-overflow",
        ),
        pytest.param(
            "acb: {capacity_per_s: 10.0, horizon_s: 2.0, classes: [{name: a, acdc_category: 1, "
            f"arrival_rate_per_s: {POISSON_MEAN_MAX}, admit_prob: 1.0}}]}}",
            "acb.classes[0].arrival_rate_per_s",
            id="acb-arrivals-twice-the-poisson-bound",
        ),
        pytest.param(f"acb: {{capacity_per_s: 10.0, monotone: 1, classes: {ONE_CLASS}}}", "acb.monotone", id="monotone-not-bool"),
        pytest.param(f"acb: {{capacity_per_s: 0.0, classes: {ONE_CLASS}}}", "acb.capacity_per_s", id="zero-capacity"),
    ],
)
def test_load_rejects_what_a_run_would_reject(tmp_path, text, field):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert err.value.field == field


# ---------------------------------------------------------------------------
# defaults: the models declare them, the loader and the docs agree
# ---------------------------------------------------------------------------

ALL_SECTIONS_MINIMAL = """
silencing:
  bs_density_per_m2: 1.0e-06
  sweep: {rho_values: [0.0, 1.0], silencing_radii_m: [6000.0]}
satwet:
  heights_m: [300000.0]
  payload_bits: [800.0]
acb:
  capacity_per_s: 10.0
  classes:
    - {name: a, acdc_category: 1, arrival_rate_per_s: 1.0, admit_prob: 1.0}
"""


def test_minimal_scenario_loads_the_model_defaults(tmp_path):
    doc = load_scenario(write(tmp_path, ALL_SECTIONS_MINIMAL))
    cfg = doc.silencing.config
    assert cfg.channel == ChannelParams()
    assert cfg == replace(ScenarioConfig(), master_seed=cfg.master_seed, n_trials=cfg.n_trials, bs_density=1e-6)
    assert doc.silencing.sweep.weights == TradeoffWeights()
    assert doc.satwet.params == replace(SatWetParams(), altitude=300e3)
    assert doc.satwet.model == replace(ChargingModel(), payload_bits=800.0)
    assert doc.acb.profile == AcdcProfile(doc.acb.profile.classes)


def documented_defaults(path="docs/scenario_schema.md") -> dict[str, str]:
    """Key -> default cell of every schema table row whose default is a number."""
    out = {}
    for line in open(path, encoding="utf-8"):
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0].startswith("`"):
            number = re.match(r"-?\d[\d.]*(e[+-]\d+)?", cells[2])
            if number:
                out[cells[0].strip("`")] = number.group()
    return out


def significant_digits(printed: str) -> int:
    return len(printed.lstrip("-").split("e")[0].replace(".", "").lstrip("0")) or 1


def test_documented_defaults_match_the_loaded_ones(tmp_path):
    doc = load_scenario(write(tmp_path, ALL_SECTIONS_MINIMAL))
    cfg, ch, sw = doc.silencing.config, doc.silencing.config.channel, doc.satwet
    loaded = {
        "seed": doc.seed,
        "n_trials": doc.n_trials,
        "disaster_radius_m": cfg.disaster_radius,
        "active_ring_width_m": cfg.active_ring_width,
        "silencing_radius_m": cfg.silencing_radius,
        "sim_radius_m": cfg.sim_radius,
        "bs_survival_prob": cfg.bs_survival_prob,
        "device_tx_power_w": cfg.device_tx_power,
        "bs_tx_power_w": cfg.bs_tx_power,
        "path_loss_exponent": ch.path_loss_exponent,
        "reference_gain_at_1m": ch.reference_gain_at_1m,
        "sinr_threshold_db": 10.0 * math.log10(ch.sinr_threshold),
        "min_distance_m": ch.min_distance,
        "frequency_hz": sw.params.frequency,
        "sat_tx_power_w": sw.params.sat_tx_power,
        "sat_tx_gain": sw.params.sat_tx_gain,
        "ground_rx_gain": sw.params.ground_rx_gain,
        "rf_to_dc_efficiency": sw.params.rf_to_dc_efficiency,
        "min_elevation_deg": sw.params.min_elevation,
        "energy_per_bit_j": sw.model.energy_per_bit,
        "horizon_s": doc.acb.horizon,
    }
    documented = documented_defaults()
    assert set(documented) == set(loaded)
    for key, printed in documented.items():
        assert f"{loaded[key]:.{significant_digits(printed)}g}" == f"{float(printed):.{significant_digits(printed)}g}", key
