import textwrap

import pytest
import yaml

from disastersim.netsim import ScenarioError
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
