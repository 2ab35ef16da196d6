import argparse
import csv
import math
import os
import re
import stat
import textwrap
from pathlib import Path

import pytest
import yaml

from disastersim import cli, netsim, scenario
from disastersim.cli import emit_results, format_value, main, manifest_path

FIG5 = Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig5.yaml"

SILENCING_SCENARIO = """
name: cli-test
seed: 11
n_trials: 60
silencing:
  bs_density_per_m2: 1.0e-06
  bs_survival_prob: 0.5
  silencing_radius_m: 8000.0
  device_tx_power_w: 1.0
  bs_tx_power_w: 1.0
  policies: [none, {partial: 0.5}, complete]
  sweep:
    rho_values: [0.0, 0.5, 1.0]
    silencing_radii_m: [4000.0, 6000.0, 9000.0, 12000.0]
"""

SATWET_SCENARIO = """
name: cli-satwet
satwet:
  heights_m: [200000.0, 400000.0]
  payload_bits: [400.0, 1000.0]
  mode: zenith
"""

ACB_SCENARIO = """
name: cli-acb
seed: 3
acb:
  capacity_per_s: 10.0
  horizon_s: 120.0
  classes:
    - {name: priority, acdc_category: 1, arrival_rate_per_s: 6.0, admit_prob: 1.0}
    - {name: bulk, acdc_category: 2, arrival_rate_per_s: 30.0, admit_prob: 0.4}
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# emit_results / format
# ---------------------------------------------------------------------------

def test_format_six_significant_digits():
    assert format_value(0.123456789) == "0.123457"
    assert format_value(1.2345678e-14) == "1.23457e-14"
    assert format_value(100000) == "100000"
    assert format_value("zenith") == "zenith"


def test_emit_header_only_for_empty_rows(tmp_path):
    out = tmp_path / "empty.csv"
    emit_results([], ["a", "b"], out)
    assert out.read_bytes() == b"a,b\n"


def test_emit_single_row_and_lf_endings(tmp_path):
    out = tmp_path / "one.csv"
    emit_results([[1, 0.5, "x"]], ["n", "p", "tag"], out)
    data = out.read_bytes()
    assert data == b"n,p,tag\n1,0.5,x\n"
    assert b"\r" not in data


def test_emit_round_trip_at_six_digits(tmp_path):
    out = tmp_path / "rt.csv"
    rows = [[0.8212345678, 1.9612345e-3, 123], [1.0 / 3.0, 2.0 / 30000.0, 7]]
    emit_results(rows, ["a", "b", "c"], out)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        parsed = [(float(r["a"]), float(r["b"]), int(r["c"])) for r in reader]
    for (a, b, c), row in zip(parsed, rows):
        assert a == pytest.approx(row[0], rel=1e-5)
        assert b == pytest.approx(row[1], rel=1e-5)
        assert c == row[2]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_silencing_run_deterministic_bytes(tmp_path):
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["silencing-run", "--scenario", scenario, "--out", out1]) == 0
    assert run(["silencing-run", "--scenario", scenario, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert manifest_path(out1).read_bytes() == manifest_path(out2).read_bytes()


def test_silencing_run_rows_and_policy_identities(tmp_path):
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out = tmp_path / "run.csv"
    assert run(["silencing-run", "--scenario", scenario, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["policy"] for r in rows] == ["none", "partial", "complete"]
    # deeper suppression never hurts the disaster-area uplink (exact under CRN)
    assert float(rows[0]["p_disaster"]) <= float(rows[1]["p_disaster"]) <= float(rows[2]["p_disaster"])
    assert all(r["seed"] == "11" and r["n_trials"] == "60" for r in rows)


def test_sweep_grid_cardinality(tmp_path):
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out = tmp_path / "sweep.csv"
    assert run(["silencing-sweep", "--scenario", scenario, "--out", out, "--trials", 40]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,silencing_radius_m,p_disaster,p_disaster_ci,p_silencing,p_silencing_ci,utility,n_trials,seed"
    assert len(lines) == 1 + 3 * 4


def test_sweep_worker_count_does_not_change_bytes(tmp_path):
    # 128 trials are enough for a pool of 2 workers (at most one per 64 trials)
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert run(["silencing-sweep", "--scenario", scenario, "--out", out1, "--trials", 128, "--workers", 1]) == 0
    assert run(["silencing-sweep", "--scenario", scenario, "--out", out8, "--trials", 128, "--workers", 8]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    assert manifest_path(out1).read_bytes() == manifest_path(out8).read_bytes()


def test_seed_override_changes_data(tmp_path):
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(["silencing-run", "--scenario", scenario, "--out", out1]) == 0
    assert run(["silencing-run", "--scenario", scenario, "--out", out2, "--seed", 12]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_satwet_curve(tmp_path):
    scenario = write(tmp_path, SATWET_SCENARIO)
    out = tmp_path / "curve.csv"
    assert run(["satwet-curve", "--scenario", scenario, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert rows[0]["mode"] == "zenith"
    # doubling the altitude quadruples the charging time
    t200 = float(rows[0]["charging_s"])
    t400 = float(rows[2]["charging_s"])
    assert t400 == pytest.approx(4.0 * t200, rel=1e-4)


def test_acb_run(tmp_path):
    scenario = write(tmp_path, ACB_SCENARIO)
    out = tmp_path / "acb.csv"
    assert run(["acb-run", "--scenario", scenario, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["class"] for r in rows] == ["priority", "bulk"]
    assert float(rows[0]["mean_admitted_per_s"]) == pytest.approx(6.0)
    assert float(rows[0]["sim_blocking"]) <= float(rows[1]["sim_blocking"])


def test_acb_run_deterministic(tmp_path):
    scenario = write(tmp_path, ACB_SCENARIO)
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert run(["acb-run", "--scenario", scenario, "--out", out1]) == 0
    assert run(["acb-run", "--scenario", scenario, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def manifest_entries(out) -> dict:
    """The manifest next to `out` as a dict, after checking it holds one key per line."""
    lines = manifest_path(out).read_text(encoding="utf-8").splitlines()
    entries = dict(line.split(": ", 1) for line in lines)
    assert len(entries) == len(lines)
    return entries


def test_manifest_records_resolved_config(tmp_path):
    scenario = write(tmp_path, SILENCING_SCENARIO)
    out = tmp_path / "m.csv"
    assert run(["silencing-run", "--scenario", scenario, "--out", out, "--seed", 42, "--trials", 25]) == 0
    manifest = manifest_path(out).read_text()
    entries = manifest_entries(out)
    assert list(entries)[:4] == ["artifact", "version", "subcommand", "name"]
    assert entries["subcommand"] == "silencing-run"
    assert entries["name"] == "cli-test"
    assert entries["seed"] == entries["silencing.config.master_seed"] == "42"
    assert entries["n_trials"] == entries["silencing.config.n_trials"] == "25"
    assert entries["silencing.config.bs_density"] == "1e-06"
    assert entries["silencing.config.channel.sinr_threshold"] == "0.1"
    assert entries["silencing.config.aerial"] == "none"
    assert entries["satwet"] == entries["acb"] == "none"
    assert entries["version"] == cli.__version__
    # nothing time- or path-dependent may leak into the manifest
    assert not any("workers" in key for key in entries)
    assert str(tmp_path) not in manifest


def fig5_sweep_with_weight(tmp_path, silencing_area: float):
    doc = yaml.safe_load(FIG5.read_text(encoding="utf-8"))
    doc["silencing"]["sweep"]["weights"]["silencing_area"] = silencing_area
    scenario = tmp_path / f"fig5-{silencing_area}.yaml"
    scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / f"fig5-{silencing_area}.csv"
    assert run(["silencing-sweep", "--scenario", scenario, "--out", out, "--trials", 4]) == 0
    return out


def test_manifest_tells_sweep_weights_apart(tmp_path):
    # The weights change only the utility column; the manifest must show them.
    out1, out3 = fig5_sweep_with_weight(tmp_path, 1.0), fig5_sweep_with_weight(tmp_path, 3.0)
    assert manifest_path(out1).read_bytes() != manifest_path(out3).read_bytes()
    entries = manifest_entries(out3)
    assert entries["silencing.sweep.weights.w_disaster"] == "1.0"
    assert entries["silencing.sweep.weights.w_silencing_area"] == "3.0"
    assert [entries[f"silencing.policies[{i}].kind"] for i in range(4)] == [
        "none", "partial", "complete", "spectrum_split",
    ]
    assert entries["silencing.policies[1].rho"] == "0.4"
    assert [entries[f"silencing.sweep.grid.rho_values[{i}]"] for i in range(6)] == [
        "0.0", "0.2", "0.4", "0.6", "0.8", "1.0",
    ]
    assert [entries[f"silencing.sweep.grid.silencing_radii[{i}]"] for i in range(3)] == [
        "6000.0", "9000.0", "12000.0",
    ]
    assert "silencing.sweep.grid.rho_values[6]" not in entries


def test_manifest_floats_are_exact(tmp_path):
    # 0.08 and 0.0800001 agree to 6 significant digits; their manifests differ.
    outs = []
    for power in ("0.08", "0.0800001"):
        text = SILENCING_SCENARIO.replace("bs_tx_power_w: 1.0", f"bs_tx_power_w: {power}")
        out = tmp_path / f"p{power}.csv"
        assert run(["silencing-run", "--scenario", write(tmp_path, text), "--out", out, "--trials", 5]) == 0
        assert manifest_entries(out)["silencing.config.bs_tx_power"] == power
        outs.append(out)
    assert manifest_path(outs[0]).read_bytes() != manifest_path(outs[1]).read_bytes()


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------

def test_missing_scenario_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run(["silencing-run", "--scenario", tmp_path / "nope.yaml", "--out", out]) == 2
    assert not out.exists()
    assert not manifest_path(out).exists()
    assert "not found" in capsys.readouterr().err


def test_unparsable_scenario_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("silencing:\n  bs_density_per_m2: [unclosed\n", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert run(["silencing-run", "--scenario", bad, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad.yaml:" in err
    assert not out.exists()


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_unparsable_scenario_message_is_problem_and_mark(tmp_path, capsys, monkeypatch, loader):
    # The same one-line message under libyaml and under the pure-Python
    # fallback: the file, line and column of the problem, then the problem.
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML built without {loader}")
    monkeypatch.setattr(scenario, "_YAML_LOADER", getattr(yaml, loader))
    bad = tmp_path / "bad.yaml"
    bad.write_text("silencing:\n\t- 1\n", encoding="utf-8")
    assert run(["silencing-run", "--scenario", bad, "--out", tmp_path / "never.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2:1: cannot parse scenario: found character ")
    assert err.endswith("cannot start any token\n")
    assert err.count("\n") == 1


def test_schema_violation_names_field(tmp_path, capsys):
    bad = write(
        tmp_path,
        """
        silencing:
          bs_density_per_m2: 1.0e-06
          silencing_radius_m: 100.0
        """,
    )
    assert run(["silencing-run", "--scenario", bad, "--out", tmp_path / "x.csv"]) == 2
    assert "silencing_radius" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_exits_2_naming_seed(tmp_path, capsys, seed):
    scenario = write(tmp_path, ACB_SCENARIO)
    out = tmp_path / "acb.csv"
    assert run(["acb-run", "--scenario", scenario, "--out", out, "--seed", seed]) == 2
    assert "invalid scenario field seed" in capsys.readouterr().err
    assert not out.exists()


def test_out_with_the_manifest_suffix_exits_2_before_loading(tmp_path, capsys, monkeypatch):
    # The manifest of --out x.manifest would be written over the CSV.
    def fail(*args, **kwargs):
        raise AssertionError("loaded the scenario")

    monkeypatch.setattr(cli, "load_scenario", fail)
    scenario = write(tmp_path, SATWET_SCENARIO)
    assert run(["satwet-curve", "--scenario", scenario, "--out", tmp_path / "curve.manifest"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / 'curve.manifest'}: ")
    assert list(tmp_path.iterdir()) == [scenario]


def test_subcommand_without_matching_section(tmp_path, capsys):
    scenario = write(tmp_path, SATWET_SCENARIO)
    assert run(["silencing-run", "--scenario", scenario, "--out", tmp_path / "x.csv"]) == 2
    assert "silencing" in capsys.readouterr().err


def test_sweep_subcommand_needs_grid(tmp_path, capsys):
    scenario = write(
        tmp_path,
        """
        silencing:
          bs_density_per_m2: 1.0e-06
        """,
    )
    assert run(["silencing-sweep", "--scenario", scenario, "--out", tmp_path / "x.csv"]) == 2
    assert "sweep" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, capsys):
    scenario = write(tmp_path, SATWET_SCENARIO)
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, stat.S_IRUSR | stat.S_IXUSR)
    target = blocked / "out.csv"
    try:
        code = run(["satwet-curve", "--scenario", scenario, "--out", target])
    finally:
        os.chmod(blocked, stat.S_IRWXU)
    if os.geteuid() == 0:
        # root bypasses permission bits; the exit-code path needs a non-root
        # runner, so fall back to a directory-as-file collision
        target2 = tmp_path / "collide.csv"
        target2.mkdir()
        code = run(["satwet-curve", "--scenario", scenario, "--out", target2])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_invalid_workers_rejected(tmp_path, capsys):
    scenario = write(tmp_path, SATWET_SCENARIO)
    assert run(["satwet-curve", "--scenario", scenario, "--out", tmp_path / "x.csv", "--workers", 0]) == 2


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2_without_outputs(tmp_path, capsys):
    scenario = write(tmp_path, SATWET_SCENARIO)
    out = tmp_path / "never.csv"
    assert run(["satwet-run", "--scenario", scenario, "--out", out]) == 2
    assert "invalid choice: 'satwet-run'" in capsys.readouterr().err
    assert not out.exists()
    assert not manifest_path(out).exists()


@pytest.mark.parametrize("missing", ["--scenario", "--out"])
def test_missing_required_flag_exits_2(tmp_path, capsys, missing):
    flags = {"--scenario": write(tmp_path, SATWET_SCENARIO), "--out": tmp_path / "x.csv"}
    del flags[missing]
    assert run(["satwet-curve", *[v for pair in flags.items() for v in pair]]) == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_help_lists_every_subcommand_with_its_description(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name, description in [
        ("silencing-run", "estimate disaster uplink success and silencing-area coverage per policy"),
        ("silencing-sweep", "sweep suppression factor x silencing radius and score the trade-off"),
        ("satwet-curve", "satellite charging time over altitudes and payload sizes"),
        ("acb-run", "access-class barring load under a capacity limit"),
    ]:
        assert re.search(rf"^  {name} +{description}$", out, re.MULTILINE), name
    for flag in ["--scenario", "--out", "--seed", "--trials", "--workers"]:
        assert flag in out


def test_parser_choices_are_the_runners():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "subcommand"]
    assert set(action.choices) == set(cli._RUNNERS)


def test_each_main_call_builds_one_fresh_parser(tmp_path, monkeypatch):
    # Counts every ArgumentParser, subparsers included; a cached parser
    # would count once.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    scenario = write(tmp_path, SATWET_SCENARIO)
    assert run(["satwet-curve", "--scenario", scenario, "--out", tmp_path / "a.csv"]) == 0
    assert len(built) == 1
    assert run(["satwet-curve", "--scenario", scenario, "--out", tmp_path / "b.csv"]) == 0
    assert len(built) == 2 and built[0] is not built[1]


@pytest.mark.parametrize(
    "subcommand,text,field",
    [
        ("silencing-run", "silencing: {bs_density_per_m2: 1.0e-06, silencing_radius_m: 2600.0}", "silencing_radius"),
        (
            "silencing-sweep",
            "silencing: {bs_density_per_m2: 1.0e-06, sweep: {rho_values: [0.0], silencing_radii_m: [2600.0, 4000.0]}}",
            "silencing.sweep.silencing_radii_m[0]",
        ),
        ("satwet-curve", "satwet: {heights_m: [200000.0, -5.0], payload_bits: [400.0]}", "satwet.heights_m[1]"),
        ("satwet-curve", "satwet: {heights_m: [200000.0], payload_bits: [400.0, -1.0]}", "satwet.payload_bits[1]"),
        (
            "acb-run",
            "acb: {capacity_per_s: 10.0, classes: [{name: a, acdc_category: 1, arrival_rate_per_s: 1.0e+300, admit_prob: 1.0}]}",
            "acb.classes[0].arrival_rate_per_s",
        ),
        (
            "silencing-run",
            "silencing: {bs_density_per_m2: 1.0e-06, channel: {sinr_threshold_db: 4000.0}}",
            "silencing.channel.sinr_threshold_db",
        ),
        (
            "silencing-run",
            "silencing: {bs_density_per_m2: 1.0e-06, channel: {noise_dbm: 4000.0}}",
            "silencing.channel.noise_dbm",
        ),
        # a line break in a name would forge manifest lines
        ("acb-run", ACB_SCENARIO.replace("name: cli-acb", 'name: "x\\nversion: 9.9.9"'), "name"),
        ("acb-run", ACB_SCENARIO.replace("{name: priority,", '{name: "a\\nseed: 1",'), "acb.classes[0].name"),
    ],
    ids=[
        "ring-edge-radius", "ring-edge-sweep-radius", "second-height", "second-payload", "acb-arrivals-overflow",
        "sinr-threshold-db-overflow", "noise-dbm-overflow", "name-line-break", "class-name-line-break",
    ],
)
def test_inputs_a_run_would_reject_exit_2_before_any_work(tmp_path, capsys, monkeypatch, subcommand, text, field):
    def fail(*args):
        raise AssertionError("sampled a trial before validating the scenario")

    monkeypatch.setattr(netsim, "_sample_trial", fail)
    out = tmp_path / "never.csv"
    assert run([subcommand, "--scenario", write(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid scenario field {field}: ")
    assert not out.exists()


def test_acb_run_at_the_poisson_bound(tmp_path):
    # The load-time bound is NumPy's own: the largest accepted mean still runs.
    text = """
    acb:
      capacity_per_s: 10.0
      horizon_s: 1.0
      classes:
        - {name: a, acdc_category: 1, arrival_rate_per_s: 9.223372006484771e+18, admit_prob: 1.0}
    """
    assert run(["acb-run", "--scenario", write(tmp_path, text), "--out", tmp_path / "acb.csv"]) == 0
