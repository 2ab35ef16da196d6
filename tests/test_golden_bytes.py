"""Output bytes of every subcommand, pinned by SHA-256.

Outputs are a pure function of (scenario, seed, version). A change to any
byte of these files, from the engine, the CSV writer or the manifest, fails
here; such a change must bump __version__ and update these digests.
"""
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

from numpy._core._multiarray_umath import __cpu_features__
import pytest

import disastersim
from disastersim.cli import main, manifest_path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIG5 = SCENARIOS / "paper_fig5.yaml"

GOLDEN = {
    ("silencing-run", 200, 1): (
        "6c5c0964a86c4157082ef70c3e7fb715a5fb77852d658aa64c0ac1c59370f4ad",
        "f129ac95c937b78e8cd5a3898f6a859ee32278200301bfc0e67a4dd069fbaa73",
    ),
    ("silencing-sweep", 60, 2): (
        "0698d88e66e7f51fb4528126b95f3d4630622ec8ea770754e862595b07b8e762",
        "6ecd86f62cff43bddce85fe33dab9e5f22cda8fe05196f5678bed61f5ca1769e",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fig5_argv(command, trials, workers, out: Path) -> list[str]:
    return [command, "--scenario", str(FIG5), "--out", str(out),
            "--trials", str(trials), "--workers", str(workers), "--seed", "7"]


@pytest.mark.parametrize("command,trials,workers", sorted(GOLDEN))
def test_fig5_output_bytes(tmp_path, command, trials, workers):
    out = tmp_path / "out.csv"
    assert main(fig5_argv(command, trials, workers, out)) == 0
    assert (sha256(out), sha256(manifest_path(out))) == GOLDEN[command, trials, workers]


# NumPy's AVX-512 loops; with them disabled NumPy dispatches its AVX2 loops,
# whose np.power differs from the AVX-512 one in the last bit of about 5% of
# results. The counts must not depend on which loops run.
AVX512 = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)]

DISPATCH_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from disastersim.cli import main
disabled, runs = json.loads(sys.argv[1])
assert not any(__cpu_features__[f] for f in disabled), "AVX-512 dispatch is still on"
for argv in runs:
    assert main(argv) == 0
"""


@pytest.mark.skipif(not AVX512, reason="this CPU has no AVX-512 dispatch to disable")
def test_fig5_output_bytes_without_avx512_dispatch(tmp_path):
    outs = {key: tmp_path / f"{key[0]}-{key[1]}.csv" for key in sorted(GOLDEN)}
    runs = [fig5_argv(*key, out) for key, out in outs.items()]
    src = str(Path(disastersim.__file__).resolve().parent.parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, json.dumps([AVX512, runs])],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    for key, out in outs.items():
        assert (sha256(out), sha256(manifest_path(out))) == GOLDEN[key]


# fig5 with an aerial tier, which paper_fig5.yaml lacks: flying stations sit
# between the ring and the exterior in every trial's station order.
AERIAL_SCENARIO = """\
name: aerial_golden
seed: 7
n_trials: 100
silencing:
  disaster_radius_m: 2000.0
  active_ring_width_m: 600.0
  silencing_radius_m: 9000.0
  sim_radius_m: 15000.0
  bs_density_per_m2: 4.0e-07
  bs_survival_prob: 0.05
  device_tx_power_w: 0.2
  bs_tx_power_w: 0.08
  aerial: {density_per_m2: 1.0e-06, altitude_m: 300.0, tx_power_w: 0.05}
  channel: {path_loss_exponent: 3.0, sinr_threshold_db: -10.0, min_distance_m: 1.0}
  policies: [none, {partial: 0.4}, complete, spectrum_split]
  sweep:
    rho_values: [0.0, 0.5, 1.0]
    silencing_radii_m: [6000.0, 9000.0]
"""

AERIAL_GOLDEN = {
    ("silencing-run", 120, 2): (
        "c2f603863f41dba0afad738a502b9a501ee3c33945fad28afec423d9ef01b7c6",
        "95dcb575af22ba38f845da779098be6fcd32cf3370090ad9ab83d85291dbaa24",
    ),
    ("silencing-sweep", 40, 1): (
        "a08ce6864b34bc8d93291cb8c97f88ddacbdf3a2490180bac18594b974c0b340",
        "f2e5d609b85b80c7789e4095f4764bc54a8860374483bdc88c8b18e021e052ca",
    ),
}


@pytest.mark.parametrize("command,trials,workers", sorted(AERIAL_GOLDEN))
def test_aerial_tier_output_bytes(tmp_path, command, trials, workers):
    scenario = tmp_path / "aerial.yaml"
    scenario.write_text(AERIAL_SCENARIO, encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [command, "--scenario", str(scenario), "--out", str(out),
            "--trials", str(trials), "--workers", str(workers)]
    assert main(argv) == 0
    assert (sha256(out), sha256(manifest_path(out))) == AERIAL_GOLDEN[command, trials, workers]


# The analytic subcommands on their reference scenarios, and a scenario that
# sets only what the loader requires, so that every other parameter in its
# manifest and every number in its CSV comes from a model default.
DEFAULTS_SCENARIO = """\
name: defaults_golden
silencing: {bs_density_per_m2: 4.0e-07}
satwet:
  heights_m: [200000.0, 400000.0]
  payload_bits: [400.0, 10000.0]
"""

SCENARIO_GOLDEN = {
    ("satwet-curve", "paper_fig4.yaml", ()): (
        "90e767555265a57af4b5316c3423d13161dfef1ef9371b643072272790bc71be",
        "cc06aa722f410820982136c4be69475f24e79f1d12fb0ad9428aa116c2341f42",
    ),
    ("acb-run", "acb_example.yaml", ()): (
        "e4b26dd40fcc16acda8e75f63b02f26d06f599f2f040014e12180b5cc50b9f53",
        "7db1b8bce9829111ab432c86bc49e5ef96a74e84f863691bf786e592dbcf7d4c",
    ),
    ("silencing-run", "defaults", ("--trials", "100")): (
        "bb78adfcb4ec9eb9f0d073487dbc5c44dc7fbc848cd54ffb7aa4941a870e0ce9",
        "d9da35adbc50bd3e9a2fd84bf19a0282dbb9ac6f2150976715bce7288671dc66",
    ),
    ("satwet-curve", "defaults", ()): (
        "d5dde81e53f193ec9b5c35857b7fcd0162f6ab9de265f20ee40c24e851d5d62d",
        "27face1bd35b22a1396ca331715901eb58b5c66465c7376673ba38710f8e45bf",
    ),
}


@pytest.mark.parametrize("command,scenario,extra", sorted(SCENARIO_GOLDEN))
def test_analytic_and_default_output_bytes(tmp_path, command, scenario, extra):
    if scenario == "defaults":
        path = tmp_path / "defaults.yaml"
        path.write_text(DEFAULTS_SCENARIO, encoding="utf-8")
    else:
        path = SCENARIOS / scenario
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", str(path), "--out", str(out), *extra]) == 0
    assert (sha256(out), sha256(manifest_path(out))) == SCENARIO_GOLDEN[command, scenario, extra]
