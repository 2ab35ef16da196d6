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
        "2393b97e4f23927d91e20a31b379a2ae4211341f1695758bb8ab5237c6bf725b",
    ),
    ("silencing-sweep", 60, 2): (
        "0698d88e66e7f51fb4528126b95f3d4630622ec8ea770754e862595b07b8e762",
        "7682c015f80971faf84c2840c37987f5954a0904ffcedac9509794a88848618a",
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
        "260ca7a956daf5c4fefb13674cf9f8a1e3ec20f072dd50a35c560eec82d85c86",
    ),
    ("silencing-sweep", 40, 1): (
        "a08ce6864b34bc8d93291cb8c97f88ddacbdf3a2490180bac18594b974c0b340",
        "e3696538d69431bed55670fc02db67937db592d8e4c208ea5d9485d8f10f24c3",
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
        "b736d689810b66f25c69c9ebe5c7a32c194dfc110994705a9241d072693f89a8",
    ),
    ("acb-run", "acb_example.yaml", ()): (
        "e4b26dd40fcc16acda8e75f63b02f26d06f599f2f040014e12180b5cc50b9f53",
        "4b759b3bb75a67b3543b56e3eeaf1a5f8ca8fe1a8c968febc71b67dc378c8f2c",
    ),
    ("silencing-run", "defaults", ("--trials", "100")): (
        "bb78adfcb4ec9eb9f0d073487dbc5c44dc7fbc848cd54ffb7aa4941a870e0ce9",
        "eae42bdb841445afb43132d74ff8f33eab1a08ff2d1d10e6c4289a2ce47ee1d8",
    ),
    ("satwet-curve", "defaults", ()): (
        "d5dde81e53f193ec9b5c35857b7fcd0162f6ab9de265f20ee40c24e851d5d62d",
        "82c2909fd9facb2a9cadd496f4f7dedc2cae36723d922647750aea4a582fae56",
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
