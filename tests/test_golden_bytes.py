"""Output bytes of the silencing commands, pinned by SHA-256.

Outputs are a pure function of (scenario, seed, version). A change to any
byte of these files, from the engine, the CSV writer or the manifest, fails
here; such a change must bump __version__ and update these digests.
"""
import hashlib
from pathlib import Path

import pytest

from disastersim.cli import main, manifest_path

FIG5 = Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig5.yaml"

GOLDEN = {
    ("silencing-run", 200, 1): (
        "6c5c0964a86c4157082ef70c3e7fb715a5fb77852d658aa64c0ac1c59370f4ad",
        "2bb9ade0ceb2527a85679e5929ed28017a1f07944f93c8b1c712428b711863bd",
    ),
    ("silencing-sweep", 60, 2): (
        "0698d88e66e7f51fb4528126b95f3d4630622ec8ea770754e862595b07b8e762",
        "fa68ced27c9501c9b57313596c0224880663f0cbfc120b1a9306c123f917f8ef",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,trials,workers", sorted(GOLDEN))
def test_fig5_output_bytes(tmp_path, command, trials, workers):
    out = tmp_path / "out.csv"
    argv = [command, "--scenario", str(FIG5), "--out", str(out),
            "--trials", str(trials), "--workers", str(workers), "--seed", "7"]
    assert main(argv) == 0
    assert (sha256(out), sha256(manifest_path(out))) == GOLDEN[command, trials, workers]


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
        "10b001c865ce078a0dd17e2531df14272ad51c80e1784849afdccbd63e60fdf4",
    ),
    ("silencing-sweep", 40, 1): (
        "a08ce6864b34bc8d93291cb8c97f88ddacbdf3a2490180bac18594b974c0b340",
        "d5fd108f130d17968e7a7db016df3987e5a0ef38b9a4ee870d6f6650e0f4d8af",
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
