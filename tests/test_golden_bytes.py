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
