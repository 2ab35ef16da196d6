"""Output bytes of every subcommand, pinned by SHA-256.

Outputs are a pure function of (scenario, seed, version) for a given NumPy
and C library. A change to any byte of these files, from the engine, the
CSV writer or the manifest, fails here; such a change must bump
__version__ and update these digests. The generator canary at the end pins
the NumPy draws the engine makes, so a NumPy change fails there by name.
"""
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import pytest

import disastersim
from disastersim.cli import main, manifest_path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIG5 = SCENARIOS / "paper_fig5.yaml"

GOLDEN = {
    ("silencing-run", 200, 1): (
        "6c5c0964a86c4157082ef70c3e7fb715a5fb77852d658aa64c0ac1c59370f4ad",
        "f59779395e3a16a13a82d8c3a58b9facf0ce6d397f0fbe2bf64af6eb84071756",
    ),
    ("silencing-sweep", 60, 2): (
        "0698d88e66e7f51fb4528126b95f3d4630622ec8ea770754e862595b07b8e762",
        "ed65907343ab5d07b88a990edda49745e953f2bc80b8d1cdadb5051b5e5eb4f3",
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
import numpy as np
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
        "970331637077b13872b600178daa9f426b60face02c96f1832e7fe16c859b9db",
    ),
    ("silencing-sweep", 40, 1): (
        "a08ce6864b34bc8d93291cb8c97f88ddacbdf3a2490180bac18594b974c0b340",
        "9619e5ecd5b7c2e5d971cb59d9d85ac9600b5e60c0663efd60049ef7d8b4cad2",
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
        "fbb6756188d9e3c39cd9ad3faa6caeebd1d99c9e20b9d6e1599f40ba96b60019",
    ),
    ("acb-run", "acb_example.yaml", ()): (
        "e4b26dd40fcc16acda8e75f63b02f26d06f599f2f040014e12180b5cc50b9f53",
        "22ffd7d8ac0525cb488dc8690b2f0625f19e11c6ebb8ba5891838546482d89cf",
    ),
    ("silencing-run", "defaults", ("--trials", "100")): (
        "bb78adfcb4ec9eb9f0d073487dbc5c44dc7fbc848cd54ffb7aa4941a870e0ce9",
        "eb431384b8f1513f0c8d3629c332e667a8f74b085759658b5b7e87e6e6b2bc0d",
    ),
    ("satwet-curve", "defaults", ()): (
        "d5dde81e53f193ec9b5c35857b7fcd0162f6ab9de265f20ee40c24e851d5d62d",
        "226071caf02f43799fbc5b3d302ca88588b7dbe989d6428bade93d7f0ab395da",
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


# The first outputs of every Generator method the engine draws with, on one
# Philox key and counter, bit for bit: a NumPy whose streams differ fails
# here under the method's name, before any digest above is read. Poisson is
# pinned at a mean on each side of 10, where NumPy switches from
# multiplying uniforms to rejection sampling; 5.03 is paper_fig5's
# disaster-tier mean.
def philox() -> np.random.Generator:
    key = np.array([2024, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=np.array([0, 0, 5, 0], dtype=np.uint64)))


def into(method, n):
    def draw(rng):
        out = np.empty(n)
        getattr(rng, method)(out=out)
        return out
    return draw


GENERATOR_CANARY = {
    "random": (lambda rng: rng.random(4),
               ["0x1.c3a613cdc8509p-1", "0x1.2cb528cb5bdb8p-1", "0x1.a03dd79e5ad9fp-1", "0x1.944e24bb5dad1p-1"]),
    "random(out=...)": (into("random", 2), ["0x1.c3a613cdc8509p-1", "0x1.2cb528cb5bdb8p-1"]),
    "exponential": (lambda rng: [rng.exponential(), rng.exponential(), *rng.exponential(size=2)],
                    ["0x1.9c3ecf6306367p+0", "0x1.ee2aafd8e14fep+0", "0x1.a32d4d7bf6ecfp+1", "0x1.1ca2cc13dd855p+0"]),
    "standard_exponential(out=...)": (
        into("standard_exponential", 4),
        ["0x1.9c3ecf6306367p+0", "0x1.ee2aafd8e14fep+0", "0x1.a32d4d7bf6ecfp+1", "0x1.1ca2cc13dd855p+0"],
    ),
    "poisson(5.03)": (lambda rng: [rng.poisson(5.03) for _ in range(8)], [7, 4, 7, 2, 1, 6, 9, 5]),
    "poisson(12.57)": (lambda rng: [rng.poisson(12.57) for _ in range(8)], [17, 9, 15, 14, 10, 7, 10, 10]),
}


@pytest.mark.parametrize("method", sorted(GENERATOR_CANARY))
def test_generator_outputs_are_pinned(method):
    draw, expected = GENERATOR_CANARY[method]
    got = [x if isinstance(x, int) else float(x).hex() for x in draw(philox())]
    assert got == expected, f"Generator.{method} no longer draws the pinned numbers"


@pytest.mark.parametrize("count", [1, 7, 300])
def test_generator_call_merges_hold(count):
    # the engine draws a tier of c stations as random((k, c)) and the device
    # as random(2), relying on C-order rows and on random(a), random(b)
    # being random(a + b); its exterior gaps as standard_exponential(n),
    # relying on it giving exponential(size=n)'s numbers; and a link's
    # fading, the reference's exponential() and then exponential(size=c),
    # as one standard_exponential(out=...) of c + 1 numbers
    for k in (2, 3):
        assert np.array_equal(philox().random((k, count)), philox().random(k * count).reshape(k, count))
    rng = philox()
    assert np.array_equal(np.concatenate((rng.random(2), rng.random(count))), philox().random(2 + count))
    assert np.array_equal(into("standard_exponential", count)(philox()), philox().exponential(size=count))
    assert np.array_equal(philox().standard_exponential(count), philox().exponential(size=count))
    rng = philox()
    assert np.array_equal(np.concatenate(([rng.exponential()], into("standard_exponential", count)(rng))),
                          into("standard_exponential", count + 1)(philox()))
