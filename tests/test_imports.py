"""What each entry point imports, and the package API that lazy loading keeps.

The import-graph checks run a fresh interpreter, because this test process
has long since imported every module.
"""
import json
import os
import pickle
from pathlib import Path
import subprocess
import sys

import pytest

import disastersim
from disastersim import cli, errors, netsim, planner

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ENGINE = ["disastersim.netsim", "disastersim.planner", "disastersim.geometry"]
POOL = ["concurrent.futures.process", "multiprocessing"]
ANALYTIC = ["disastersim.satwet", "disastersim.acb"]

CHILD = """
import json, sys
watched = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in watched if m in sys.modules)
stages = {}
import disastersim
stages["package"] = loaded()
import disastersim.cli
from disastersim.scenario import load_scenario
stages["cli"] = loaded()
for name, path in json.loads(sys.argv[2]):
    load_scenario(path)
    stages[name] = loaded()
for argv in json.loads(sys.argv[3]):
    assert disastersim.cli.main(argv) == 0
stages["main"] = loaded()
print(json.dumps(stages))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    """`python args...` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(disastersim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child


def run_fresh(*args: str) -> str:
    """Standard output of `python -c args...` in a fresh interpreter."""
    return python("-c", *args).stdout


def modules_loaded(watched, scenarios=(), runs=()) -> dict[str, list[str]]:
    """Which of `watched` a fresh interpreter has loaded after each stage."""
    return json.loads(run_fresh(CHILD, json.dumps(watched), json.dumps(scenarios), json.dumps(runs)))


def test_analytic_subcommands_never_load_the_engine(tmp_path):
    fig4, acb = str(SCENARIOS / "paper_fig4.yaml"), str(SCENARIOS / "acb_example.yaml")
    runs = [
        ["satwet-curve", "--scenario", fig4, "--out", str(tmp_path / "curve.csv")],
        ["acb-run", "--scenario", acb, "--out", str(tmp_path / "acb.csv")],
    ]
    stages = modules_loaded(ENGINE + POOL + ANALYTIC, [["fig4", fig4], ["acb", acb]], runs)
    assert stages["package"] == []
    assert stages["cli"] == []
    assert stages["fig4"] == ["disastersim.satwet"]
    assert stages["acb"] == ["disastersim.acb", "disastersim.satwet"]
    assert stages["main"] == ["disastersim.acb", "disastersim.satwet"]


def silencing_runs(tmp_path, trials: int) -> list[list[str]]:
    common = ["--scenario", str(SCENARIOS / "paper_fig5.yaml"), "--trials", str(trials), "--workers", "2"]
    return [
        ["silencing-run", "--out", str(tmp_path / "run.csv"), *common],
        ["silencing-sweep", "--out", str(tmp_path / "sweep.csv"), *common],
    ]


def test_silencing_scenario_loads_no_analytic_model(tmp_path):
    # 127 trials fork no worker (at most one per 64 trials), so neither the
    # scenario nor the in-process runs load the process-pool modules
    stages = modules_loaded(ENGINE + POOL + ANALYTIC, [["fig5", str(SCENARIOS / "paper_fig5.yaml")]],
                            silencing_runs(tmp_path, 127))
    assert stages["fig5"] == sorted(ENGINE)
    assert stages["main"] == sorted(ENGINE)


def test_a_pooled_run_loads_the_process_pool(tmp_path):
    # a 128-trial sweep on 2 workers forks a pool
    stages = modules_loaded(ENGINE + POOL, [["fig5", str(SCENARIOS / "paper_fig5.yaml")]],
                            silencing_runs(tmp_path, 128)[1:])
    assert stages["fig5"] == sorted(ENGINE)
    assert stages["main"] == sorted(ENGINE + POOL)


MALLOPT_CHILD = """
import ctypes, dataclasses, json, sys
calls, cdll = [], ctypes.CDLL
class Libc:
    def mallopt(self, param, value):
        calls.append([param, value])
        return 1
ctypes.CDLL = lambda name, *args, **kwargs: Libc() if name is None else cdll(name, *args, **kwargs)
stages = {}
from disastersim import netsim
from disastersim.scenario import load_scenario
spec = load_scenario(sys.argv[1]).silencing
stages["loaded"] = list(calls)
cfg = dataclasses.replace(spec.config, n_trials=2)
for call in ("first", "second"):
    netsim.estimate_grid(cfg, (cfg.silencing_radius,), spec.policies)
    stages[call] = list(calls)
print(json.dumps(stages))
"""


def test_only_the_first_engine_call_sets_the_allocator():
    # importing netsim and loading a scenario leave the C allocator alone;
    # the first engine call fixes M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) once
    stages = json.loads(run_fresh(MALLOPT_CHILD, str(SCENARIOS / "paper_fig5.yaml")))
    assert stages["loaded"] == []
    assert stages["first"] == stages["second"] == [[-3, 32 << 20], [-1, 64 << 20]]


def test_netsim_process_pool_is_the_standard_one():
    import concurrent.futures

    assert netsim.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError):
        netsim.no_such_name


def test_help_loads_no_model():
    # `python -m disastersim.cli --help` itself, with -X importtime listing
    # every module the interpreter imports on standard error.
    child = python("-X", "importtime", "-m", "disastersim.cli", "--help")
    assert "acb-run" in child.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines() if line.startswith("import time:")}
    assert "disastersim.scenario" in imported
    models = ["netsim", "planner", "geometry", "channel", "satwet", "acb"]
    assert sorted(imported & {f"disastersim.{m}" for m in models}) == []


def test_scenario_error_is_one_class():
    assert disastersim.ScenarioError is netsim.ScenarioError is errors.ScenarioError
    assert netsim.SEED_LIMIT == errors.SEED_LIMIT == 2**64
    back = pickle.loads(pickle.dumps(errors.ScenarioError("seed", "too large")))
    assert type(back) is netsim.ScenarioError and back.field == "seed"


def test_package_names_resolve_to_their_modules():
    import disastersim as ds
    from disastersim import netsim as imported

    assert imported is netsim is ds.netsim
    assert ds.estimate_grid is netsim.estimate_grid
    assert ds.sweep is planner.sweep
    assert set(ds.__all__) <= set(dir(ds))
    with pytest.raises(AttributeError):
        ds.no_such_name
    namespace: dict = {}
    exec("from disastersim import *", namespace)
    assert namespace["ScenarioConfig"] is netsim.ScenarioConfig
    # Submodules stay reachable as attributes of the bare package.
    assert run_fresh("import disastersim; print(disastersim.acb.AccessClass.__module__)") == "disastersim.acb\n"


def test_cli_runs_the_function_set_on_it(tmp_path, monkeypatch):
    # A wrapper replacing cli.charge_curve (as a profiler installs one) is
    # what the satwet-curve runner calls.
    calls = []
    original = cli.charge_curve

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "charge_curve", wrapped)
    argv = ["satwet-curve", "--scenario", str(SCENARIOS / "paper_fig4.yaml"), "--out", str(tmp_path / "c.csv")]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert cli.sweep is planner.sweep
    with pytest.raises(AttributeError):
        cli.no_such_name
