"""The calibration script's refine stage against the bisection it replaces."""
import importlib.util
from pathlib import Path

import pytest

from disastersim.netsim import SilencingPolicy, estimate_success

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_fig5.py"
_spec = importlib.util.spec_from_file_location("calibrate_fig5", _SCRIPT)
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)


def bisect_rho(cfg, target):
    lo, hi = 0.0, 1.0
    for _ in range(calibrate.REFINE_STEPS):
        rho = 0.5 * (lo + hi)
        if estimate_success(cfg, SilencingPolicy.partial(rho)).value > target:
            lo = rho
        else:
            hi = rho
    return lo, hi


@pytest.fixture(scope="module")
def cfg():
    return calibrate.make_config(4e-7, 0.05, 3.0, 12000.0, 0.4, 300, 20260810)


def test_refine_rho_equals_bisection(cfg):
    none, complete = calibrate.uplink_ladder(cfg, (SilencingPolicy.none(), SilencingPolicy.complete()))
    interior = 0.5 * (none.value + complete.value)
    for target in (interior, 0.0, 1.0):
        assert calibrate.refine_rho(cfg, target) == bisect_rho(cfg, target)
    lo, hi = calibrate.refine_rho(cfg, interior)
    assert 0.0 < lo < hi < 1.0
