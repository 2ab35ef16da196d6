import numpy as np
import pytest

from disastersim.netsim import Band, NetworkSnapshot, Zone


def pytest_collection_modifyitems(items):
    # The 100k-trial acceptance criteria take minutes; `-m "not slow"` skips them.
    for item in items:
        if item.name.endswith("_100k"):
            item.add_marker(pytest.mark.slow)


def snapshot_from_stations(stations, device=(0.0, 0.0)) -> NetworkSnapshot:
    """Hand-built snapshot for fixed-layout tests.

    Each station is a dict with keys x, y, zone and optional altitude,
    tx_power, power_factor, band, alive.
    """
    n = len(stations)
    xy = np.array([[s["x"], s["y"]] for s in stations], dtype=float).reshape(n, 2)
    return NetworkSnapshot(
        xy=xy,
        zone=np.array([s["zone"] for s in stations], dtype=np.int8),
        altitude=np.array([s.get("altitude", 0.0) for s in stations], dtype=float),
        tx_power=np.array([s.get("tx_power", 1.0) for s in stations], dtype=float),
        power_factor=np.array([s.get("power_factor", 1.0) for s in stations], dtype=float),
        band=np.array([s.get("band", Band.DISASTER_BAND) for s in stations], dtype=np.int8),
        alive=np.array([s.get("alive", True) for s in stations], dtype=bool),
        device_xy=np.asarray(device, dtype=float),
    )


def disaster_station(x, y, **kw):
    return {"x": x, "y": y, "zone": Zone.DISASTER, **kw}


def ring_station(x, y, **kw):
    return {"x": x, "y": y, "zone": Zone.ACTIVE_RING, **kw}


def silencing_station(x, y, **kw):
    return {"x": x, "y": y, "zone": Zone.SILENCING, **kw}


def outer_station(x, y, **kw):
    return {"x": x, "y": y, "zone": Zone.OUTER, **kw}


def trial_rows(block, i: int) -> slice:
    """The rows of a netsim block's column i that hold trial i's stations:
    its inner stations end at block.split, its exterior ones start there."""
    return slice(block.split - int(block.n_inner[i]), block.split + int(block.n_exterior[i]))
