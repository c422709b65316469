import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's seeded workload generators (``perfbench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def general_dense_config(workloads):
    """The benchmark's ``general-dense`` config at seed 1: a 64x64 A = H + iHbar
    with real symmetric, non-commuting H and Hbar."""
    return workloads.make_config("general-dense", 1)


@pytest.fixture(scope="session")
def general_dense_matrix(general_dense_config):
    spec = general_dense_config["physics"]["matrix"]
    return np.asarray(spec["real"]) + 1j * np.asarray(spec["imag"])


@pytest.fixture(scope="session", params=[1, 2, 3])
def heat_lift_config(workloads, request):
    """The benchmark's ``heat-lift`` config at seeds 1 to 3: V = 0, M = 256,
    N = 4096, u0 = 1.5 plus seeded cos modes j = 1 and 2."""
    return workloads.make_config("heat-lift", request.param)


@pytest.fixture(scope="session")
def transport_config(workloads):
    """The benchmark's ``transport`` config at seed 1: J = K = 16, constant
    scattering, t = 1."""
    return workloads.make_config("transport", 1)


@pytest.fixture
def preflight_phases(monkeypatch):
    """Every (name, bytes, work) phase that ``core._preflight`` is given,
    in order, while still refusing as it does."""
    from schrodingerize import apps, core, oracle, pipeline

    phases = []
    check = core._preflight

    def recording(*listed):
        phases.extend(listed)
        check(*listed)

    for module in (apps, oracle, pipeline):
        monkeypatch.setattr(module, "_preflight", recording)
    return phases


@pytest.fixture
def lifted_row_counts(monkeypatch):
    """The eigenvalue count of every ``pipeline._lifted_rows`` call, in order."""
    from schrodingerize import pipeline

    counts = []
    rows = pipeline._lifted_rows

    def counting(lam, *args):
        counts.append(lam.size)
        return rows(lam, *args)

    monkeypatch.setattr(pipeline, "_lifted_rows", counting)
    return counts


@pytest.fixture
def traced_peak():
    """``peak(call)``: the tracemalloc peak, in bytes, of a call made after
    one untraced warm-up call (caches and imports)."""

    def peak(call, warm=True):
        if warm:
            call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
