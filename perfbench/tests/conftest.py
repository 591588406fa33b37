"""Make the benchmark package and the program importable for its tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.workloads import SCFWorkload, TransportWorkload  # noqa: E402

MINI_GRID = dict(
    name="mini", n_x=10, n_y=2, n_z=2, spacing_nm=0.25,
    source_cells=3, drain_cells=3, gate_cells=(4, 6),
    donor_density_nm3=0.05, material_params={"m_rel": 0.3},
)


@pytest.fixture(scope="session")
def tiny_grid_wf():
    """A few-second single-band SCF sweep under WF (tiny blocks)."""
    return SCFWorkload(
        name="tiny-grid-wf", why="test", spec_kwargs=MINI_GRID,
        method="wf", n_energy=11, gate_voltages=(-0.3, -0.2),
    )


@pytest.fixture(scope="session")
def tiny_fullband_rgf():
    """A few-second stand-in for ``iv-fullband-rgf`` (same code path)."""
    return SCFWorkload(
        name="tiny-fullband-rgf", why="test",
        spec_kwargs=dict(
            name="si-mini", geometry="nanowire-zb", material="Si-sp3s*",
            n_x=4, n_y=1, n_z=1, source_cells=1, drain_cells=1,
            gate_cells=(1, 2), donor_density_nm3=0.05,
        ),
        method="rgf", n_energy=7, gate_voltages=(-0.3, -0.25),
    )


@pytest.fixture(scope="session")
def tiny_transport():
    """``transport-process`` on the serial backend with a small grid."""
    return TransportWorkload(
        name="tiny-transport", why="test", spec_kwargs=MINI_GRID,
        method="wf", n_energy=16, n_calls=2, backend="serial", workers=1,
    )
