"""The fast presets' artifacts, and a short Z-width sweep's and chirp trace's,
pinned byte for byte.

Each run writes into a temporary directory, and its ``manifest.txt`` (the
SHA-256 of every artifact) must equal the golden copy under
``tests/data/manifests``. A change that moves any artifact of these
pipelines, even in the last printed digit, fails here.
"""

from pathlib import Path

import pytest

from fluidsea.experiments import parse_config, run_experiment, run_preset

GOLDEN = Path(__file__).parent / "data" / "manifests"


@pytest.mark.parametrize(
    "name, manifests",
    [
        ("fig5-ff-compare", {"manifest.txt": "fig5-ff-compare.txt"}),
        ("fig6a-workloop", {
            "manifest.txt": "fig6a-workloop.txt",
            "passive/manifest.txt": "fig6a-workloop-passive.txt",
        }),
        ("fig6b-feedforward", {"manifest.txt": "fig6b-feedforward.txt"}),
        ("fig7-dahl-fit", {"manifest.txt": "fig7-dahl-fit.txt"}),
    ],
)
def test_preset_manifest_matches_golden(tmp_path, name, manifests):
    run_preset(name, str(tmp_path))
    for produced, golden in manifests.items():
        assert (tmp_path / produced).read_text() == (GOLDEN / golden).read_text(), produced


# Three points of the fig6c pipeline: measure_impedance on both ports under
# the composite force source, and the max_stable_pd gain sweep.
ZWIDTH_SHORT = """[controller]
type = composite
lambda = 20
ff_dahl = true

[analysis]
type = zwidth
grid_min = 1
grid_max = 10
grid_points = 3
include_motor_port = true
"""


def test_zwidth_short_manifest_matches_golden(tmp_path):
    run_experiment(parse_config(ZWIDTH_SHORT), str(tmp_path))
    produced = (tmp_path / "manifest.txt").read_text()
    assert produced == (GOLDEN / "zwidth-short.txt").read_text()


# 4,000 steps of the hysteretic gripper under a force source, on the chirp
# and [run] defaults: the trace a config that names no other key writes.
SIMULATE_SHORT = """[excitation]
type = chirp
f1 = 200
duration = 2
"""


def test_simulate_short_manifest_matches_golden(tmp_path):
    run_experiment(parse_config(SIMULATE_SHORT), str(tmp_path))
    produced = (tmp_path / "manifest.txt").read_text()
    assert produced == (GOLDEN / "simulate-chirp-short.txt").read_text()
