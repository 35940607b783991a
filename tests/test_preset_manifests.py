"""The fast presets' artifacts, pinned byte for byte.

Each preset runs into a temporary directory, and its ``manifest.txt`` (the
SHA-256 of every artifact) must equal the golden copy under
``tests/data/manifests``. A change that moves any artifact of these
pipelines, even in the last printed digit, fails here.
"""

from pathlib import Path

import pytest

from fluidsea.experiments import run_preset

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
