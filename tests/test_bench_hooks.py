"""The benchmark tracer (bench/tracing.py) patches package names from outside.

It wraps ``plant.simulate_backdriven``, ``plant.as_signal``,
``controllers.make_controller``, ``lti.DiscreteFilter.step`` and other names,
so renaming or deleting one of them must fail here, not only in a later
traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracing import Tracer

tracer = Tracer()
tracer.install()
from fluidsea import impedance, plant
n = len(impedance.quasi_static_backdrive(plant.PlantParams.gripper(), None, cycles=1))
n += len(impedance.simulate(plant.PlantParams.gripper(), None, 0.1, None, duration=0.01))
m = tracer.metrics()
steps = m["plant.simulate_backdriven.steps"] + m["plant.simulate.steps"]
assert steps == n > 0, (steps, n)
assert m["signals.eval.calls"] > 0
"""


def test_tracer_installs_and_counts():
    script = _SCRIPT.format(bench=os.path.join(ROOT, "bench"), src=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
