"""The benchmark tracer (bench/tracing.py) patches package names from outside.

It wraps ``plant.simulate_backdriven``, ``plant.as_signal``,
``controllers.make_controller``, ``lti.DiscreteFilter.step`` and other names,
so renaming or deleting one of them must fail here, not only in a later
traced benchmark run. It counts a controller's steps by wrapping ``ctrl.step``
on each runtime that does not already carry one of its own, so each step of
a dob, pd and composite run must show in ``controllers.step.calls``. One short benchmark run, untraced and traced, checks
the whole harness end to end.
"""

import json
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

# every controller step is counted: a runtime's step must stay a method of its class
from fluidsea.controllers import CompositeConfig, DahlEstimate, DOBConfig, FeedforwardConfig, PDConfig
g = plant.PlantParams.gripper()
for kind, cfg in (
    ("dob", DOBConfig(m_n=g.m)),
    ("pd", PDConfig(K_p=88.4, K_d=1.768, delay_samples=1)),
    ("composite", CompositeConfig(
        DOBConfig(m_n=g.m),
        FeedforwardConfig(g.b_e, g.k_e, g.b_s, g.k_s, DahlEstimate(g.F_c, g.sigma)),
    )),
):
    tracer.reset()
    n = len(plant.simulate(g, cfg, 0.1, None, duration=0.01))
    m = tracer.metrics()
    assert m["controllers.step.calls"] == n == 20, (kind, m["controllers.step.calls"], n)
    assert m["controllers.step.us_per_call." + kind] > 0, kind
"""


def test_tracer_installs_and_counts():
    script = _SCRIPT.format(bench=os.path.join(ROOT, "bench"), src=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_runs_once():
    # --seconds 0 gives one untraced and one traced pass of the workload
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "workloop-presets", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
