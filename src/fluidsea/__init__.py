"""Fluid-driven series-elastic actuation: simulation, analysis, synthesis.

The package simulates a 2-DOF motor / hydraulic-line / endpoint plant with
Dahl hysteresis, runs disturbance-observer force feedback with model-based
feedforward friction compensation, verifies observer passivity bounds in
closed form and numerically, and reproduces chirp system identification and
impedance-range (Z-width) measurements at desk scale.
"""

from .controllers import (
    CompositeConfig,
    DOBConfig,
    DahlEstimate,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
)
from .impedance import (
    DahlFit,
    WorkLoop,
    ZWidthCurve,
    fit_dahl,
    max_stable_pd,
    measure_impedance,
    quasi_static_backdrive,
    work_loop,
    zwidth,
)
from .lti import (
    DiscreteFilter,
    FrequencyGrid,
    Polynomial,
    RationalTF,
    discretize_tustin,
    residues_at_imag_poles,
)
from .passivity import (
    NominalBounds,
    PassivityReport,
    check_passive,
    dob_admittance,
    endpoint_impedance,
    nominal_bounds,
)
from .plant import (
    DEFAULT_DT,
    PlantParams,
    PlantState,
    SimTrace,
    SimulationDivergedError,
    linear_model,
    simulate,
    simulate_backdriven,
)
from .signals import ChirpSpec, ConstantSpec, SineMotionSpec, SineSpec
from .sysid import (
    FrequencyResponse,
    estimate_frf,
    extract_params,
    fit_tf,
    run_sysid,
)

__version__ = "0.1.0"
