"""Per-layer tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces public functions of ``fluidsea`` at the module
(or class) attributes where their callers look them up, for example
``fluidsea.impedance.simulate`` and ``fluidsea.sysid.estimate_frf``. Nothing
under ``src/`` changes.

Two kinds of record are kept in memory and written out at the end:

* spans (name, start, end, parent, request) for calls at layer boundaries;
  every span opened under one ``fluidsea.cli.main`` call shares its request
  number;
* counters (calls, busy seconds) for per-step calls: controller steps,
  ``DiscreteFilter.step`` and signal evaluations. These are too frequent for
  spans.

A span's self time is its duration minus the time its child spans cover.
``plant.simulate.self_s`` also leaves out the counted busy time of the
controller steps and signal evaluations made inside the loop, so it is the
plant's own work: RK4 stages, recording and the divergence guard.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy

_clock = time.perf_counter

_KINDS = {
    "NoneType": "passive", "NullController": "passive",
    "DOBConfig": "dob", "DOBController": "dob",
    "PDConfig": "pd", "PDController": "pd",
    "CompositeConfig": "composite", "CompositeController": "composite",
    "ProportionalFFConfig": "proportional", "ProportionalFFController": "proportional",
}


def controller_kind(controller) -> str:
    return _KINDS.get(type(controller).__name__, type(controller).__name__)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _counting(counter, fn):
    """Wrap a per-step callable: count its calls and add up its busy time."""

    def counted(*args):
        t0 = _clock()
        result = fn(*args)
        counter[1] += _clock() - t0
        counter[0] += 1
        return result

    return counted


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = 0
        # name -> [calls, busy_s]; sysid.fft holds [calls, points]
        self.counters: dict[str, list] = {}

    def counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0])

    # -- records -----------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: drop spans, zero counters in place."""
        self.spans = []
        self._stack = []
        for c in self.counters.values():
            c[0], c[1] = 0, 0.0

    def _inner_busy(self) -> float:
        """Busy time of the per-step calls a simulation loop makes itself."""
        return sum(
            c[1] for name, c in self.counters.items()
            if name.startswith("controllers.step.") or name == "signals.eval"
        )

    def in_span(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]]["name"] == name

    def _span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span; hooks run outside the timed part."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "request": tracer.request,
            }
            if before is not None:
                before(span, args, kwargs)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = _clock()
                tracer._stack.pop()
                span["error"] = type(exc).__name__
                if after is not None:
                    after(span, args, kwargs, exc)
                raise
            span["end"] = _clock()
            tracer._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``fluidsea`` module attribute that refers to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fluidsea" or modname.startswith("fluidsea.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def _wrap_function(self, module, attr, name, before=None, after=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self._span(name, original, before, after))

    def install(self) -> None:
        import fluidsea.cli
        from fluidsea import controllers, experiments, impedance, lti, passivity, plant
        from fluidsea import rng, signals, sysid

        tracer = self

        def new_request(span, args, kwargs):
            tracer.request += 1
            span["request"] = tracer.request

        self._wrap_function(fluidsea.cli, "main", "cli.main", before=new_request)

        # experiments: config parsing, orchestration, artifact writes
        self._wrap_function(experiments, "parse_config_file", "experiments.parse_config")
        self._wrap_function(experiments, "run_experiment", "experiments.run_experiment")
        self._wrap_function(experiments, "run_preset", "experiments.run_preset")

        def write_before(span, args, kwargs):
            span["file"] = _arg(args, kwargs, 1, "name")

        def write_after(span, args, kwargs, result):
            if isinstance(result, str):
                span["bytes"] = os.path.getsize(result)

        writer = experiments.ArtifactWriter
        writer.write = self._span("experiments.write", writer.write, write_before, write_after)
        writer.finish = self._span("experiments.manifest", writer.finish)

        # plant: the two simulation loops, with per-step controller and signal counters
        def sim_before(span, args, kwargs):
            span["kind"] = controller_kind(_arg(args, kwargs, 1, "controller"))
            f_ext = _arg(args, kwargs, 2, "f_ext")
            span["omega"] = getattr(f_ext, "omega", None)
            span["dt"] = _arg(args, kwargs, 5, "dt", plant.DEFAULT_DT)
            span["busy0"] = tracer._inner_busy()

        def sim_after(span, args, kwargs, result):
            span["inner_busy"] = tracer._inner_busy() - span.pop("busy0")
            if isinstance(result, plant.SimulationDivergedError):
                span["steps"] = result.step_index + 1
                span["diverged"] = 1
            elif isinstance(result, plant.SimTrace):
                span["steps"] = len(result)

        def backdriven_before(span, args, kwargs):
            span["kind"] = controller_kind(_arg(args, kwargs, 1, "controller"))
            span["busy0"] = tracer._inner_busy()

        self._wrap_function(plant, "simulate", "plant.simulate", sim_before, sim_after)
        self._wrap_function(plant, "simulate_backdriven", "plant.simulate_backdriven",
                            backdriven_before, sim_after)

        as_signal = plant.as_signal
        signal_counter = self.counter("signals.eval")
        self._replace_everywhere(
            as_signal, lambda spec: _counting(signal_counter, as_signal(spec))
        )
        for method in ("position", "velocity", "acceleration"):
            motion = getattr(signals.SineMotionSpec, method)
            setattr(signals.SineMotionSpec, method, _counting(signal_counter, motion))

        make_controller = controllers.make_controller

        def traced_make_controller(config, dt):
            ctrl = make_controller(config, dt)
            if "step" not in vars(ctrl):  # an already-built controller keeps its wrapper
                counter = tracer.counter(f"controllers.step.{controller_kind(ctrl)}")
                ctrl.step = _counting(counter, ctrl.step)
            return ctrl

        self._replace_everywhere(make_controller, traced_make_controller)
        lti.DiscreteFilter.step = _counting(
            self.counter("lti.DiscreteFilter.step"), lti.DiscreteFilter.step
        )

        # impedance
        def impedance_after(span, args, kwargs, result):
            if isinstance(result, sysid.FrequencyResponse):
                span["omegas"] = [float(w) for w in result.omegas]
                span["valid"] = [bool(v) for v in result.valid]

        self._wrap_function(impedance, "measure_impedance", "impedance.measure_impedance",
                            after=impedance_after)
        for attr in ("max_stable_pd", "quasi_static_backdrive", "work_loop", "fit_dahl"):
            self._wrap_function(impedance, attr, f"impedance.{attr}")

        # sysid
        def frf_before(span, args, kwargs):
            span["samples"] = int(numpy.size(_arg(args, kwargs, 0, "u")))

        def frf_after(span, args, kwargs, result):
            if isinstance(result, sysid.FrequencyResponse):
                span["invalid"] = int(numpy.sum(~result.valid))

        def fit_after(span, args, kwargs, result):
            if isinstance(result, tuple):
                span["iterations"] = result[1].iterations

        self._wrap_function(sysid, "run_sysid", "sysid.run_sysid")
        self._wrap_function(sysid, "estimate_frf", "sysid.estimate_frf", frf_before, frf_after)
        self._wrap_function(sysid, "fit_tf", "sysid.fit_tf", after=fit_after)
        self._wrap_function(sysid, "extract_params", "sysid.extract_params")

        fft_counter = self.counter("sysid.fft")

        def counting_fft(fn):
            @functools.wraps(fn)
            def counted(a, n=None, *args, **kwargs):
                if tracer.in_span("sysid.estimate_frf"):
                    fft_counter[0] += 1
                    fft_counter[1] += n if n is not None else numpy.shape(a)[-1]
                return fn(a, n, *args, **kwargs)
            return counted

        for attr in ("rfft", "irfft"):
            setattr(numpy.fft, attr, counting_fft(getattr(numpy.fft, attr)))

        # rng and passivity
        def normal_before(span, args, kwargs):
            span["samples"] = int(_arg(args, kwargs, 1, "n"))

        rng.Xorshift64Star.normal_array = self._span(
            "rng.normal_array", rng.Xorshift64Star.normal_array, normal_before
        )
        self._wrap_function(passivity, "check_passive", "passivity.check_passive")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]

        def named(name):
            return [(i, s) for i, s in enumerate(spans) if s["name"] == name]

        def total(name):
            return sum(s["end"] - s["start"] for _, s in named(name))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counters
        m: dict[str, float] = {}

        cli = named("cli.main")
        m["cli.main.calls"] = len(cli)
        m["cli.main.self_s"] = sum(s["end"] - s["start"] - child_s[i] for i, s in cli)

        # plant
        sims = named("plant.simulate")
        m["plant.simulate.calls"] = len(sims)
        m["plant.simulate.steps"] = sum(s.get("steps", 0) for _, s in sims)
        m["plant.simulate.self_s"] = sum(
            s["end"] - s["start"] - child_s[i] - s["inner_busy"] for i, s in sims
        )
        m["plant.simulate.diverged"] = sum(s.get("diverged", 0) for _, s in sims)
        for kind in ("passive", "dob", "pd", "composite"):
            of_kind = [s for _, s in sims if s["kind"] == kind]
            m[f"plant.simulate.us_per_step.{kind}"] = ratio(
                sum(s["end"] - s["start"] for s in of_kind),
                sum(s.get("steps", 0) for s in of_kind), 1e6,
            )
        back = [s for _, s in named("plant.simulate_backdriven")]
        m["plant.simulate_backdriven.steps"] = sum(s.get("steps", 0) for s in back)
        for kind in ("passive", "dob", "composite"):
            of_kind = [s for s in back if s["kind"] == kind]
            m[f"plant.simulate_backdriven.us_per_step.{kind}"] = ratio(
                sum(s["end"] - s["start"] for s in of_kind),
                sum(s.get("steps", 0) for s in of_kind), 1e6,
            )

        # controllers, lti, signals
        m["controllers.step.calls"] = sum(
            v[0] for name, v in c.items() if name.startswith("controllers.step.")
        )
        for kind in ("dob", "pd", "composite"):
            calls, busy = c.get(f"controllers.step.{kind}", (0, 0.0))
            m[f"controllers.step.us_per_call.{kind}"] = ratio(busy, calls, 1e6)
        for name in ("lti.DiscreteFilter.step", "signals.eval"):
            m[f"{name}.calls"], m[f"{name}.busy_s"] = c[name]

        # impedance
        points = invalid = retries = steps = useful = 0
        for i, s in named("impedance.measure_impedance"):
            runs = [r for r in spans if r["parent"] == i and r["name"] == "plant.simulate"]
            steps += sum(r.get("steps", 0) for r in runs)
            for omega, valid in zip(s.get("omegas", []), s.get("valid", [])):
                tries = [r for r in runs if r["omega"] == omega]
                points += 1
                retries += max(len(tries) - 1, 0)
                if valid:
                    useful += round(2.0 * numpy.pi / (omega * tries[-1]["dt"]))
                else:
                    invalid += 1
        m["impedance.measure_impedance.points"] = points
        m["impedance.measure_impedance.s_per_point"] = ratio(
            total("impedance.measure_impedance"), points
        )
        m["impedance.steps_per_point"] = ratio(steps, points)
        m["impedance.retries"] = retries
        m["impedance.invalid_points"] = invalid
        m["impedance.useful_step_frac"] = ratio(useful, steps)
        pd = named("impedance.max_stable_pd")
        m["impedance.max_stable_pd.s"] = total("impedance.max_stable_pd")
        m["impedance.max_stable_pd.trials"] = sum(
            1 for r in spans for i, _ in pd if r["parent"] == i and r["name"] == "plant.simulate"
        )
        for attr in ("quasi_static_backdrive", "work_loop", "fit_dahl"):
            m[f"impedance.{attr}.s"] = total(f"impedance.{attr}")

        # sysid
        frfs = [s for _, s in named("sysid.estimate_frf")]
        m["sysid.estimate_frf.calls"] = len(frfs)
        m["sysid.estimate_frf.s_per_call"] = ratio(total("sysid.estimate_frf"), len(frfs))
        m["sysid.estimate_frf.samples"] = sum(s["samples"] for s in frfs)
        m["sysid.fft.calls"], m["sysid.fft.points"] = c["sysid.fft"]
        m["sysid.fit_tf.s"] = total("sysid.fit_tf")
        m["sysid.fit_tf.iterations"] = sum(s.get("iterations", 0) for _, s in named("sysid.fit_tf"))
        m["sysid.extract_params.s"] = total("sysid.extract_params")
        m["sysid.frf.invalid_points"] = sum(s.get("invalid", 0) for s in frfs)

        # rng
        m["rng.normal_array.s"] = total("rng.normal_array")
        m["rng.normal_array.samples"] = sum(s["samples"] for _, s in named("rng.normal_array"))

        # experiments
        writes = [s for _, s in named("experiments.write")]
        m["experiments.write.files"] = len(writes)
        m["experiments.write.bytes"] = sum(s.get("bytes", 0) for s in writes)
        m["experiments.write.s"] = total("experiments.write")
        traces = [s for s in writes if s.get("file") == "trace.csv"]
        m["experiments.trace_csv.mb_per_s"] = ratio(
            sum(s.get("bytes", 0) for s in traces) / 1e6,
            sum(s["end"] - s["start"] for s in traces),
        )
        m["experiments.manifest.s"] = total("experiments.manifest")
        m["experiments.parse_config.s"] = total("experiments.parse_config")

        # passivity
        checks = named("passivity.check_passive")
        m["passivity.check_passive.calls"] = len(checks)
        m["passivity.check_passive.ms_per_call"] = ratio(
            total("passivity.check_passive"), len(checks), 1e3
        )
        return {k: float(v) for k, v in m.items()}
