"""Span tracing around mfrl's public functions, installed from outside the package.

Each wrap target names a module attribute (``"mfrl.ratelab:mc_path_values"``)
or a class attribute (``"mfrl.fd:GridValueFunction.save"``).  Functions are
wrapped where their caller looks them up: ``ratelab`` imports
``mc_path_values`` by name, so its own module attribute is the one replaced.
A target that no longer exists is recorded as missing.  A span name counts as
present while at least one of its targets exists; a metric that needs a span
name with no target left is left out of the result, never reported as zero.

Counter functions run after the wrapped call returns and receive its bound
arguments, with the return value under ``"return"``, so that a size can be
read from what the program produced rather than from what it was asked for.

Spans carry name, layer, start, end and parent, stay in memory while the
workload runs, and are written out once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "cli",
    "ratelab",
    "mc",
    "trig",
    "problems",
    "meanfield",
    "fd",
    "convolution",
    "metric",
    "torus",
)


def _mesh_nodes(vn) -> int:
    return vn.mesh**vn.N


def _particle_steps(a) -> dict:
    return {"particle_steps": np.size(a["starts"]) * a["n_paths"] * a["n_steps"]}


def _harmonic_evals(a) -> dict:
    return {"harmonic_evals": a["x"].size * a["poly"].degree}


def _column_steps(a) -> dict:
    return {"column_steps": a["rho0"].shape[1] * a["n_t"]}


def _fd_solve_work(a) -> dict:
    return {
        "node_updates": a["mesh"] ** a["N"] * a["n_t"],
        "values_bytes": a["return"].values.nbytes,
    }


def _file_bytes(a) -> dict:
    return {"file_bytes": os.path.getsize(a["path"])}


def _candidates(a) -> dict:
    cfg, vn = a["cfg"], a["vn"]
    per_offset = _mesh_nodes(vn) * cfg.shift_refine
    return {"candidates": (cfg.n_time + vn.mesh) * per_offset}


def _one_pair(a) -> dict:
    return {"pairs": 1}


def _lattice_pairs(a) -> dict:
    return {"pairs": _mesh_nodes(a["vn"])}


#: (target, span name, counter function or None)
WRAPS = (
    ("mfrl.cli:main", "cli.main", None),
    ("mfrl.cli:run_rate_experiment", "ratelab.rate", None),
    ("mfrl.ratelab:sample_complexity_experiment", "ratelab.complexity", None),
    ("mfrl.ratelab:mc_path_values", "mc.paths", _particle_steps),
    ("mfrl.mc:mean_field_eval", "trig.mean_field", _harmonic_evals),
    ("mfrl.problems:TerminalSpec.value_atoms", "problems.terminal", None),
    ("mfrl.ratelab:mean_field_reference_batch", "meanfield.reference", None),
    ("mfrl.meanfield:fokker_planck_flow_batch", "meanfield.flow", _column_steps),
    ("mfrl.meanfield:solve_circulant", "meanfield.circulant", None),
    ("mfrl.ratelab:deposit_empirical", "meanfield.deposit", None),
    ("mfrl.cli:fd_solve", "fd.solve", _fd_solve_work),
    ("mfrl.fd:fd_solve", "fd.solve", _fd_solve_work),
    ("mfrl.fd:GridValueFunction.save", "fd.save", _file_bytes),
    ("mfrl.fd:GridValueFunction.load", "fd.load", None),
    ("mfrl.fd:GridValueFunction.value", "fd.value", None),
    ("mfrl.fd:lipschitz_probe", "fd.probe", None),
    ("mfrl.convolution:inf_convolve", "convolution.inf", _candidates),
    ("mfrl.convolution:gap_scaling_probe", "convolution.gap_probe", None),
    ("mfrl.ratelab:rho_star", "metric.rho_star", _one_pair),
    ("mfrl.convolution:_config_rho_sq", "metric.config_rho", _lattice_pairs),
    ("mfrl.ratelab:w1_circle_density", "torus.w1", None),
    ("mfrl.fd:w1_circle", "torus.w1", None),
    ("mfrl.ratelab:sample_iid", "torus.sample", None),
    ("mfrl.metric:fourier_coefficients", "torus.fourier", None),
    ("mfrl.convolution:fourier_coefficients", "torus.fourier", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    pass_no: int
    counters: dict | None = field(default_factory=dict)
    end: float = 0.0
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """(owner, attribute, raw attribute) for a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Installs span wrappers on demand and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_no = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.present: set[str] = set()  # span names with a live target
        self.missing: set[str] = set()  # targets that no longer resolve
        self.bad_counters: set[str] = set()
        self._targets = []
        for target, name, count in WRAPS:
            found = _resolve(target)
            if found is None:
                self.missing.add(target)
            else:
                self.present.add(name)
                self._targets.append((*found, name, count))

    def install(self) -> None:
        for owner, attr, raw, name, count in self._targets:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, count))
            else:
                wrapped = self._wrap(raw, name, count)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, count):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = dict(bound.arguments)
                except (AttributeError, TypeError):
                    pass  # arguments stays None and the counts are dropped below
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, time.perf_counter(), self.pass_no)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    span.counters = count({**arguments, "return": result})
                except (AttributeError, KeyError, OSError, TypeError, ValueError):
                    # the signature or the result changed under a refactor
                    self.bad_counters.add(name)
                    span.counters = None
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "pass": s.pass_no,
                    "error": s.error,
                    "counters": s.counters,
                }
                fh.write(json.dumps(rec) + "\n")


class CountsDropped(Exception):
    """A span lost its work counts because the wrapped signature changed."""


class PassView:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans: list[Span], first: int):
        self.spans = spans
        self.first = first  # index of this pass's first span in the tracer
        self.children_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None and s.parent >= first:
                self.children_time[s.parent - first] += s.duration

    def _select(self, names):
        return [
            (i, s)
            for i, s in enumerate(self.spans)
            if s.name in names or s.layer in names
        ]

    def count(self, *names) -> int:
        return len(self._select(names))

    def busy(self, *names) -> float:
        """Time covered by the selected spans, nested ones counted once."""
        total = 0.0
        for _, s in self._select(names):
            p = s.parent
            nested = False
            while p is not None and p >= self.first:
                up = self.spans[p - self.first]
                if up.name in names or up.layer in names:
                    nested = True
                    break
                p = up.parent
            if not nested:
                total += s.duration
        return total

    def self_time(self, *names) -> float:
        return sum(s.duration - self.children_time[i] for i, s in self._select(names))

    def _counts(self, key: str, names) -> list:
        spans = [s for _, s in self._select(names)]
        if any(s.counters is None for s in spans):
            raise CountsDropped(key)
        return [s.counters.get(key, 0) for s in spans]

    def total(self, key: str, *names) -> float:
        return sum(self._counts(key, names))

    def largest(self, key: str, *names) -> float:
        return max(self._counts(key, names), default=0)

    def errors(self, layer: str) -> int:
        return sum(1 for _, s in self._select((layer,)) if s.error)


def _per(numerator: float, denominator: float, scale: float) -> float:
    return scale * numerator / denominator if denominator else 0.0


E2E_RATE = "wall_s on rate_common_noise (most) and rate_meanfield; no change on fd_analysis"
E2E_FD = "wall_s on fd_analysis"
E2E_FP = "wall_s on rate_meanfield only; no change on the other two"
E2E_BOTH_RATES = "wall_s on rate_meanfield and rate_common_noise"

#: per-layer metrics: name -> (unit, span names needed, value function, should move)
LAYER_METRICS = {
    "mc.calls": ("count", ("mc.paths",), lambda v: v.count("mc.paths"), E2E_RATE),
    "mc.busy_s": ("s", ("mc.paths",), lambda v: v.busy("mc"), E2E_RATE),
    "mc.self_s": ("s", ("mc.paths",), lambda v: v.self_time("mc"), E2E_RATE),
    "mc.particle_steps": (
        "count",
        ("mc.paths",),
        lambda v: v.total("particle_steps", "mc.paths"),
        E2E_RATE,
    ),
    "mc.ns_per_particle_step": (
        "ns",
        ("mc.paths",),
        lambda v: _per(v.busy("mc"), v.total("particle_steps", "mc.paths"), 1e9),
        E2E_RATE,
    ),
    "trig.calls": ("count", ("trig.mean_field",), lambda v: v.count("trig"), E2E_RATE),
    "trig.busy_s": ("s", ("trig.mean_field",), lambda v: v.busy("trig"), E2E_RATE),
    "trig.harmonic_evals": (
        "count",
        ("trig.mean_field",),
        lambda v: v.total("harmonic_evals", "trig"),
        E2E_RATE,
    ),
    "trig.ns_per_harmonic_eval": (
        "ns",
        ("trig.mean_field",),
        lambda v: _per(v.busy("trig"), v.total("harmonic_evals", "trig"), 1e9),
        E2E_RATE,
    ),
    "problems.terminal_calls": (
        "count",
        ("problems.terminal",),
        lambda v: v.count("problems.terminal"),
        E2E_BOTH_RATES,
    ),
    "problems.terminal_busy_s": (
        "s",
        ("problems.terminal",),
        lambda v: v.busy("problems.terminal"),
        E2E_BOTH_RATES,
    ),
    "meanfield.calls": (
        "count",
        ("meanfield.reference",),
        lambda v: v.count("meanfield.reference"),
        E2E_FP,
    ),
    "meanfield.busy_s": (
        "s",
        ("meanfield.reference",),
        lambda v: v.busy("meanfield"),
        E2E_FP,
    ),
    "meanfield.fp_column_steps": (
        "count",
        ("meanfield.flow",),
        lambda v: v.total("column_steps", "meanfield.flow"),
        E2E_FP,
    ),
    "meanfield.ns_per_column_step": (
        "ns",
        ("meanfield.flow",),
        lambda v: _per(
            v.busy("meanfield.flow"), v.total("column_steps", "meanfield.flow"), 1e9
        ),
        E2E_FP,
    ),
    "meanfield.circulant_s": (
        "s",
        ("meanfield.circulant",),
        lambda v: v.busy("meanfield.circulant"),
        E2E_FP,
    ),
    "meanfield.deposit_s": (
        "s",
        ("meanfield.deposit",),
        lambda v: v.busy("meanfield.deposit"),
        E2E_FP,
    ),
    "fd.busy_s": ("s", ("fd.solve",), lambda v: v.busy("fd"), E2E_FD + " and peak_rss_mb"),
    "fd.node_updates": (
        "count",
        ("fd.solve",),
        lambda v: v.total("node_updates", "fd.solve"),
        E2E_FD,
    ),
    "fd.ns_per_node_update": (
        "ns",
        ("fd.solve",),
        lambda v: _per(v.busy("fd.solve"), v.total("node_updates", "fd.solve"), 1e9),
        E2E_FD,
    ),
    "fd.values_mb": (
        "MB",
        ("fd.solve",),
        lambda v: v.largest("values_bytes", "fd.solve") / 1e6,
        "peak_rss_mb on fd_analysis",
    ),
    "fd.save_s": ("s", ("fd.save",), lambda v: v.busy("fd.save"), E2E_FD),
    "fd.load_s": ("s", ("fd.load",), lambda v: v.busy("fd.load"), E2E_FD),
    "fd.file_mb": (
        "MB",
        ("fd.save",),
        lambda v: v.total("file_bytes", "fd.save") / 1e6,
        E2E_FD + " and peak_rss_mb",
    ),
    "fd.probe_s": (
        "s",
        ("fd.value", "fd.probe"),
        lambda v: v.busy("fd.value", "fd.probe"),
        E2E_FD,
    ),
    "convolution.calls": (
        "count",
        ("convolution.inf",),
        lambda v: v.count("convolution.inf"),
        E2E_FD,
    ),
    "convolution.busy_s": (
        "s",
        ("convolution.inf",),
        lambda v: v.busy("convolution"),
        E2E_FD,
    ),
    "convolution.candidates": (
        "count",
        ("convolution.inf",),
        lambda v: v.total("candidates", "convolution.inf"),
        E2E_FD,
    ),
    "convolution.ns_per_candidate": (
        "ns",
        ("convolution.inf",),
        lambda v: _per(
            v.busy("convolution.inf"), v.total("candidates", "convolution.inf"), 1e9
        ),
        E2E_FD,
    ),
    "metric.rho_pairs": (
        "count",
        ("metric.rho_star", "metric.config_rho"),
        lambda v: v.total("pairs", "metric"),
        E2E_FD,
    ),
    "metric.busy_s": (
        "s",
        ("metric.rho_star", "metric.config_rho"),
        lambda v: v.busy("metric"),
        E2E_FD,
    ),
    "metric.us_per_rho_pair": (
        "us",
        ("metric.rho_star", "metric.config_rho"),
        lambda v: _per(v.busy("metric"), v.total("pairs", "metric"), 1e6),
        E2E_FD,
    ),
    "torus.w1_calls": ("count", ("torus.w1",), lambda v: v.count("torus.w1"), E2E_FD),
    "torus.w1_busy_s": ("s", ("torus.w1",), lambda v: v.busy("torus.w1"), E2E_FD),
    "torus.sample_busy_s": (
        "s",
        ("torus.sample",),
        lambda v: v.busy("torus.sample"),
        E2E_FD,
    ),
    "torus.fourier_busy_s": (
        "s",
        ("torus.fourier",),
        lambda v: v.busy("torus.fourier"),
        E2E_FD,
    ),
    "ratelab.self_s": (
        "s",
        ("ratelab.rate", "ratelab.complexity"),
        lambda v: v.self_time("ratelab"),
        E2E_BOTH_RATES + " (expected small)",
    ),
    "cli.self_s": (
        "s",
        ("cli.main",),
        lambda v: v.self_time("cli"),
        E2E_BOTH_RATES + " (expected small)",
    ),
}

for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.errors"] = (
        "count",
        tuple(name for _, name, _ in WRAPS if name.startswith(_layer + ".")),
        functools.partial(PassView.errors, layer=_layer),
        "ok_frac (1 - failed_frac) on every workload",
    )

#: computed by run.py from traced against untraced passes
OVERHEAD_METRIC = (
    "trace.overhead_frac",
    "ratio",
    "ok_frac (1 - failed_frac); it is the cost of tracing, relative to wall_s",
)


def pass_metrics(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass whose spans start at ``first``."""
    view = PassView(tracer.spans[first:], first)
    out = {}
    for name, (_, needs, value, _) in LAYER_METRICS.items():
        usable = [n in tracer.present for n in needs]
        # an error count needs one live target of its layer, any other metric all
        if not (any(usable) if name.endswith(".errors") else all(usable)):
            continue
        try:
            out[name] = float(value(view))
        except CountsDropped:
            pass
    return out


def layer_shares(tracer: Tracer, first: int, wall: float) -> dict[str, float]:
    """Busy time of each layer as a share of one pass's wall time."""
    view = PassView(tracer.spans[first:], first)
    return {layer: view.busy(layer) / wall for layer in LAYERS}
