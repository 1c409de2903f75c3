"""Spans around zenobell's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``zenobell.*`` namespace that binds it: ``cli``, ``gates``, ``selftest``,
``bell``, ``dynamics`` and ``trajectories`` import names directly, so
patching only the defining module would miss their calls.
``Tracer.uninstall`` puts the originals back.

Each span records its name, start and end (``perf_counter``), the span
that caused it, the job it ran in and its thread.  A span opened on a
sweep-pool thread with nothing open on that thread is a child of the
span open on the main thread, which is the dispatch call that started
the pool.  Self time is a span's duration minus the union of its
children's intervals; the union matters because pool threads overlap.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# Layer name -> the functions it covers, as (module, attribute).
TARGETS = {
    "config.parse_config": [("config", "parse_config")],
    "hilbert.embed": [("hilbert", "embed")],
    "dynamics.h_cond": [("dynamics", "h_cond_two_level"), ("dynamics", "h_cond_lambda")],
    "dynamics.evolve_no_jump": [("dynamics", "evolve_no_jump")],
    "gates.prepare_pair": [("gates", "prepare_pair")],
    "gates.cnot_pulse": [("gates", "cnot_pulse")],
    "pbg.pbg_final_state": [("pbg", "pbg_final_state")],
    "bell.correlation": [("bell", "correlation")],
    "bell.bs_value": [("bell", "bs_value")],
    "bell.sample_correlation": [("bell", "sample_correlation")],
    "bell.mermin_n": [("bell", "mermin_n")],
    "bell.bs_landscape": [("bell", "bs_landscape")],
    "trajectories.run_trajectories": [("trajectories", "run_trajectories")],
    "cli.render_csv": [("cli", "render_csv")],
    "cli.dispatch": [("cli", "run_scenario"), ("cli", "run_figure")],
    "selftest.run_selftest": [("selftest", "run_selftest")],
}


def _h_cond_info(args, result):
    spec = args["spec"]
    return {
        "base": (spec.atom_levels, spec.g, spec.kappa, spec.gamma, spec.n_max),
        "full": result.entries.tobytes(),
    }


def _evolve_info(args, result):
    return {"key": (args["h"].entries.tobytes(), float(args["t"]))}


def _trajectories_info(args, result):
    t_end = args["t_end"]
    return {"steps": round(t_end / result.dt) if t_end > 0 else 0, "traj": args["n_traj"]}


# Per-layer facts taken from a call's arguments and result, after its span ends.
INFO = {
    "dynamics.h_cond": _h_cond_info,
    "dynamics.evolve_no_jump": _evolve_info,
    "bell.sample_correlation": lambda args, result: {"shots": args["shots"]},
    # computed bytes of the dense 2^N x 2^N complex operator
    "bell.mermin_n": lambda args, result: {"bytes": 16 * 4 ** len(args["state"].layout.dims)},
    "trajectories.run_trajectories": _trajectories_info,
    "cli.render_csv": lambda args, result: {"bytes": len(result.encode())},
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "thread", "info")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        info = INFO.get(name)
        signature = inspect.signature(func) if info else None

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_thread and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span()
            span.id, span.name, span.parent = next(self._ids), name, parent
            span.job, span.thread, span.info = self.job, threading.get_ident(), None
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("zenobell.selftest")  # the CLI imports it on first use
        package = [m for key, m in sys.modules.items() if key == "zenobell" or key.startswith("zenobell.")]
        for name, targets in TARGETS.items():
            for module, attr in targets:
                original = getattr(sys.modules[f"zenobell.{module}"], attr)
                wrapper = self._wrap(name, original)
                for namespace in package:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patched.append((namespace, key, original))
                            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _distinct_ratio(spans: list[Span], key: str) -> float:
    """Distinct keys within each job, summed over jobs, per call."""
    per_job = defaultdict(set)
    for s in spans:
        if s.info:
            per_job[s.job].add(s.info[key])
    return sum(len(v) for v in per_job.values()) / len(spans) if spans else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        self_s[s.name] += (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))

    def total(name, key):
        return sum(s.info[key] for s in by_name[name] if s.info)

    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.self_s"] = self_s[name]
    out["dynamics.h_cond.distinct_ratio"] = _distinct_ratio(by_name["dynamics.h_cond"], "full")
    out["dynamics.h_cond.base_distinct_ratio"] = _distinct_ratio(by_name["dynamics.h_cond"], "base")
    out["dynamics.evolve_no_jump.distinct_ratio"] = _distinct_ratio(by_name["dynamics.evolve_no_jump"], "key")
    out["bell.sample_correlation.shots"] = total("bell.sample_correlation", "shots")
    out["bell.mermin_n.bytes_computed"] = total("bell.mermin_n", "bytes")
    out["trajectories.steps"] = total("trajectories.run_trajectories", "steps")
    out["trajectories.traj"] = total("trajectories.run_trajectories", "traj")
    out["cli.render_csv.bytes"] = total("cli.render_csv", "bytes")
    return out
