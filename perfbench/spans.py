"""Benchmark-side tracing of the calls into ctqkd's layers.

A Tracer wraps public functions and methods of protocol, light, detector,
attacks, analysis and fock while it is installed, and restores them on exit.
A module-level function is replaced in every ctqkd module that binds it, since
callers look it up in their own namespace (protocol.power_test,
analysis.run_session, attacks.modulate_batch); a method is replaced on its
class.  Each wrapped call is a span; its self time is its duration minus the
part of it covered by nested spans, so the self times of one op add up to the
op's traced wall time.  The wrappers only time and count: they call the
original with the same arguments, so the RNG stream is unchanged.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter, process_time

from ctqkd import analysis, attacks, detector, fock, light, protocol

ATTACK_CLASSES = {kind: cls for kind, cls in attacks.ATTACK_KINDS.items() if cls is not None}

# (owner, attribute, span name); several attributes may share one name.
SPANS = [
    (protocol, "run_session", "protocol.session_self"),
    (protocol, "alice_prepare", "protocol.prepare"),
    (protocol.PulseBatch, "propagated", "protocol.fiber"),
    (protocol, "modulate_batch", "protocol.modulate"),
    (protocol, "bob_monitor_tap", "protocol.bob_monitor"),
    (protocol, "separate_modes", "protocol.separate"),
    (protocol, "alice_thermal_monitor", "protocol.alice_monitor"),
    (protocol, "measure_interference", "protocol.interfere"),
    (protocol, "sift_and_qber", "protocol.sift"),
    (light.FieldArray, "where", "light.where"),
    (light.FieldArray, "copy", "light.copy"),
    (light.FieldArray, "attenuated", "light.attenuated"),
    (light.FieldArray, "phase_shifted", "light.phase_shifted"),
    (light.FieldArray, "noclick_factors", "light.noclick"),
    (detector, "power_test", "detector.power_test"),
    (detector, "click_prob_state", "detector.click_prob_state"),
    *[(cls, "apply_return", f"attacks.{kind}.return") for kind, cls in ATTACK_CLASSES.items()],
    (attacks.TrojanHorse, "apply_forward", "attacks.trojan.forward"),
    *[(cls, "finalize_report", "attacks.finalize") for cls in ATTACK_CLASSES.values()],
    (analysis, "run_sweep", "analysis.sweep_self"),
    (fock, "coherent_state", "fock.state"),
    (fock, "thermal_state", "fock.state"),
    (fock, "fock_state", "fock.state"),
    (fock.DensityMatrix, "__init__", "fock.density_init"),
    (fock, "attenuate", "fock.attenuate"),
    (fock, "phase_shift", "fock.phase_shift"),
    (fock, "trace_distance", "fock.spectral"),
    (fock, "min_eigenvalue", "fock.spectral"),
    (fock, "expectation", "fock.expectation"),
]

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def ctqkd_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "ctqkd" or name.startswith("ctqkd.")]


class Tracer:
    """Self time and call count per span name, plus the counts the per-layer
    metrics need, accumulated over every op run while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.pulses = 0
        self.gates = 0
        self.sweep_sessions = 0
        self.session_alloc_peak = 0  # bytes above a session's start, while tracemalloc runs
        self.fock_cpu_s = 0.0
        self.fock_wall_s = 0.0
        self._stack = []
        self._fock_depth = 0
        self._saved = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        counters = {"protocol.session_self": self._session_counts,
                    "detector.power_test": self._gate_counts}
        for owner, attr, name in SPANS:
            count = counters.get(name, lambda fn: fn)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._span(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._span(name, count(raw)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(name, count(orig))
            for mod in ctqkd_modules():
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)
        # Sessions a sweep runs are counted where the sweep looks run_session up.
        self._set(analysis, "run_session", self._sweep_counts(analysis.run_session))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        is_fock = name.startswith("fock.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer_fock = is_fock and self._fock_depth == 0
            if is_fock:
                self._fock_depth += 1
                if outer_fock:
                    c0 = process_time()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                self_s[name] += dt - inner
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                if is_fock:
                    self._fock_depth -= 1
                    if outer_fock:
                        self.fock_cpu_s += process_time() - c0
                        self.fock_wall_s += dt

        return span

    def _session_counts(self, fn):
        @functools.wraps(fn)
        def session(cfg, *args, **kwargs):
            self.pulses += cfg.n_pulses
            if not tracemalloc.is_tracing():
                return fn(cfg, *args, **kwargs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.session_alloc_peak = max(self.session_alloc_peak, peak)

        return session

    def _gate_counts(self, fn):
        @functools.wraps(fn)
        def power_test(stream, *args, **kwargs):
            self.gates += stream.n_gates
            return fn(stream, *args, **kwargs)

        return power_test

    def _sweep_counts(self, fn):
        @functools.wraps(fn)
        def session(*args, **kwargs):
            self.sweep_sessions += 1
            return fn(*args, **kwargs)

        return session
