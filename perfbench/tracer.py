"""Per-layer tracing of ymft from the outside.

The tracer wraps public functions and methods of the ymft modules and
aggregates, per span name, the number of calls, the self time (the span's
duration minus the time covered by traced child spans) and the total time
(counted for the outermost active span of a name only, so recursion such as
``invert_Y -> _invert_nilpotent -> invert_Y`` is not counted twice).

Functions that modules import by value are rebound in every ymft module
namespace that holds them, including dict tables such as
``dynamics.CHECK_FUNCTIONS``; ``uninstall`` puts every original back.

The extra statistics computed for ``jets.mul`` (computed flops, computed
bytes and the share of useful element products) are timed and subtracted
from the enclosing spans, so they do not inflate the parents' times.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ymft import dynamics, forms, jets, observables, strengths

# name -> (owner, attribute); an owner that is a class is patched in place,
# a module-level function is rebound wherever a ymft namespace holds it.
TARGETS = {
    "jets.mul": (jets.JetAlgebra, "mul_coeffs"),
    "jets.diff": (jets.JetAlgebra, "diff_coeffs"),
    "forms.wedge": (forms.LieForm, "wedge"),
    "forms.d": (forms.LieForm, "d"),
    "forms.hodge": (forms.LieForm, "hodge"),
    "strengths.assemble_Y": (strengths, "assemble_Y"),
    "strengths.invert_Y": (strengths, "invert_Y"),
    "strengths.ring_matmul": (strengths, "ring_matmul"),
    "strengths.ring_matvec": (strengths, "ring_matvec"),
    "strengths.compute_strengths": (strengths, "compute_strengths"),
    "dynamics.field_equations": (dynamics, "field_equations"),
    "dynamics.lagrangian_form": (dynamics, "lagrangian_form"),
    "dynamics.gauge_variation": (dynamics, "gauge_variation"),
    "dynamics.generic_field_equations": (dynamics,
                                         "generic_field_equations"),
    "dynamics.check.gauge-invariance": (dynamics, "check_gauge_invariance"),
    "dynamics.check.noether": (dynamics, "check_noether_identities"),
    "dynamics.check.strength-identities": (dynamics,
                                           "check_strength_identities"),
    "dynamics.check.commutators": (dynamics, "check_commutators"),
    "dynamics.check.linearization": (dynamics, "check_linearization"),
    "dynamics.check.euler-lagrange": (dynamics,
                                      "check_euler_lagrange_consistency"),
    "dynamics.check.strength-transformation": (
        dynamics, "check_strength_transformation"),
    "observables.charge_surface": (observables, "charge_surface"),
    "observables.energy_causality_check": (observables,
                                           "energy_causality_check"),
    "observables.stress_energy": (observables, "stress_energy"),
}


class SpanStats:
    __slots__ = ("calls", "outer_calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Aggregating span recorder; one instance per traced run."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in TARGETS}
        self.mul = {"flops": 0, "bytes": 0, "useful": 0, "products": 0}
        self.hook_s = 0.0
        # one frame per open span: [net child time, instrumentation time]
        self._stack = []
        self._depth = dict.fromkeys(TARGETS, 0)
        self._undo = []
        self._pair_tables = {}

    def reset(self):
        """Clear the aggregates (between ops); wrappers stay installed."""
        self.stats = {name: SpanStats() for name in TARGETS}
        self.mul = dict.fromkeys(self.mul, 0)
        self.hook_s = 0.0

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - frame[1]
                stack.pop()
                depth[name] -= 1
                stats = self.stats[name]
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if depth[name] == 0:
                    stats.outer_calls += 1
                    stats.total_s += elapsed
            extra = 0.0
            if after is not None:
                t0 = clock()
                after(args, result)
                extra = clock() - t0
                self.hook_s += extra
            if stack:
                stack[-1][0] += elapsed
                stack[-1][1] += frame[1] + extra
            return result

        return traced

    def _mul_after(self, args, out):
        """Computed work of one jet product (pair-table kernel)."""
        alg, a, b = args
        pairs = len(alg.pair_i)
        batch = out.size // alg.n_terms
        products = batch * pairs
        mul = self.mul
        mul["products"] += products
        # one multiply and one accumulate per (batch element, pair)
        mul["flops"] += 2 * products
        # operands read, result written, and the pair-product temporary
        mul["bytes"] += out.itemsize * (a.size + b.size + out.size
                                        + products)
        # useful products: sum over pairs (i, j) of [a_i != 0][b_j != 0],
        # i.e. nz(a) . (nz(b) @ pairs^T) with pairs the 0/1 pair table
        table = self._pair_tables.get(id(alg))
        if table is None:
            table = np.zeros((alg.n_terms, alg.n_terms))
            table[alg.pair_j, alg.pair_i] = 1.0
            self._pair_tables[id(alg)] = table
        hits = (b != 0).astype(float) @ table
        mul["useful"] += int(np.sum((a != 0) * hits))

    # -- installation --------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "ymft" or key.startswith("ymft.")]
        for name, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr)
            after = self._mul_after if name == "jets.mul" else None
            wrapper = self._wrap(name, original, after)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append(
                                    lambda d=value, k=k, v=v:
                                    d.__setitem__(k, v))

    def _rebind(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer numbers for the work recorded since the last reset."""
        s = self.stats
        out = {}
        for name in ("jets.mul", "forms.wedge", "strengths.assemble_Y", "strengths.invert_Y",
                     "strengths.ring_matmul", "strengths.ring_matvec",
                     "strengths.compute_strengths",
                     "dynamics.field_equations", "dynamics.lagrangian_form",
                     "dynamics.gauge_variation"):
            out[f"{name}.calls"] = s[name].calls
        for name in ("jets.mul", "jets.diff", "forms.wedge", "forms.d",
                     "forms.hodge",
                     "strengths.assemble_Y", "strengths.invert_Y"):
            out[f"{name}.self_s"] = s[name].self_s
        for name in ("strengths.assemble_Y", "strengths.invert_Y",
                     "strengths.ring_matmul", "strengths.ring_matvec",
                     "dynamics.generic_field_equations"):
            out[f"{name}.total_s"] = s[name].total_s
        for name in TARGETS:
            if name.startswith("dynamics.check."):
                out[f"{name}.s"] = s[name].total_s
        for name in ("observables.charge_surface",
                     "observables.energy_causality_check",
                     "observables.stress_energy"):
            out[f"{name}.s"] = s[name].total_s
        out["jets.mul.flops"] = self.mul["flops"]
        out["jets.mul.bytes"] = self.mul["bytes"]
        products = self.mul["products"]
        out["jets.mul.useful_frac"] = (self.mul["useful"] / products
                                       if products else 0.0)
        out["trace.hook_s"] = self.hook_s
        out["strengths.invert_Y.outer_calls"] = s[
            "strengths.invert_Y"].outer_calls
        return out
