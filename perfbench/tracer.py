"""Per-layer tracing applied from outside the program.

A ``Tracer`` replaces every binding of each listed public function of
``berg`` -- module globals in every loaded ``berg`` module and in the
benchmark's own modules, plus operator aliases inside a class such as
``Cyclotomic.__rmul__`` -- with a wrapper that counts calls and measures
self time (wall time minus the time spent in wrapped children).  Calls
that enter ``berg`` from the benchmark itself are also kept as spans.
Everything stays in memory until ``write_spans`` is called.

Recording is off until ``enabled`` is set, so oracles that run after the
timed pass can call the same functions without being counted.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (metric prefix, module, class or None, attribute names bound to one
# implementation or to related operators reported together)
TARGETS = (
    ("scalars.mul", "berg.scalars", "ExactComplex", ("__mul__", "__rmul__")),
    ("scalars.div", "berg.scalars", "ExactComplex", ("__truediv__", "__rtruediv__", "__pow__")),
    ("cyclotomic.mul", "berg.cyclotomic", "Cyclotomic", ("__mul__", "__rmul__")),
    ("cyclotomic.add", "berg.cyclotomic", "Cyclotomic", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("cyclotomic.inverse", "berg.cyclotomic", "Cyclotomic", ("inverse",)),
    ("cyclotomic.to_complex", "berg.cyclotomic", "Cyclotomic", ("to_complex",)),
    ("polynomials.mul", "berg.polynomials", "HoloPolynomial", ("__mul__",)),
    ("polynomials.compose_linear", "berg.polynomials", "HoloPolynomial", ("compose_linear",)),
    ("polynomials.eval", "berg.polynomials", "HoloPolynomial", ("eval",)),
    ("groups.generate_group", "berg.groups", None, ("generate_group",)),
    ("groups.exact_nullspace", "berg.groups", None, ("exact_nullspace",)),
    ("groups.det", "berg.groups", "UnitaryMatrix", ("det",)),
    ("groups.to_numpy", "berg.groups", "UnitaryMatrix", ("to_numpy",)),
    ("groups.to_exact_complex", "berg.groups", "UnitaryMatrix", ("to_exact_complex",)),
    ("invariants.compute_basic_map", "berg.invariants", None, ("compute_basic_map",)),
    ("invariants.reynolds", "berg.invariants", None, ("reynolds",)),
    ("invariants.find_syzygies", "berg.invariants", None, ("find_syzygies",)),
    ("ball.ball_kernel", "berg.ball", None, ("ball_kernel",)),
    ("quotient.deck_sum_kernel", "berg.quotient", None, ("deck_sum_kernel",)),
    ("quotient.dual_deck_sum_kernel", "berg.quotient", None, ("dual_deck_sum_kernel",)),
    ("quotient.pushforward_kernel", "berg.quotient", None, ("pushforward_kernel",)),
    ("quotient.jacobian", "berg.quotient", "CoveringSpec", ("jacobian",)),
    ("hartogs.omega_closed_kernel", "berg.hartogs", None, ("omega_closed_kernel",)),
    ("algebraic.fit_relation", "berg.algebraic", None, ("fit_relation",)),
    ("algebraic.annulus_kernel", "berg.algebraic", None, ("annulus_kernel",)),
    ("algebraic.samples", "berg.algebraic", "KernelSurface", ("samples",)),
    ("verify.integrate", "berg.verify", None, ("integrate",)),
    ("verify.check_transformation_law", "berg.verify", None, ("check_transformation_law",)),
)

# Counters other than calls, summed over the pass (all exact counts).
COUNTERS = (
    "groups.exact_nullspace.cells",
    "invariants.reynolds.zero_images",
    "invariants.compute_basic_map.generators",
    "quotient.deck_terms",
    "algebraic.fit_relation.flops_computed",
    "verify.integrate.samples",
    "verify.integrate.accepted",
)


def _thin_svd_flops(rows: int, cols: int) -> int:
    """Golub-Van Loan operation count for a thin SVD returning V."""
    return 6 * rows * cols * cols + 20 * cols**3


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[float] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter
        self.calls[name] = 0
        self.self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:  # a call from the benchmark itself into berg
                    self.spans.append(
                        {"name": name, "job": self.job, "start": start, "end": start + elapsed}
                    )
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every binding of each target in loaded berg modules and in
        ``extra_modules`` (the benchmark's own modules)."""
        modules = [m for k, m in sys.modules.items() if k == "berg" or k.startswith("berg.")]
        modules += list(extra_modules)
        hooks = self._hooks()
        for name, modname, clsname, attrs in TARGETS:
            owner = sys.modules[modname]
            if clsname is None:
                (attr,) = attrs
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                continue
            cls = getattr(owner, clsname)
            wrapped_by_fn = {}
            for attr in attrs:
                original = cls.__dict__[attr]
                if id(original) not in wrapped_by_fn:
                    wrapped_by_fn[id(original)] = self._wrap(name, original, hooks.get(name))
                setattr(cls, attr, wrapped_by_fn[id(original)])
            # operator aliases bound under other names in the class body
            for key, value in list(cls.__dict__.items()):
                if id(value) in wrapped_by_fn:
                    setattr(cls, key, wrapped_by_fn[id(value)])
        self._observe_draws()

    def _hooks(self) -> dict:
        c = self.counters

        def nullspace(result, rows, *a, **k):
            c["groups.exact_nullspace.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def reynolds(result, *a, **k):
            c["invariants.reynolds.zero_images"] += int(result.is_zero())

        def basic_map(result, *a, **k):
            c["invariants.compute_basic_map.generators"] += len(result.generators)

        def deck(result, group, *a, **k):
            c["quotient.deck_terms"] += group.order

        def fit(result, samples, feature_degree, k_degree, *a, **k):
            rows = len(samples)
            cols = math.comb(result.nfeatures + feature_degree, feature_degree) * (k_degree + 1)
            c["algebraic.fit_relation.flops_computed"] += _thin_svd_flops(rows, cols)

        def integrate(result, spec, *a, **k):
            c["verify.integrate.samples"] += spec.n_samples

        return {
            "groups.exact_nullspace": nullspace,
            "invariants.reynolds": reynolds,
            "invariants.compute_basic_map": basic_map,
            "quotient.deck_sum_kernel": deck,
            "quotient.dual_deck_sum_kernel": deck,
            "algebraic.fit_relation": fit,
            "verify.integrate": integrate,
        }

    def _observe_draws(self) -> None:
        """Count non-zero rejection weights drawn for ``integrate``; the
        sampler is private, so it is observed, not reported as a layer."""
        verify = sys.modules["berg.verify"]
        draw = verify._draw

        def observed(spec, rng, count):
            points, inv = draw(spec, rng, count)
            if self.enabled:
                self.counters["verify.integrate.accepted"] += int((inv > 0).sum())
            return points, inv

        verify._draw = observed

    # -- results ----------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
