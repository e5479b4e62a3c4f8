"""Spans around the calls into each ``varexp`` module, recorded from outside.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces the
public functions of each layer, in every module that imported them by
name, with wrappers that push a span on a stack, call the original and
pop the span.  The wrappers return the original's result object
unchanged, so a traced run computes exactly what an untraced one does.

Spans live in memory; :func:`layer_metrics` turns them into the
per-layer numbers after the traced iteration.  A span's self time is its
duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  A name is patched in each module that
# calls it through its own namespace.  Internal delegations that would
# only nest a span inside its own layer are left alone: luxemburg_norm
# calls luxemburg_norm_measure through the luxemburg module, so measure
# is patched where other modules imported it, not in luxemburg itself.
FUNCTION_TARGETS = [
    ("luxemburg", "luxemburg_norm", "luxemburg.norm"),
    ("sobolev", "luxemburg_norm", "luxemburg.norm"),
    ("experiments", "luxemburg_norm", "luxemburg.norm"),
    ("concentration", "luxemburg_norm", "luxemburg.norm"),
    ("cli", "luxemburg_norm", "luxemburg.norm"),
    ("luxemburg", "norm_with_gradient", "luxemburg.norm_grad"),
    ("sobolev", "norm_with_gradient", "luxemburg.norm_grad"),
    ("concentration", "luxemburg_norm_measure", "luxemburg.measure"),
    ("luxemburg", "gradient_magnitude", "grid.gradient"),
    ("sobolev", "gradient_magnitude", "grid.gradient"),
    ("sobolev", "gradient_of_values", "grid.gradient"),
    ("concentration", "gradient_magnitude", "grid.gradient"),
    ("experiments", "gradient_magnitude", "grid.gradient"),
    ("sobolev", "gradient_adjoint", "grid.adjoint"),
    ("sobolev", "minimize_sobolev", "sobolev.minimize"),
    ("experiments", "minimize_sobolev", "sobolev.minimize"),
    ("cli", "minimize_sobolev", "sobolev.minimize"),
    ("concentration", "make_bubbles", "concentration.bubbles"),
    ("experiments", "make_bubbles", "concentration.bubbles"),
    ("concentration", "measure_masses", "concentration.masses"),
    ("concentration", "detect_atoms", "concentration.masses"),
    ("concentration", "check_refined_inequality", "concentration.refined"),
    ("concentration", "classify_dichotomy", "concentration.classify"),
    ("experiments", "scaling_limit_experiment", "experiments.scaling"),
    ("experiments", "dilation_check", "experiments.dilation"),
    ("experiments", "theorem61_experiment", "experiments.theorem61"),
    ("experiments", "subcritical_ball_experiment", "experiments.subcritical_ball"),
    ("exponents", "as_exponent_field", "exponents.field"),
    ("sobolev", "as_exponent_field", "exponents.field"),
    ("experiments", "as_exponent_field", "exponents.field"),
    ("cli", "compile_on_domain", "expressions.compile"),
    ("cli", "run", "cli.run"),
]

# ExponentField methods; patched on the class, so every caller sees them.
FIELD_METHODS = [("from_callable", True), ("restrict", False)]

# the drivers the workloads run; continuity_experiment descends, and no
# workload runs it
EXPERIMENT_DRIVERS = ["scaling", "dilation", "theorem61", "subcritical_ball"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder with a call stack (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = False

    def clear(self):
        self.spans.clear()
        self._stack.clear()

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                return annotate(span, out)
            return out
        return traced


def _record_iterations(span, out):
    span.info["iterations"] = getattr(out, "iterations", None)
    return out


def _compiled(tracer: Tracer):
    """The callable compile_on_domain returns is evaluated later, inside
    field construction; its calls get their own span."""
    def annotate(span, fn):
        return tracer.wrap(fn, "expressions.eval")
    return annotate


def _precond(tracer: Tracer, cached):
    """Wrapper outside the lru_cache of ``sobolev._stiffness_solve``.

    A call that grows the cache's miss count built a factorization.  The
    returned solve callable is wrapped so each preconditioner solve gets
    a span.
    """
    @functools.wraps(cached)
    def lookup(domain):
        if not tracer.enabled:
            return cached(domain)
        misses = cached.cache_info().misses
        span = tracer.begin("sobolev.precond.factor")
        try:
            solve, free = cached(domain)
        finally:
            tracer.end(span)
        span.info["factorized"] = cached.cache_info().misses > misses
        return tracer.wrap(solve, "sobolev.precond.solve"), free
    return lookup


def install(tracer: Tracer):
    """Patch the layer entry points; returns ``(undo, missing)``.

    ``missing`` lists targets that the program no longer has, so a later
    version of the package can still be traced where it can.
    """
    saved = []
    missing = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod, attr, name in FUNCTION_TARGETS:
        module = importlib.import_module(f"varexp.{mod}")
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        annotate = None
        if name == "luxemburg.norm":
            annotate = _record_iterations
        elif name == "expressions.compile":
            annotate = _compiled(tracer)
        patch(module, attr, tracer.wrap(fn, name, annotate))

    sobolev = importlib.import_module("varexp.sobolev")
    cached = getattr(sobolev, "_stiffness_solve", None)
    if cached is None or not hasattr(cached, "cache_info"):
        missing.append("sobolev._stiffness_solve")
    else:
        patch(sobolev, "_stiffness_solve", _precond(tracer, cached))

    field_cls = getattr(importlib.import_module("varexp.exponents"), "ExponentField")
    for attr, is_classmethod in FIELD_METHODS:
        raw = field_cls.__dict__.get(attr)
        if raw is None:
            missing.append(f"exponents.ExponentField.{attr}")
            continue
        fn = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(fn, "exponents.field")
        patch(field_cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
        saved.clear()

    return undo, missing


def _within(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced iteration."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        # a field built inside another field call (restrict -> from_callable)
        # is part of the outer call, not a separate one
        if s.parent is None or spans[s.parent].name != s.name:
            calls[s.name] = calls.get(s.name, 0) + 1

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    norm_iters = [s.info["iterations"] for s in spans
                  if s.name == "luxemburg.norm" and s.info.get("iterations") is not None]
    factor = [s for s in spans if s.name == "sobolev.precond.factor"
              and s.info.get("factorized")]
    solves = [s for s in spans if s.name == "sobolev.precond.solve"]
    descent_norms = sum(
        1 for i, s in enumerate(spans)
        if s.name in ("luxemburg.norm", "luxemburg.norm_grad")
        and _within(spans, i, "sobolev.minimize"))
    out = {
        "luxemburg.norm.calls": c("luxemburg.norm"),
        "luxemburg.norm.self_s": t("luxemburg.norm"),
        "luxemburg.norm.iters_per_call":
            sum(norm_iters) / len(norm_iters) if norm_iters else 0.0,
        "luxemburg.norm_grad.calls": c("luxemburg.norm_grad"),
        "luxemburg.norm_grad.self_s": t("luxemburg.norm_grad"),
        "luxemburg.measure.calls": c("luxemburg.measure"),
        "luxemburg.measure.self_s": t("luxemburg.measure"),
        "grid.gradient.calls": c("grid.gradient"),
        "grid.gradient.self_s": t("grid.gradient"),
        "grid.adjoint.calls": c("grid.adjoint"),
        "grid.adjoint.self_s": t("grid.adjoint"),
        "sobolev.precond.factor_count": len(factor),
        "sobolev.precond.factor_s": sum(s.duration for s in factor),
        "sobolev.precond.solve_calls": len(solves),
        "sobolev.precond.solve_s": sum(s.duration for s in solves),
        "sobolev.minimize.self_s": t("sobolev.minimize"),
        "sobolev.descent.iters": len(solves),
        "sobolev.descent.norm_solves_per_iter":
            descent_norms / len(solves) if solves else 0.0,
        "concentration.bubbles.self_s": t("concentration.bubbles"),
        "concentration.masses.self_s": t("concentration.masses"),
        "concentration.refined.self_s": t("concentration.refined"),
        "concentration.classify.self_s": t("concentration.classify"),
    }
    for driver in EXPERIMENT_DRIVERS:
        out[f"experiments.{driver}.self_s"] = t(f"experiments.{driver}")
    out.update({
        "exponents.field.calls": c("exponents.field"),
        "exponents.field.self_s": t("exponents.field"),
        "expressions.compile.self_s": t("expressions.compile"),
        "expressions.eval.self_s": t("expressions.eval"),
        "cli.run.self_s": t("cli.run"),
    })
    return out
