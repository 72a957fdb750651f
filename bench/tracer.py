"""Spans around the public calls into each qlax module, from outside the package.

``Tracer`` replaces each traced function in every ``qlax`` module namespace
that holds it, so a caller that looks the name up in its own module (as
``qlax.cli`` does with ``solve_lax``) reaches the wrapper; methods are
replaced on their class.  Leaving the ``with`` block puts every original
back.  Spans are aggregated in memory by name: calls, total time, and self
time, which is a span's duration minus the time its child spans cover.

Matrix products are far too many (hundreds of thousands per iteration) to
time one by one without distorting the run, so they are counted only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from qlax import cli, lax, symmetry, timeorder
from qlax.algebra import CIRCLE_DIFFOP, AlgebraElement
from qlax.series import GradedSeries

# (span name, owner, attribute).  Functions are replaced wherever a qlax
# module holds them; both subcommand runners report as ``cli.run``.
FUNCTION_SPANS = (
    ("timeorder.time_ordered_exp", timeorder, "time_ordered_exp"),
    ("timeorder.left_log_residual", timeorder, "left_log_derivative_residual"),
    ("lax.solve_lax", lax, "solve_lax"),
    ("lax.integrate_directly", lax, "integrate_directly"),
    ("lax.flow_difference", lax, "flow_difference"),
    ("lax.lax_residual", lax, "lax_residual"),
    ("lax.trace_tables", lax, "conserved_trace_tables"),
    ("lax.oracle", lax, "oracle_integrate"),
    ("symmetry.solve_symmetry", symmetry, "solve_symmetry"),
    ("symmetry.residual_full", symmetry, "symmetry_residual_full"),
    ("symmetry.ad_exp_ad", symmetry, "check_ad_exp_ad"),
    ("symmetry.apply_operator_series", symmetry, "apply_operator_series"),
    ("cli.build_problem", cli, "build_problem"),
    ("cli.run", cli, "run_solve"),
    ("cli.run", cli, "run_symmetry"),
)
METHOD_SPANS = (
    ("series.inverse", GradedSeries, "inverse"),
    ("series.evaluate", GradedSeries, "evaluate"),
)


class Tracer:
    """Context manager: while active, every traced call adds to ``spans`` and ``counts``."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list[float] = []       # child time of each open span
        self._restore: list = []

    def span(self, name: str, function):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children

        return traced

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_function(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "qlax" and not name.startswith("qlax."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        # A name the package no longer has is skipped; its span then reads 0.
        for name, owner, attr in FUNCTION_SPANS:
            original = getattr(owner, attr, None)
            if original is not None:
                self._replace_function(original, self.span(name, original))
        for name, owner, attr in METHOD_SPANS:
            if hasattr(owner, attr):
                self._replace(owner, attr, self.span(name, getattr(owner, attr)))

        series_mul = GradedSeries.__mul__
        cauchy = self.span("series.cauchy", series_mul)

        def graded_mul(a, b):
            if b.__class__ is GradedSeries:
                return cauchy(a, b)
            return series_mul(a, b)

        element_mul = AlgebraElement.__mul__
        element_init = AlgebraElement.__init__
        diffop_mul = self.span("algebra.diffop_mul", element_mul)
        counts = self.counts

        def coefficient_mul(a, b):
            if b.__class__ is AlgebraElement:
                counts["algebra.mul.calls"] += 1
                if a.descriptor.backend == CIRCLE_DIFFOP:
                    return diffop_mul(a, b)
            return element_mul(a, b)

        def counted_init(*args, **kwargs):
            counts["algebra.elements.created"] += 1
            element_init(*args, **kwargs)

        self._replace(GradedSeries, "__mul__", graded_mul)
        self._replace(AlgebraElement, "__mul__", coefficient_mul)
        self._replace(AlgebraElement, "__init__", counted_init)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Flat ``<span>.calls`` / ``.total_s`` / ``.self_s`` plus the counters."""
        flat: dict[str, float] = dict(self.counts)
        for name, (calls, total, own) in self.spans.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.total_s"] = total
            flat[f"{name}.self_s"] = own
        return flat
