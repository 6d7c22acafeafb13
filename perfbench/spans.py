"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces public names on the library's modules with timing wrappers for the
duration of the run and puts the originals back afterwards, so nothing under
``src/`` changes.  Spans are kept in memory and written to one file when the
run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Nested spans with a name, start, end, parent and free-form attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def timed(tracer: Tracer, name: str):
    """Wrapper factory: one span per call."""

    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def spectrum_builder(tracer: Tracer, enumerate_compositions):
    """Wrapper factory for the spectrum builders.

    Records the support size, whether the weights are exact, and the growth
    of the process's peak resident set across the call.  After the builder
    returns, a standalone ``enumerate_compositions`` walk over the same
    (n, bounds) is timed as its own span, so the enumeration layer gets a
    time of its own without any change to the builders.
    """

    def make(fn):
        def wrapper(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with tracer.span("spectrum.build") as rec:
                spec = fn(*args, **kwargs)
            growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            exact = bool(spec.entries) and spec.entries[0].weight_exact is not None
            rec["attrs"].update(entries=spec.support_size, exact=exact, rss_growth_kb=growth_kb)
            bounds = composition_bounds(spec)
            with tracer.span("combinatorics.enumerate") as walk:
                walk["attrs"]["compositions"] = sum(
                    1 for _ in enumerate_compositions(spec.block_size, bounds)
                )
            return spec

        return wrapper

    return make


def composition_bounds(spec) -> tuple[int, ...]:
    n = spec.block_size
    sector = spec.sector
    if sector is None:
        return (n,) * spec.d
    if sector.is_finite:
        return tuple(sector.occupations)
    return tuple(n if p > 0 else 0 for p in sector.densities)


@contextmanager
def instrument(targets):
    """Install ``(module, name, wrapper_factory)`` targets; restore on exit."""
    saved = []
    try:
        for module, name, make in targets:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    m = {
        "combinatorics.compositions": 0,
        "spectrum.build_exact_s": 0.0,
        "spectrum.build_log_s": 0.0,
        "spectrum.entries": 0,
        "spectrum.build_rss_growth_mb": 0.0,
    }
    for s, own in zip(spans, selfs):
        name = s["name"]
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        attrs = s["attrs"]
        if name == "spectrum.build":
            key = "spectrum.build_exact_s" if attrs["exact"] else "spectrum.build_log_s"
            m[key] += own
            m["spectrum.entries"] += attrs["entries"]
            m["spectrum.build_rss_growth_mb"] += attrs["rss_growth_kb"] / 1024.0
        elif name == "combinatorics.enumerate":
            m["combinatorics.compositions"] += attrs["compositions"]
    build_s = m["spectrum.build_exact_s"] + m["spectrum.build_log_s"]
    m["spectrum.entries_per_s"] = m["spectrum.entries"] / build_s if build_s > 0 else 0.0
    for metric, span_name in (
        ("combinatorics.enumerate_s", "combinatorics.enumerate"),
        ("spectrum.to_json_obj_s", "spectrum.to_json_obj"),
        ("cli.spectrum_write_s", "cli.spectrum"),
        ("entropy.entropy_of_spectrum_s", "entropy.entropy_of_spectrum"),
        ("gaussian.composition_moments_s", "gaussian.composition_moments"),
        ("entropy.block_entropy_s", "entropy.block_entropy"),
        ("entropy.entropy_report_self_s", "entropy.entropy_report"),
        ("gaussian.build_gaussian_s", "gaussian.build_gaussian"),
        ("svgplot.render_chart_s", "svgplot.render_chart"),
        ("oracle.build_state_s", "oracle.build_state"),
        ("oracle.partial_trace_s", "oracle.partial_trace"),
        ("oracle.dense_eigenvalues_s", "oracle.dense_eigenvalues"),
        ("oracle.formula_s", "oracle.formula"),
        ("cli.sweep_self_s", "cli.sweep"),
        ("cli.verify_self_s", "cli.verify"),
    ):
        m[metric] = total.get(span_name, 0.0)
    m["entropy.block_entropy_calls"] = calls.get("entropy.block_entropy", 0)
    m["oracle.verify_calls"] = calls.get("oracle.verify_theorem", 0) + calls.get(
        "oracle.verify_uniform_mixture", 0
    )
    return m
