"""Spans around koopdmd's public functions, recorded from outside the package.

A Tracer replaces module attributes with timing wrappers and puts the
originals back in restore(). Each wrapper is installed on the attribute the
caller resolves: `dmd.write_csv` is the ioutil function bound into dmd's
namespace, so it is wrapped there as well as on ioutil itself. Spans stay in
memory (name, layer, start, end, parent, counts, allocation peak) until the
caller asks for them.

Layers are the package modules. Serialization is its own layer: every
module's write_* function counts as `ioutil`, so `ioutil.write_s` covers
row building and formatting as well as the file write.
"""
from __future__ import annotations

import importlib
import time
import tracemalloc

MIB = 1024 * 1024

# Layers whose spans can track a tracemalloc peak. tracemalloc runs only
# while one of their spans is open, so other layers are not slowed.
ALLOC_LAYERS = frozenset({"ioutil", "dmd", "pod"})


def _svd_cells(args, kwargs, result):
    x = args[0] if args else kwargs["X"]
    return {"svd_cells": int(getattr(x, "size", 0))}


def _rank_kept(args, kwargs, result):
    return {"rank_kept": int(result.rank_kept)}


def _rows_read(args, kwargs, result):
    return {"rows": len(result[0]) if result else 0}


def _bytes_written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}


_DECOMP = ("companion_dmd", "svd_dmd", "exact_dmd", "hankel_dmd")

# (module, attribute, span name, layer, counter). The span name is the
# function's home module, so a bound name shares its span name.
# ioutil.format_float is left alone: it runs once per CSV cell.
TARGETS = (
    [("cli", f, f"cli.{f}", "cli", None)
     for f in ("main", "load_config", "parse_config", "execute", "run_equivalence_suite")]
    + [("cli", "write_json", "ioutil.write_json", "ioutil", None)]
    + [("systems", f, f"systems.{f}", "systems", None)
       for f in ("integrate", "observe", "seeded_linear_system")]
    + [("embed", f, f"embed.{f}", "embed", None)
       for f in ("hankel", "composite", "interleave", "strided_series", "scale_factor")]
    + [("embed", "read_timeseries_csv", "embed.read_timeseries_csv", "embed", _rows_read),
       ("embed", "write_timeseries_csv", "embed.write_timeseries_csv", "ioutil", None),
       ("embed", "atomic_write_text", "ioutil.atomic_write_text", "ioutil", _bytes_written)]
    + [("pod", f, f"pod.{f}", "pod", None)
       for f in ("ergodic_pod", "pod_snapshots", "reconstruction_error")]
    + [("pod", f, f"pod.{f}", "ioutil", None)
       for f in ("write_result_json", "write_basis_csv", "write_coords_csv")]
    + [("pod", f, f"ioutil.{f}", "ioutil", None) for f in ("write_csv", "write_json")]
    + [("dmd", f, f"dmd.{f}", "dmd", _rank_kept) for f in _DECOMP]
    + [("dmd", "check_linear_consistency", "dmd.check_linear_consistency", "dmd", None)]
    + [("dmd", f, f"dmd.{f}", "ioutil", None) for f in ("write_result_json", "write_modes_csv")]
    + [("dmd", f, f"ioutil.{f}", "ioutil", None) for f in ("write_csv", "write_json")]
    + [("linalg", "svd", "linalg.svd", "linalg", _svd_cells)]
    + [("linalg", f, f"linalg.{f}", "linalg", None) for f in ("eig", "pinv", "gram")]
    + [("analysis", f, f"analysis.{f}", "analysis", None)
       for f in ("eig_to_freq", "match_lattice", "eigenfunction_error", "asymptotic_phase",
                 "dominant_nontrivial", "lattice_eigenfunction", "effective_dimension")]
    + [("analysis", "write_frequency_table", "analysis.write_frequency_table", "ioutil", None),
       ("analysis", "write_csv", "ioutil.write_csv", "ioutil", None)]
    + [("ioutil", f, f"ioutil.{f}", "ioutil", None) for f in ("write_json", "write_csv")]
    + [("ioutil", "atomic_write_text", "ioutil.atomic_write_text", "ioutil", _bytes_written)]
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts", "alloc",
                 "_base", "_peak", "_started_tracing")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.counts = None
        self.alloc = None

    def to_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts, "alloc_peak_bytes": self.alloc}


class Tracer:
    """Install span wrappers on koopdmd's modules; restore() undoes it.

    Spans of layers in alloc_layers also record a tracemalloc peak. That
    slows allocation-heavy code severalfold (lorenz-pod's CSV writes take
    four times as long), so timings come from passes traced without it.
    """

    def __init__(self, alloc_layers=frozenset()):
        self.alloc_layers = frozenset(alloc_layers)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, name, layer, counter in TARGETS:
            module = importlib.import_module(f"koopdmd.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when no wrapper of this tracer is left on a module."""
        for mod_name, attr, *_ in TARGETS:
            fn = getattr(importlib.import_module(f"koopdmd.{mod_name}"), attr)
            if getattr(fn, "__perfbench_tracer__", None) is self:
                return False
        return True

    def take(self) -> list[dict]:
        """Hand over the finished spans as dicts and start an empty list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return [s.to_dict() for s in spans]

    def _wrap(self, fn, name, layer, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._enter(name, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(span)
            if ok and counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        wrapper.__perfbench_tracer__ = tracer
        return wrapper

    def _open_alloc_spans(self):
        return [self.spans[i] for i in self._stack if self.spans[i].layer in self.alloc_layers]

    def _enter(self, name, layer) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        if layer in self.alloc_layers:
            span._started_tracing = not tracemalloc.is_tracing()
            if span._started_tracing:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            # The peak since the last reset belongs to every open span;
            # record it before resetting for this one.
            for open_span in self._open_alloc_spans():
                open_span._peak = max(open_span._peak, peak)
            tracemalloc.reset_peak()
            span._base = span._peak = current
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.layer in self.alloc_layers:
            span._peak = max(span._peak, tracemalloc.get_traced_memory()[1])
            span.alloc = span._peak - span._base
            for open_span in self._open_alloc_spans():
                open_span._peak = max(open_span._peak, span._peak)
            if span._started_tracing:
                tracemalloc.stop()


# ----------------------------------------------------------------------
# Per-layer metrics of one pass


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus its direct children (calls nest, never overlap)."""
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= _duration(s)
    return own


def _outermost(spans: list[dict], pick) -> list[dict]:
    """Picked spans with no picked ancestor, so nested calls count once."""
    picked = [pick(s) for s in spans]
    out = []
    for i, s in enumerate(spans):
        if not picked[i]:
            continue
        p = s["parent"]
        while p >= 0 and not picked[p]:
            p = spans[p]["parent"]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its span list (see BENCHMARK.json)."""
    own = self_times(spans)

    def self_of(layer):
        return sum(t for s, t in zip(spans, own) if s["layer"] == layer)

    def total(pick):
        return sum(_duration(s) for s in _outermost(spans, pick))

    def count(key):
        return sum((s["counts"] or {}).get(key, 0) for s in spans)

    def alloc_peak(layer):
        peaks = [s["alloc_peak_bytes"] or 0
                 for s in _outermost(spans, lambda s: s["layer"] == layer)]
        return max(peaks, default=0) / MIB

    def named(*names):
        return lambda s: s["name"] in names

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    write_s = total(lambda s: s["layer"] == "ioutil")
    nbytes = count("bytes")
    return {
        "ioutil.write_s": write_s,
        "ioutil.write_mib_per_s": nbytes / MIB / write_s if write_s > 0 else 0.0,
        "ioutil.bytes": nbytes,
        "ioutil.alloc_peak_mib": alloc_peak("ioutil"),
        "embed.read_csv_s": total(named("embed.read_timeseries_csv")),
        "embed.read_csv_rows": count("rows"),
        "embed.build_s": total(named("embed.hankel", "embed.composite", "embed.interleave",
                                     "embed.strided_series", "embed.scale_factor")),
        "dmd.self_s": self_of("dmd"),
        "dmd.alloc_peak_mib": alloc_peak("dmd"),
        "dmd.rank_kept": count("rank_kept"),
        "linalg.svd_s": total(named("linalg.svd")),
        "linalg.svd_calls": calls("linalg.svd"),
        "linalg.svd_mcells": count("svd_cells") / 1e6,
        "linalg.eig_s": total(named("linalg.eig")),
        "pod.self_s": self_of("pod"),
        "pod.alloc_peak_mib": alloc_peak("pod"),
        "systems.integrate_s": total(named("systems.integrate")),
        "systems.observe_s": total(named("systems.observe")),
        "analysis.s": total(lambda s: s["layer"] == "analysis"),
        "analysis.match_lattice_calls": calls("analysis.match_lattice"),
        "cli.parse_s": total(named("cli.load_config", "cli.parse_config")),
        "cli.self_s": self_of("cli"),
        "trace.self_sum_s": sum(own),
    }
