"""Per-layer timing from outside the program.

The tracer replaces each layer's public functions with a timing wrapper in
every toughlab module namespace that holds them. ``from .graphs import
components`` leaves a copy of the name in toughness, chordal, recognize,
verify and the package itself, and the package's ``toughness`` attribute is
the lru_cached function rather than the module, so modules are resolved with
importlib and every namespace is scanned by identity. ``unpatched()`` lists
any reference that was missed; a layer that was never wrapped would read as
free.

Each call opens a span (name, start, end, parent). Self time is the span's
duration minus the part its child spans cover. The kernel and enumeration
make millions of calls, so spans are folded into per-(span, parent layer)
totals as they close; only the outer spans (the CLI command and the suite or
scan under it) are kept whole.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# span name -> (module, functions). The layer is the part before the first dot.
SPANS = {
    "cli": ("cli", ("main",)),
    "verify": ("verify", ("scan_conjecture", "run_suite", "classify_counterexample")),
    "graph6.parse": ("graphs", ("parse_graph6",)),
    "graph6.write": ("graphs", ("to_graph6",)),
    "canon": ("graphs", ("canonical_graph",)),
    "enum": ("graphs", ("graph_reps", "connected_chordal_reps")),
    "components": ("graphs", ("components",)),
    "kernel.toughness_witness": ("toughness", ("toughness_witness",)),
    "kernel.toughness": ("toughness", ("toughness",)),
    "kernel.minimality": ("toughness", ("is_minimally_tough",)),
    "kernel.connectivity": ("toughness", ("vertex_connectivity", "disjoint_path_count")),
    "kernel.characterization": ("toughness", (
        "is_t_tough", "check_non_minimality_characterization",
        "check_condition2_restricted", "check_sufficient_condition",
        "find_edge_witness_set")),
    "separators.is_minimal_separator": ("chordal", ("is_minimal_separator",)),
    "separators.clique_tree": ("chordal", ("clique_tree",)),
    "separators.enumerate": ("chordal", (
        "minimal_separators", "minimal_separators_via_clique_tree", "moplexes")),
    "recognize": ("recognize", (
        "is_strongly_chordal", "is_split", "is_interval_like", "universal_vertices",
        "find_hole", "find_induced_sun", "find_split_obstruction",
        "find_induced_claw", "find_asteroidal_triple")),
}

CACHED = {
    "enum.graph_reps": ("graphs", "graph_reps"),
    "enum.connected_chordal_reps": ("graphs", "connected_chordal_reps"),
    "kernel.toughness_cache": ("toughness", "toughness"),
    "kernel.minimality_cache": ("toughness", "is_minimally_tough"),
}

KEEP_DEPTH = 2  # spans at this depth or above are kept whole


def module(name: str):
    return importlib.import_module(f"toughlab.{name}")


def clear_caches() -> None:
    """Empty the lru_caches a fresh CLI process would start without."""
    for mod, func in CACHED.values():
        getattr(module(mod), func).cache_clear()


def _toughlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "toughlab" or name.startswith("toughlab.")]


class Tracer:
    def __init__(self):
        self.totals: dict[tuple[str, str], list] = {}  # (span, parent layer) -> [calls, self_s]
        self.spans: list[tuple[str, float, float, str]] = []  # kept outer spans
        self.enum_classes: dict[tuple, int] = {}  # one entry per distinct call
        self.originals: dict[str, object] = {}  # "module.func" -> original
        self._stack: list[list] = []  # [layer, child time] per open span

    def _wrap(self, span: str, fn):
        stack, totals, kept = self._stack, self.totals, self.spans
        layer = span.split(".", 1)[0]
        clock = time.perf_counter
        classes = self.enum_classes if layer == "enum" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "none"
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = totals.get((span, parent))
                if rec is None:
                    rec = totals[(span, parent)] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if len(stack) < KEEP_DEPTH:
                    kept.append((span, start, end, parent))
            if classes is not None:
                classes[(fn.__name__, args, tuple(kwargs.items()))] = len(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers in every toughlab namespace, then restore."""
        replaced: list[tuple[object, str, object]] = []
        try:
            for span, (mod, funcs) in SPANS.items():
                for func in funcs:
                    original = getattr(module(mod), func)
                    self.originals[f"{mod}.{func}"] = original
                    wrapper = self._wrap(span, original)
                    for m in _toughlab_modules():
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                replaced.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(replaced):
                setattr(m, attr, original)

    def unpatched(self) -> list[str]:
        """Namespaces still holding an unwrapped layer function."""
        originals = {id(f) for f in self.originals.values()}
        return [f"{m.__name__}.{attr}" for m in _toughlab_modules()
                for attr, value in vars(m).items() if id(value) in originals]

    def calls(self, prefix: str, parent: str | None = None) -> int:
        return sum(rec[0] for (span, par), rec in self.totals.items()
                   if _under(span, prefix) and parent in (None, par))

    def self_s(self, prefix: str, parent: str | None = None) -> float:
        return sum(rec[1] for (span, par), rec in self.totals.items()
                   if _under(span, prefix) and parent in (None, par))


def _under(span: str, prefix: str) -> bool:
    return span == prefix or span.startswith(prefix + ".")


def _hit_ratio(fn) -> float:
    info = fn.cache_info()
    return info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, read before the caches clear."""
    m: dict[str, float] = {}
    canon_calls = tracer.calls("canon")
    m["canon.calls"] = canon_calls
    m["canon.self_s"] = tracer.self_s("canon")
    m["canon.us_per_call"] = 1e6 * m["canon.self_s"] / canon_calls if canon_calls else 0.0
    labelings = tracer.calls("canon", parent="enum")
    classes = sum(tracer.enum_classes.values())
    m["enum.self_s"] = tracer.self_s("enum")
    m["enum.classes"] = classes
    m["enum.labelings"] = labelings
    m["enum.kept_ratio"] = classes / labelings if labelings else 0.0
    m["components.calls"] = tracer.calls("components")
    m["components.self_s"] = tracer.self_s("components")
    for parent in ("kernel", "separators"):
        m[f"components.calls.{parent}"] = tracer.calls("components", parent)
        m[f"components.self_s.{parent}"] = tracer.self_s("components", parent)
    m["components.calls.other"] = m["components.calls"] - sum(
        m[f"components.calls.{p}"] for p in ("kernel", "separators"))
    m["components.self_s.other"] = m["components.self_s"] - sum(
        m[f"components.self_s.{p}"] for p in ("kernel", "separators"))
    m["kernel.self_s"] = tracer.self_s("kernel")
    for span in ("toughness_witness", "minimality", "connectivity"):
        m[f"kernel.{span}.calls"] = tracer.calls(f"kernel.{span}")
        m[f"kernel.{span}.self_s"] = tracer.self_s(f"kernel.{span}")
    m["kernel.characterization.self_s"] = tracer.self_s("kernel.characterization")
    for name in ("kernel.toughness_cache", "kernel.minimality_cache"):
        mod, func = CACHED[name]
        m[f"{name}.hit_ratio"] = _hit_ratio(tracer.originals[f"{mod}.{func}"])
    m["separators.calls"] = tracer.calls("separators")
    m["separators.self_s"] = tracer.self_s("separators")
    for span in ("is_minimal_separator", "clique_tree"):
        m[f"separators.{span}.calls"] = tracer.calls(f"separators.{span}")
        m[f"separators.{span}.self_s"] = tracer.self_s(f"separators.{span}")
    m["recognize.calls"] = tracer.calls("recognize")
    m["recognize.self_s"] = tracer.self_s("recognize")
    for span in ("graph6.parse", "graph6.write"):
        m[f"{span}.calls"] = tracer.calls(span)
        m[f"{span}.self_s"] = tracer.self_s(span)
    m["verify.self_s"] = tracer.self_s("verify")
    m["cli.self_s"] = tracer.self_s("cli")
    return m
