"""In-process span recorder for the traced benchmark run.

Spans are recorded from outside the package: each traced public function is
wrapped, and the wrapper is bound under every name that refers to the
function in a loaded ``biphoton_sim`` module.  The modules import with
``from .x import y``, so ``cli.psi_full`` and ``analysis.psi_full`` are
separate bindings of ``biphoton.psi_full`` and both are rebound.

A span is (name, start, end, parent).  Spans stay in memory until the run
writes them out.  A layer's self time is its span's duration minus the
durations of its direct children; calls are single-threaded at every traced
boundary, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# span name -> functions, as (module, attribute) in the package, that it times
TRACED = {
    "config.load_config": [("config", "load_config")],
    "dispersion.eit_transmission": [("dispersion", "eit_transmission")],
    "biphoton.psi_full": [("biphoton", "psi_full")],
    "biphoton.psi_uniform_spectrum": [("biphoton", "psi_uniform_spectrum")],
    "biphoton.analytic": [("biphoton", "psi_analytic_rect"),
                          ("biphoton", "psi_analytic_exp")],
    "biphoton.coincidence_counts": [("biphoton", "coincidence_counts")],
    "grids.spectrum_to_waveform": [("grids", "spectrum_to_waveform")],
    "grids.waveform_csv_rows": [("grids", "waveform_csv_rows")],
    "analysis.extract_coherence_time": [("analysis", "extract_coherence_time")],
    "analysis.coherence_scan": [("analysis", "coherence_scan")],
    "interference.beat_correlation": [("interference", "beat_correlation")],
    "interference.extract_beat_frequency": [("interference", "extract_beat_frequency")],
    "selftest.run_selftest": [("selftest", "run_selftest")],
    "reference.psi_reference": [("reference", "psi_reference")],
}
ROOT = "cli.main"
SPAN_NAMES = (ROOT, *TRACED)
PACKAGE = "biphoton_sim"


class Tracer:
    """Records spans and the psi_full cell count while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.cells = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
        return traced

    def wrap_generator(self, name: str, fn):
        """Span from the call until the generator is exhausted or closed.

        The span is not pushed on the stack: the consumer runs between items,
        and nothing traced runs inside the generator itself.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            gen = fn(*args, **kwargs)

            def consume():
                try:
                    yield from gen
                finally:
                    self.spans[idx][2] = perf_counter()
            return consume()
        return traced

    def count_cells(self, fn):
        """Add n_omega * (z_panels + 1) of every psi_full call to ``cells``."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self.cells += bound.arguments["grid"].n * (bound.arguments["z_panels"] + 1)
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Rebind every traced function in every loaded package module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replacement = {}
        for span, targets in TRACED.items():
            for mod_name, attr in targets:
                fn = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
                if inspect.isgeneratorfunction(fn):
                    wrapped = self.wrap_generator(span, fn)
                else:
                    wrapped = self.wrap(span, fn)
                if attr == "psi_full":
                    wrapped = self.count_cells(wrapped)
                replacement[id(fn)] = (fn, wrapped)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()


def self_times(spans: list[list], first: int = 0):
    """Self time, inclusive time and call count per span name, from ``first`` on."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    for idx in range(first, len(spans)):
        name, start, end, _ = spans[idx]
        self_s[name] += end - start - child_time[idx]
        incl_s[name] += end - start
        calls[name] += 1
    return self_s, incl_s, calls
