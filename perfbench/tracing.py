"""Outside-in layer tracing: thread-safe timing wrappers installed on the
module attributes through which jbmocz calls its own layer functions.

The package imports layer functions by name (``from .zeros import
zeros_to_coeffs``) or calls them through a module (``chan.complex_noise``),
so every ``jbmocz`` module that holds one of the names in ``WRAPPED`` gets
its own wrapper.  Spans are kept in memory, one list per thread, and a
span's self time is its duration minus the durations of the wrapped calls
nested directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import namedtuple
from time import perf_counter

import numpy as np

# function name -> layer (module) it is reported under
WRAPPED = {
    "zeros_to_coeffs": "zeros",
    "encode_bits": "zeros",
    "convolve_channel": "channel",
    "complex_noise": "channel",
    "draw_cir": "channel",
    "dizet_hard": "dizet",
    "pseudo_llrs": "dizet",
    "estimate_rotation_bins": "rotation",
    "polar_encode": "polar",
    "polar_decode_sc": "polar",
    "estimate_channel_blind": "phy",
    "estimate_noise_var": "phy",
    "reliability_profile": "stability",
    "deflate": "stability",
}

# these return a scalar per row (or an estimate object), so rows are
# counted on the first argument instead of the result
_ROWS_FROM_INPUT = {"estimate_rotation_bins", "estimate_channel_blind", "estimate_noise_var"}

LAYER_NAMES = tuple(f"{layer}.{fn}" for fn, layer in WRAPPED.items())

Span = namedtuple("Span", "span_id parent_id name thread start end self_s rows")


def _leading_rows(value) -> int:
    """Polynomials (or packets, cells) in an array: product of all but the
    last axis; 1 for vectors and scalars."""
    return math.prod(np.shape(value)[:-1])


class Tracer:
    """Collects spans from wrapped layer functions across threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans = []
        self._ids = itertools.count(1)
        self._installed = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open-span stack, finished spans)
            with self._lock:
                self._thread_spans.append(state[1])
        return state

    def _wrap(self, fn, name, rows_from_input):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, finished = tracer._state()
            span_id = next(tracer._ids)
            parent_id = stack[-1][0] if stack else 0
            stack.append([span_id, 0.0])  # child time accumulates in slot 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child_s = stack.pop()
                if stack:
                    stack[-1][1] += end - start
            rows = _leading_rows(args[0] if rows_from_input else result)
            finished.append(Span(span_id, parent_id, name, threading.get_ident(),
                                 start, end, end - start - child_s, rows))
            return result

        return traced

    def install(self) -> None:
        """Wrap every WRAPPED function held by a loaded jbmocz module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "jbmocz" or n.startswith("jbmocz."))]
        for module in modules:
            for fn_name, layer in WRAPPED.items():
                original = module.__dict__.get(fn_name)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{fn_name}",
                                     fn_name in _ROWS_FROM_INPUT)
                setattr(module, fn_name, wrapper)
                self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> list:
        with self._lock:
            return sorted(itertools.chain.from_iterable(self._thread_spans))

    def layer_totals(self) -> dict:
        """name -> {self_s, calls, rows} for every name in LAYER_NAMES; a
        name with no spans (no call site left) reports zeros."""
        totals = {name: {"self_s": 0.0, "calls": 0, "rows": 0} for name in LAYER_NAMES}
        for span in self.spans():
            entry = totals[span.name]
            entry["self_s"] += span.self_s
            entry["calls"] += 1
            entry["rows"] += span.rows
        return totals

    def write_spans(self, path) -> None:
        """One CSV line per span, times relative to the first span start."""
        spans = self.spans()
        origin = min((s.start for s in spans), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,thread,start_s,end_s,self_s,rows\n")
            for s in spans:
                thread = threads.setdefault(s.thread, len(threads))
                fh.write(f"{s.span_id},{s.parent_id},{s.name},{thread},{s.start - origin:.9f},"
                         f"{s.end - origin:.9f},{s.self_s:.9f},{s.rows}\n")
