"""Span tracer that wraps the library's public functions from outside.

Modules bind each other's functions with ``from .x import f``, so a
function is replaced in every ``prtradeoff`` module namespace that binds
it; otherwise internal calls would bypass the wrapper.  Spans are kept in
memory as ``(name, start, end, parent, counters)`` and written out by the
caller when the run ends.  Only the traced run installs the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _arguments(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _n_pairs(arguments, result):
    return {"pairs": arguments()["n_pairs"]}


def _mc_kendall_tau(arguments, result):
    return {"pairs": result.n_pairs, "family": arguments()["spec"].family}


# every prtradeoff module -> traced function -> (span name, or None for
# "<module>.<function>"; counter extractor or None).  An extractor gets a
# callable that binds the call's arguments, used only where a counter
# needs them, and the result.
TRACED = {
    "ingest": {"ingest": (None, lambda a, r: {"rows": len(r)})},
    "scores": {"score_values": (None, lambda a, r: {"rows": len(r)})},
    "ranking": {
        "ranks_from_values": (None, None),
        "rank_by_score": (None, None),
        "discordance": (None, lambda a, r: {"pairs": r[1]}),
    },
    "tradeoff": {
        "pair_crossings": (None, lambda a, r: {"crossings": r.n_crossings}),
        "optimal_beta": (None, None),
        "frechet_curve": (None, lambda a, r: {"betas": len(r)}),
        "equidistance_gap": (None, None),
        "optimality_decomposition": (None, None),
        "analyze_set": (None, None),
    },
    "manifold": {
        "build_path": (None, lambda a, r: {"plateaus": r.n_plateaus}),
        "marker_rankings": (None, None),
        "pca_project": (None, None),
        "rank_trajectories": (None, None),
    },
    "distributions": {
        "mc_kendall_tau": (None, _mc_kendall_tau),
        "mc_pencil_optimality": (None, _n_pairs),
        "optimal_vertex_offset": (None, None),
        "mc_optimal_vertex_offset_near_oracle": ("distributions.near_oracle", _n_pairs),
        "sivf_equidistance_prior_near_oracle": ("distributions.near_oracle", _n_pairs),
        "mc_tau_sides_near_oracle": ("distributions.near_oracle", _n_pairs),
    },
    "cli": {"main": ("cli", None)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)  # reserves the index children refer to
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                # a tuple of atomic values, which the cyclic collector stops tracking
                self.spans[index] = (name, start, end, parent, None)
            if count is not None:
                counters = count(functools.partial(_arguments, sig, args, kwargs), result)
                self.spans[index] = (name, start, end, parent, counters)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every prtradeoff namespace that binds it."""
        namespaces = [importlib.import_module("prtradeoff")]
        namespaces += [importlib.import_module(f"prtradeoff.{m}") for m in TRACED]
        for module, functions in TRACED.items():
            home = importlib.import_module(f"prtradeoff.{module}")
            for fname, (span_name, count) in functions.items():
                original = getattr(home, fname)
                wrapper = self.wrap(span_name or f"{module}.{fname}", original, count)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
