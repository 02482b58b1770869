"""Spans around fairprop's public functions, installed from outside the package.

The tracer replaces each public function (and each public method of a public
class) of the package modules with a timing wrapper. A module that imported a
function with ``from .x import f`` holds its own reference, so the wrapper is
bound under every name, in every package module, that refers to the original.
Nothing under ``src/`` is edited.

Per wrapped name it counts calls and accumulates total and self time; self
time is a span's duration minus the time covered by its child spans. It also
counts calls per (caller, callee) pair. Spans are aggregated as they close
rather than stored, which keeps a traced fair-deep run (millions of spans) in
constant memory.

A span name may carry a phase ("setup" or "train"). Phase time is the time
spent inside a span of that phase but not inside a nested span of another
phase, so a dataset load inside ``train.run`` counts as set-up, not training.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "autodiff", "nn", "propagation", "debias", "metrics", "data", "train", "cli")

# Span name -> phase, for the end-to-end split of wall time.
PHASES = {
    "data.synth_generate": "setup",
    "data.load_dataset": "setup",
    "graph.edge_homophily": "setup",
    "cli.synth_cmd": "setup",
    "train.run": "train",
    "train.sweep": "train",
    "cli.train_cmd": "train",
    "cli.sweep_cmd": "train",
}


class Tracer:
    """Wraps package functions and aggregates their spans.

    ``only`` limits wrapping to the given span names; the untraced end-to-end
    run wraps only the few phase functions, a handful of calls per run.
    """

    def __init__(self, only=None):
        self.only = None if only is None else set(only)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.pair_calls = defaultdict(int)  # (caller, callee) -> calls
        self.phase_s = defaultdict(float)
        self.wrapped = set()
        self._stack = []  # open spans: [name, time covered by children]
        self._phase_stack = []  # open phase spans: [phase, time covered by nested phases]

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of every package module, where it is looked up."""
        package = importlib.import_module("fairprop")
        modules = {name: importlib.import_module(f"fairprop.{name}") for name in LAYERS}
        sites = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    if wrapper is not obj:
                        _rebind(sites, obj, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        # ``cli.main`` is a click group: calling it runs its ``main`` method, and
        # each command keeps its function as ``callback``.
        group = modules["cli"].main
        group.main = self._wrap("cli.main", group.main)
        for command in group.commands.values():
            command.callback = self._wrap(f"cli.{command.callback.__name__}", command.callback)
        return self

    def _wrap(self, name, fn):
        if self.only is not None and name not in self.only:
            return fn
        self.wrapped.add(name)
        phase = PHASES.get(name)
        stack, phase_stack = self._stack, self._phase_stack
        calls, self_s, total_s, pair_calls = self.calls, self.self_s, self.total_s, self.pair_calls
        phase_s = self.phase_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if phase is not None:
                phase_frame = [phase, 0.0]
                phase_stack.append(phase_frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[1]
                pair_calls[(caller, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
                if phase is not None:
                    phase_stack.pop()
                    phase_s[phase] += elapsed - phase_frame[1]
                    if phase_stack:
                        phase_stack[-1][1] += elapsed

        return span

    # -- results ----------------------------------------------------------

    def table(self):
        """Per-span {calls, self_s, total_s}, for every wrapped name that was called."""
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s[name]}
            for name in sorted(self.calls)
        }


def _rebind(sites, original, wrapper):
    for site in sites:
        for attr, value in list(vars(site).items()):
            if value is original:
                setattr(site, attr, wrapper)
