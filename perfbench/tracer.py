"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps public functions of dnem's modules from outside the package
and records, per operation, how often each was called, its total time and its
self time (total minus the time of traced calls nested inside it).  Modules
import each other's functions by name (``from .pricing import dnem_price``),
so every module of the package that binds a target function gets the
wrapper, not only the module that defines it.  ``AggregateResponseCurve`` is
wrapped on the class.

Spans are aggregated in memory as they close; nothing runs concurrently, so
one stack of open spans describes the whole call tree.  Only the traced run
imports this module.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import dnem
from dnem.curves import AggregateResponseCurve

#: span name -> (defining module, function name)
FUNCTIONS = {
    "curves.invert": ("dnem.curves", "invert_aggregate"),
    "pricing.dnem_price": ("dnem.pricing", "dnem_price"),
    "response.member_outcome": ("dnem.response", "member_outcome"),
    "benchmark.standalone_optimum": ("dnem.benchmark", "standalone_optimum"),
    "benchmark.standalone_optimum_with_bess": ("dnem.benchmark", "standalone_optimum_with_bess"),
    "benchmark.sign_based_interval": ("dnem.benchmark", "sign_based_interval"),
    "bess.generalized_dnem_price": ("dnem.bess", "generalized_dnem_price"),
    "bess.soc_step": ("dnem.bess", "soc_step"),
    "welfare.axiom_audit": ("dnem.welfare", "axiom_audit"),
    "welfare.coalition_audit": ("dnem.welfare", "coalition_audit"),
    "sim.run": ("dnem.sim", "run"),
    "model.validate_scenario": ("dnem.model", "validate_scenario"),
    "cli.load_config": ("dnem.cli", "load_config"),
    "cli.cmd_simulate": ("dnem.cli", "cmd_simulate"),
    "cli.cmd_audit": ("dnem.cli", "cmd_audit"),
}
#: span name -> method of AggregateResponseCurve
METHODS = {"curves.build": "__init__", "curves.response": "response"}


class Tracer:
    """Installs span-recording wrappers into dnem and collects one op at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        #: open spans, innermost last: [name, time of traced children]
        self._stack: list[list] = []
        #: (span name, parent span name or None) -> [calls, total s, self s]
        self._stats: dict[tuple[str, str | None], list] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (call before each operation)."""
        self._stats.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self._stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, method in METHODS.items():
            original = AggregateResponseCurve.__dict__[method]
            self._patch(AggregateResponseCurve, method, original, self._wrap(name, original))
        wrappers = {}
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        package = dnem.__name__
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == package]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """``module.attr`` of every patched binding (for tests and audits)."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._patches
        )

    def snapshot(self) -> dict:
        """Counts and times recorded since the last reset.

        ``nested`` counts calls by ``"parent>child"`` span names.
        """
        calls: Counter = Counter()
        total_s: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        nested: Counter = Counter()
        for (name, parent), (n, total, own) in self._stats.items():
            calls[name] += n
            total_s[name] += total
            self_s[name] += own
            if parent is not None:
                nested[f"{parent}>{name}"] += n
        return {
            "calls": dict(calls),
            "total_s": dict(total_s),
            "self_s": dict(self_s),
            "nested": dict(nested),
        }
