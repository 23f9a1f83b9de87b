"""Outside-in layer clock for the study benchmark.

The benchmark never edits the program.  It replaces callables it can
name — module functions, class methods and the stage graph's
``plan``/``run``/``merge`` callables — with wrappers that charge their
*self* time (duration minus the time of nested wrapped calls) to a
layer.  The self times of all layers plus the time spent outside every
wrapper add up to the wall time of an operation, so nothing is counted
twice and the remainder is reported as unaccounted time.

A hook whose target no longer exists is skipped and returned by
:func:`install`; ``run.py`` then marks the traced run incorrect, so
that a renamed callable cannot move its layer's time into unaccounted
time unnoticed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

#: the engine's stages, each reported as its own layer
STAGES = (
    "panel",
    "classification",
    "inventory",
    "geolocation",
    "confinement",
    "localization",
    "sensitive_domains",
    "sensitive",
    "ispscale",
)

#: every timed layer, in report order
LAYERS = (
    "import",
    "salts",
    "world",
    "cache_io",
    "ledger",
    "report",
) + STAGES

#: (module, attribute path, layer) of every hooked callable besides the
#: stage graph.  Module functions are replaced in every ``repro`` module
#: that bound them by name, so ``from x import f`` call sites are timed
#: as well.
HOOKS = (
    ("repro.runtime.engine", "ExecutionEngine.__init__", "salts"),
    ("repro.datasets.builder", "build_world", "world"),
    ("repro.datasets.builder", "cached_build_world", "world"),
    ("repro.runtime.cache", "ArtifactCache.load", "cache_io"),
    ("repro.runtime.cache", "ArtifactCache.store", "cache_io"),
    ("repro.runtime.provenance", "build_manifest", "ledger"),
    ("repro.runtime.provenance", "build_ledger_record", "ledger"),
    ("repro.obs.manifest", "write_manifest", "ledger"),
    ("repro.obs.ledger", "append_record", "ledger"),
    ("repro.runtime.facade", "RuntimeRun.table2_counts", "report"),
    ("repro.runtime.facade", "RuntimeRun.eu28_destination_regions", "report"),
    ("repro.runtime.facade", "RuntimeRun.sensitive_summary", "report"),
    ("repro.runtime.facade", "RuntimeRun.scenario_table", "report"),
)


class LayerClock:
    """Self time per layer and calls per hooked callable, over one
    operation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: calls per hooked callable, keyed by its ``__qualname__``
        self.calls: Dict[str, int] = defaultdict(int)
        # one entry per open wrapped call: time spent in its wrapped
        # children so far
        self._open: List[List[float]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        open_calls = self._open
        self_s = self.self_s
        calls = self.calls
        name = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            open_calls.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_calls.pop()
                self_s[layer] += elapsed - children[0]
                calls[name] += 1
                if open_calls:
                    open_calls[-1][0] += elapsed

        return timed


def _resolve(module_name: str, path: str) -> Any:
    obj: Any = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _rebind_everywhere(original: Any, replacement: Any) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(clock: LayerClock) -> List[str]:
    """Hook every resolvable target into ``clock``; return the misses."""
    missing: List[str] = []
    for module_name, path, layer in HOOKS:
        try:
            original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        wrapped = clock.wrap(layer, original)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            setattr(_resolve(module_name, owner_path), attr, wrapped)
        else:
            _rebind_everywhere(original, wrapped)
    try:
        graph = _resolve("repro.runtime.stages", "STAGE_GRAPH")
        specs = tuple(graph.stages)
    except (ImportError, AttributeError):
        return missing + ["repro.runtime.stages:STAGE_GRAPH"]
    for spec in specs:
        for role in ("plan", "run", "merge"):
            # StageSpec is a frozen dataclass; the wrapper keeps the
            # callable's source, module and qualname reachable through
            # functools.wraps, so cache salts are unchanged.
            object.__setattr__(
                spec, role, clock.wrap(spec.name, getattr(spec, role))
            )
    return missing
