"""Module-footprint salts: the lint analyzer's view, folded into cache keys.

:func:`repro.runtime.cache.stage_code_salt` hashes a stage's own
plan/run/merge/index source — but those callables reach helpers across
the tree (``core/classify.py``, ``geoloc/ipmap.py``, …), and editing a
helper must invalidate the cached artifacts of exactly the stages that
can execute it.  This module computes that *footprint* from the same
:class:`~repro.lint.program.ProgramModel` the C4xx lint rules use, so
the invariant checked statically ("every reachable module is folded
into the salt") is by construction the quantity enforced at runtime.

The model is built once per process per source root (1.2–1.6 s for the
full tree on a 2-vCPU Xeon under CPython 3.11) and memoized; stages
whose callables the model cannot see — lambdas, closures, functions
defined outside the analyzed root, as in synthetic unit-test graphs —
simply get no footprint, which folds as the empty salt and reproduces
the pre-footprint cache keys.  Only the program model is built here:
the lint rules and the concurrency analysis that sit on top of it are
lint artifacts and stay off the run path.

The salts themselves are memoized per process too (:func:`stage_salts`):
an engine built over a graph this process has salted before reads no
source at all.  That also keeps the two halves of a salt in step in a
long-lived process — the footprint half is frozen with the memoized
model, and the source half would otherwise follow edits made on disk
to code the process is not running.
"""

from __future__ import annotations

import threading
from pathlib import Path
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.lint.program import Footprint, ProgramModel
from repro.runtime.cache import effective_salts
from repro.runtime.graph import ROLES

#: process-wide model memo, keyed by resolved source root; engines run
#: on serve worker threads as well as the main thread, so the memo is
#: guarded by a lock
_MODELS: Dict[str, ProgramModel] = {}
_MODELS_LOCK = threading.Lock()

#: footprints and effective salts of one graph, read-only
Salts = Tuple[Mapping[str, Footprint], Mapping[str, str]]

#: process-wide salts memo: (model root, per-stage identity) -> salts.
#: A stage's identity is its name, inputs and role callables;
#: functions hash by identity, so a swapped callable or an ad-hoc test
#: graph gets its own entry.
_SALTS: Dict[Tuple[Any, ...], Salts] = {}


def default_root() -> Path:
    """The installed ``repro`` package tree (…/src/repro)."""
    return Path(__file__).resolve().parents[1]


def program_model(root: Optional[Path] = None) -> ProgramModel:
    """The (memoized) program model of one source root."""
    resolved = (root or default_root()).resolve()
    key = str(resolved)
    with _MODELS_LOCK:
        model = _MODELS.get(key)
        if model is None:
            model = ProgramModel.from_paths([resolved], root=resolved.parent)
            _MODELS[key] = model
    return model


def stage_footprints(
    graph: Any, root: Optional[Path] = None
) -> Dict[str, Footprint]:
    """Per-stage footprints for a live :class:`StageGraph`.

    Seeds come from the spec's actual function objects
    (``__module__``/``__qualname__``), not from static stage discovery,
    so any graph whose callables live inside the analyzed root gets a
    footprint — including test graphs assembled ad hoc.  A stage is
    footprinted only when *all four* callables resolve into the model;
    a partial footprint would claim coverage it does not have.
    """
    model = program_model(root)
    footprints: Dict[str, Footprint] = {}
    for spec in graph.stages:
        seeds = []
        for fn in (getattr(spec, role) for role in ROLES):
            module = getattr(fn, "__module__", None)
            qualname = getattr(fn, "__qualname__", None)
            if (
                not module
                or not qualname
                or "<locals>" in qualname
                or module not in model.modules
                or model.function((module, qualname)) is None
            ):
                seeds = []
                break
            seeds.append((module, qualname))
        if seeds:
            footprints[spec.name] = model.footprint(sorted(set(seeds)))
    return footprints


def footprint_salts(footprints: Dict[str, Footprint]) -> Dict[str, str]:
    """Just the salt strings, shaped for :func:`effective_salts`."""
    return {name: fp.salt for name, fp in footprints.items()}


def stage_salts(graph: Any, root: Optional[Path] = None) -> Salts:
    """``(footprints, effective salts)`` of a graph, once per process.

    Every engine over the same graph shares them, so both are
    read-only views.
    """
    resolved = (root or default_root()).resolve()
    key = (str(resolved),) + tuple(
        (spec.name, spec.inputs)
        + tuple(getattr(spec, role) for role in ROLES)
        for spec in graph.stages
    )
    with _MODELS_LOCK:
        memo = _SALTS.get(key)
    if memo is None:
        footprints = stage_footprints(graph, resolved)
        memo = (
            MappingProxyType(footprints),
            MappingProxyType(
                effective_salts(graph, footprint_salts(footprints))
            ),
        )
        with _MODELS_LOCK:
            memo = _SALTS.setdefault(key, memo)
    return memo
