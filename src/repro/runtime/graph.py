"""Declarative stage graph for the runtime engine.

A :class:`StageSpec` describes one pipeline stage: what it consumes,
what it produces, and along which axis its work splits into independent
shards.  A :class:`StageGraph` is a validated collection of specs with
a deterministic topological order.

The graph is *declarative*: specs carry callables (``plan``, ``run``,
``merge``, ``index``) but the graph itself never executes anything.
Execution belongs to :mod:`repro.runtime.executor` and orchestration to
:mod:`repro.runtime.engine`.

Sharding contract
-----------------

``plan(world, indexes) -> [(shard_key, payload), ...]`` returns the
shard list in canonical order.  The partition must be a pure function
of the world and of upstream *indexes* — never of the worker count, and
never of an upstream body — so that a run with one worker and a run
with eight produce identical shard sets, identical per-shard RNG
derivations, and therefore identical merged results, and so that a
warm run can plan without decoding upstream bodies.

``run(world, products, shard_key, payload) -> shard_product`` executes
one shard.  It must treat the world as **read-only**: no drawing from
shared world RNG streams, no observing into ``world.pdns``.  Any
randomness comes from streams derived from the shard key.

``merge(world, products, [(shard_key, shard_product), ...]) -> product``
folds shard products *in canonical shard order* into the stage product,
the stage's *body*.

``index(product) -> {"records": {name: count}, ...}`` is a small, pure
summary of the body: its record counts (the manifest's
``records_in``/``records_out``) plus whatever downstream plans and the
headline accessors read.  The engine caches it apart from the body, so
a fully warm stage never decodes a body nobody asks for.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ValidationError

PlanFn = Callable[[Any, Mapping[str, Any]], List[Tuple[str, Any]]]
RunFn = Callable[[Any, Mapping[str, Any], str, Any], Any]
MergeFn = Callable[[Any, Mapping[str, Any], List[Tuple[str, Any]]], Any]
IndexFn = Callable[[Any], Dict[str, Any]]

#: a stage's callables, in the order its cache salt folds their source
ROLES = ("plan", "run", "merge", "index")


class ShardAxis(Enum):
    """The axis along which a stage's work splits into shards."""

    USERS = "users"
    TRACKER_DOMAINS = "tracker-domains"
    IPS = "ips"
    FLOWS = "flows"
    ISPS = "isps"
    NONE = "none"


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage as a declarative node.

    ``inputs`` names upstream stages whose indexes this stage plans
    from and whose bodies its shards and merge read; ``outputs``
    documents the keys of the body the stage emits.  ``version`` is a
    manual salt folded into the cache key so that semantic changes
    invisible to ``inspect.getsource`` (e.g. a data file) can still
    invalidate cached artifacts.
    """

    name: str
    axis: ShardAxis
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    plan: PlanFn
    run: RunFn
    merge: MergeFn
    index: IndexFn
    version: str = "1"


@dataclass
class StageGraph:
    """A validated DAG of :class:`StageSpec` nodes."""

    _specs: Dict[str, StageSpec] = field(default_factory=dict)

    def add(self, spec: StageSpec) -> None:
        if spec.name in self._specs:
            raise ValidationError(f"duplicate stage {spec.name!r}")
        for dep in spec.inputs:
            if dep not in self._specs:
                raise ValidationError(
                    f"stage {spec.name!r} depends on unknown stage {dep!r}; "
                    "add stages in dependency order"
                )
        self._specs[spec.name] = spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> StageSpec:
        if name not in self._specs:
            raise ValidationError(f"unknown stage {name!r}")
        return self._specs[name]

    @property
    def stages(self) -> Tuple[StageSpec, ...]:
        """All stages in insertion (= topological) order."""
        return tuple(self._specs.values())

    def topological_order(self, targets: Sequence[str] = ()) -> Tuple[str, ...]:
        """Stages needed to produce ``targets`` (all stages if empty).

        Insertion order is already topological because :meth:`add`
        rejects forward references; this filters it down to the
        requested targets and their transitive dependencies.
        """
        if not targets:
            return tuple(self._specs)
        needed = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            spec = self[name]
            needed.add(name)
            frontier.extend(spec.inputs)
        return tuple(name for name in self._specs if name in needed)


def partition(items: Sequence[Any], target_shards: int) -> List[Tuple[int, int]]:
    """Split ``len(items)`` positions into at most ``target_shards`` blocks.

    Returns ``[(start, stop), ...]`` half-open ranges covering the
    sequence contiguously, balanced to within one item.  The result is
    a pure function of ``(len(items), target_shards)`` — crucially it
    does not depend on worker count, so the shard set (and every
    per-shard RNG derivation keyed on it) is identical no matter how
    the run is parallelized.
    """
    if target_shards < 1:
        raise ValidationError(f"target_shards must be >= 1, got {target_shards}")
    n = len(items)
    if n == 0:
        return []
    shards = min(n, target_shards)
    base, extra = divmod(n, shards)
    blocks = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append((start, start + size))
        start += size
    return blocks

