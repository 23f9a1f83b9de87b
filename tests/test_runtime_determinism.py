"""Tier-1 determinism guarantees of the runtime engine.

The engine's contract is that the headline numbers — Table 2's
classification counts and Fig. 7's EU28 destination shares — are
byte-identical regardless of (a) how many workers execute the shards
and (b) whether the shards ran live or replayed from the artifact
cache.  Three full engine runs over ``WorldConfig.small()`` are shared
module-wide; every comparison below is exact equality, no tolerances.
The pool path gives the same answers under every start method and with
two pooled runs at once.  Every shard is also run once under watch,
which checks that it is pure (``TestShardPurity``), a stage that fails
keeps the shards finished before the failure
(``TestFinishedShardsAreStored``), and a SIGKILLed run resumes from
the shards it stored (``TestKilledRunResumes``).  The
read-only ``Study`` view of a run gives the run's own answers, whatever
was asked before, and writes nothing into the world the engine shares
across the process (``TestHydratedStudyConsistency``).  The merged
confinement, localization and sensitive products equal one unsharded
pass of their core folds (``TestMergedProductsEqualOneUnshardedPass``).
"""

from __future__ import annotations

import array
import collections
import collections.abc
import contextlib
import copy
import dataclasses
import functools
import gc
import json
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import pytest

import repro.runtime.cache as cache_module
import repro.runtime.engine as engine_module
from repro import WorldConfig
from repro.analysis.figures import figure7, figure9
from repro.analysis.report import experiment_summary, full_report
from repro.analysis.tables import table2, table3, table5, table8
from repro.core.confinement import (
    ConfinementAnalyzer,
    eu28_destination_shares,
)
from repro.core.localization import LocalizationScenario, table5_outcomes
from repro.core.sensitive import sensitive_flow_shares
from repro.datasets.builder import build_world, cached_build_world
from repro.dnssim.authority import FqdnService
from repro.errors import ExecutionError, UnknownKeyError
from repro.geodata.regions import Region, region_of_country
from repro.geoloc.probes import ProbeMesh
from repro.obs import names as obs_names
from repro.obs.clock import TickClock
from repro.obs.manifest import validate_manifest
from repro.obs.trace import Tracer
from repro.runtime import run_study
from repro.runtime.cache import ArtifactCache, collector_paused
from repro.runtime.engine import ExecutionEngine
from repro.runtime.executor import _instrumented_run
from repro.runtime.graph import StageGraph, StageSpec
from repro.runtime.stages import STAGE_GRAPH, STAGE_NAMES
from repro.web.browser import MappingService


def headline(run):
    """The numbers the paper leads with, in exactly comparable form."""
    return {
        "table2": run.table2_counts(),
        "fig7_ipmap": run.eu28_destination_regions("RIPE IPmap"),
        "fig7_maxmind": run.eu28_destination_regions("MaxMind"),
        "table5": [
            (row.scenario.name, row.n_flows, row.country_pct, row.region_pct)
            for row in run.scenario_table()
        ],
        "sensitive": run.sensitive_summary(),
        "table8": {
            key: (
                report.sampled_tracking_flows,
                report.estimated_tracking_flows,
                report.region_shares,
                report.destination_countries,
            )
            for key, report in run.isp_reports().items()
        },
    }


@pytest.fixture(scope="module")
def engine_config():
    return WorldConfig.small()


@pytest.fixture(scope="module")
def serial_run(engine_config):
    return run_study(engine_config, workers=1)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifact-cache"))


@pytest.fixture(scope="module")
def parallel_cold_run(engine_config, cache_dir):
    return run_study(engine_config, workers=4, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def parallel_warm_run(engine_config, cache_dir, parallel_cold_run):
    return run_study(engine_config, workers=4, cache_dir=cache_dir)


@pytest.fixture
def replay_dir(cache_dir, parallel_cold_run, tmp_path):
    """A copy of the cold run's filled cache without its ledger, so a
    replay's ledger record stays out of the shared cache dir."""
    replay = tmp_path / "cache"
    shutil.copytree(
        cache_dir, replay, ignore=shutil.ignore_patterns("ledger.jsonl*")
    )
    return str(replay)


class TestShardCountInvariance:
    def test_workers_1_vs_4_identical(self, serial_run, parallel_cold_run):
        assert headline(serial_run) == headline(parallel_cold_run)

    def test_all_stages_ran(self, serial_run):
        assert tuple(serial_run.products) == STAGE_NAMES


class TestCacheReplayInvariance:
    def test_cold_vs_warm_identical(self, parallel_cold_run, parallel_warm_run):
        assert headline(parallel_cold_run) == headline(parallel_warm_run)

    def test_cold_run_was_all_misses(self, parallel_cold_run):
        assert parallel_cold_run.cache_hits == 0
        assert parallel_cold_run.cache_misses > 0

    def test_warm_run_skips_every_stage(self, parallel_warm_run):
        assert parallel_warm_run.cache_hits > 0
        assert parallel_warm_run.cache_misses == 0
        for metrics in parallel_warm_run.result.metrics.values():
            assert metrics.executed_shards == 0, metrics.name

    def test_warm_hits_cover_every_shard(
        self, parallel_cold_run, parallel_warm_run
    ):
        assert (
            parallel_warm_run.cache_hits == parallel_cold_run.cache_misses
        )


#: run in a fresh interpreter under the start method in ``argv[1]``: a
#: one-stage graph named ``toy`` over the panel's functions, and the
#: Table 2 sub-graph, each pooled over two workers and compared with a
#: one-worker run
POOL_PROBE = """
import json
import multiprocessing
import sys

from repro import WorldConfig
from repro.runtime import run_study
from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import StageGraph, StageSpec
from repro.runtime.stages import (
    panel_index, panel_merge, panel_plan, panel_run,
)

multiprocessing.set_start_method(sys.argv[1])
config = WorldConfig.small()
toy = StageGraph()
toy.add(StageSpec(
    name="toy", inputs=(), plan=panel_plan, run=panel_run,
    merge=panel_merge, index=panel_index,
))
pooled_toy = ExecutionEngine(workers=2, graph=toy).run(config)
serial = run_study(config, workers=1, targets=["classification"])
pooled = run_study(config, workers=2, targets=["classification"])
print(json.dumps({
    "toy": pooled_toy.indexes["toy"] == serial.result.indexes["panel"],
    "table2": pooled.table2_counts() == serial.table2_counts(),
}))
"""


class TestPoolPath:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_runs_the_given_spec(self, method):
        # A fresh interpreter, so the start method is set before any
        # pool exists.
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", POOL_PROBE, method],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"toy": True, "table2": True}

    def test_two_pooled_runs_on_two_threads(self):
        # Each run forks its own pools while the other's are alive,
        # with more worker processes than the machine has cores.
        seeds = (7, 8)
        pooled = {}

        def run(seed):
            try:
                pooled[seed] = run_study(
                    WorldConfig.small(seed=seed), workers=3,
                    targets=["classification"],
                ).table2_counts()
            except BaseException as exc:  # surfaced by the assert below
                pooled[seed] = exc

        threads = [
            threading.Thread(target=run, args=(seed,), daemon=True)
            for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not [thread for thread in threads if thread.is_alive()]
        for seed in seeds:
            serial = run_study(
                WorldConfig.small(seed=seed), workers=1,
                targets=["classification"],
            )
            assert pooled[seed] == serial.table2_counts(), seed


# ---------------------------------------------------------------------------
# shard purity: every shard, run once, watched
# ---------------------------------------------------------------------------

#: world values a shard may fill, (owner class, attribute) -> why that
#: keeps shard products pure; the harness neither compares nor walks them
WORLD_MEMOS = {
    (FqdnService, "_nearest"): (
        "client site -> NEAREST endpoint, a pure function of the "
        "service's endpoints (compare=False)"
    ),
    (FqdnService, "_groups"): (
        "the service's weighted answer groups, built once from its "
        "endpoints (compare=False)"
    ),
    (FqdnService, "_fences"): (
        "client site -> the weighted group its continent is fenced to, "
        "a pure function of the groups (compare=False)"
    ),
    (ProbeMesh, "_distance_rows"): (
        "probe -> great-circle distances to the sites last asked for, a "
        "pure function of both"
    ),
}

#: the clocks a shard could read the host's time through, each shifted
#: by CLOCK_SHIFT_S while the harness runs, so a product that depends on
#: the time differs from the serial run's
CLOCKS = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
)
CLOCK_SHIFT_S = 10 * 365 * 86400

#: ``open`` flags that write; an "open" audit event carrying any is a write
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND

#: audit events that change the filesystem or the process environment
MUTATING_EVENTS = frozenset({
    "os.chmod", "os.chown", "os.link", "os.mkdir", "os.putenv",
    "os.remove", "os.rename", "os.rmdir", "os.symlink", "os.truncate",
    "os.unsetenv", "os.utime", "shutil.copyfile", "shutil.copymode",
    "shutil.copystat", "shutil.copytree", "shutil.move", "shutil.rmtree",
})

#: module-level values whose contents are compared, not only their binding
CONTAINERS = (list, dict, set, bytearray, collections.deque, array.array)

#: values the world walk neither copies nor enters
LEAVES = (
    int, float, complex, str, bytes, frozenset, type(None), range, type,
    types.FunctionType, types.BuiltinFunctionType, types.ModuleType,
)

_ABSENT = object()


class _Watch:
    """The audit hook's view of the shard being watched.  The hook stays
    installed for the process, and returns at once while ``thread`` is
    None (no shard is being watched)."""

    hooked = False
    thread: Optional[int] = None
    hazards: List[str] = []


def _audit(event: str, args: Tuple[Any, ...]) -> None:
    if _Watch.thread is None or _Watch.thread != threading.get_ident():
        return
    if event == "open":
        path, _, flags = args
        if flags & WRITE_FLAGS:
            _Watch.hazards.append(f"opens {path!r} to write")
    elif event in MUTATING_EVENTS:
        _Watch.hazards.append(f"raises the audit event {event} {args!r}")


class _RecordingEnviron(collections.abc.MutableMapping):
    """``os.environ`` while a shard runs: every access is a hazard."""

    def __init__(self, environ, hazards: List[str]) -> None:
        self._environ = environ
        self._hazards = hazards

    def _touch(self, key: str) -> None:
        self._hazards.append(f"reads the environment ({key!r})")

    def __getitem__(self, key):
        self._touch(key)
        return self._environ[key]

    def __setitem__(self, key, value):
        self._touch(key)
        self._environ[key] = value

    def __delitem__(self, key):
        self._touch(key)
        del self._environ[key]

    def __iter__(self):
        self._touch("every variable")
        return iter(self._environ)

    def __len__(self):
        self._touch("every variable")
        return len(self._environ)


@contextlib.contextmanager
def shifted_clocks() -> Iterator[None]:
    saved = {name: getattr(time, name) for name in CLOCKS}
    for name, clock in saved.items():
        shift = CLOCK_SHIFT_S * (10 ** 9 if name.endswith("_ns") else 1)
        setattr(time, name, lambda clock=clock, shift=shift: clock() + shift)
    try:
        yield
    finally:
        for name, clock in saved.items():
            setattr(time, name, clock)


@contextlib.contextmanager
def watched_shard() -> Iterator[List[str]]:
    """Record the shard's environment accesses and filesystem writes."""
    if not _Watch.hooked:
        sys.addaudithook(_audit)
        _Watch.hooked = True
    hazards: List[str] = []
    environ = os.environ
    os.environ = _RecordingEnviron(environ, hazards)
    _Watch.hazards, _Watch.thread = hazards, threading.get_ident()
    try:
        yield hazards
    finally:
        _Watch.thread = None
        os.environ = environ


def module_state(names: Sequence[str]) -> Dict[str, Tuple[dict, dict]]:
    """Each module's namespace, and a copy of each module-level container."""
    state = {}
    for name in names:
        namespace = dict(vars(sys.modules[name]))
        state[name] = (namespace, {
            attr: copy.copy(value)
            for attr, value in namespace.items()
            if isinstance(value, CONTAINERS)
        })
    return state


def module_changes(before: Dict[str, Tuple[dict, dict]]) -> List[str]:
    changes = []
    for name, (namespace, containers) in before.items():
        now = vars(sys.modules[name])
        for attr in sorted(set(namespace) | set(now)):
            if namespace.get(attr, _ABSENT) is not now.get(attr, _ABSENT):
                changes.append(f"rebinds {name}.{attr}")
            elif attr in containers and containers[attr] != now[attr]:
                changes.append(f"changes the container {name}.{attr}")
    return changes


def _same(value: Any) -> Any:
    return value


def _attributes_without(skipped: set, obj: Any) -> Dict[str, Any]:
    return {
        attr: item for attr, item in vars(obj).items() if attr not in skipped
    }


class WorldState:
    """Every mutable value reachable from the world, with a shallow copy
    of its contents, so a shard's change anywhere in it is named by its
    path.  RNGs compare by ``getstate()``; :data:`WORLD_MEMOS` are left
    out.  Dict keys and set members are hashable, so only their presence
    is compared."""

    def __init__(self, world: Any) -> None:
        self._memos: Dict[type, set] = {}
        for owner, attr in WORLD_MEMOS:
            self._memos.setdefault(owner, set()).add(attr)
        #: (read the current contents, value, saved contents, path)
        self.entries: List[Tuple[Callable[[Any], Any], Any, Any, Any]] = []
        seen = set()
        stack: List[Tuple[Any, Any]] = [(world, "world")]
        while stack:
            value, path = stack.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            read, form, children = self._contents(value)
            if read is not None:
                saved = copy.copy(read(value))
                self.entries.append((read, value, saved, path))
            stack.extend(
                (child, (path, (form, key)))
                for key, child in children
                if not isinstance(child, LEAVES)
            )

    def _contents(self, value: Any):
        """How to read ``value``'s contents (None when they cannot
        change), and its children as a path-step format and (key, child)
        pairs."""
        if isinstance(value, random.Random):
            return random.Random.getstate, "", ()
        if isinstance(value, dict):
            return _same, "[{!r}]", value.items()
        if isinstance(value, list):
            return _same, "[{}]", enumerate(value)
        if isinstance(value, tuple):
            return None, "[{}]", enumerate(value)
        if isinstance(value, set):
            return _same, "", ()
        assert hasattr(value, "__dict__"), (
            f"the world walk cannot compare a {type(value).__name__}"
        )
        skipped = self._memos.get(type(value))
        read = vars if skipped is None else functools.partial(
            _attributes_without, skipped
        )
        return read, ".{}", read(value).items()

    def changes(self) -> List[str]:
        return [
            f"changes {_render(path)}"
            for read, value, saved, path in self.entries
            if read(value) != saved
        ]


def _render(path: Any) -> str:
    """``world.a['b']`` from the walk's (parent, (format, key)) chain."""
    steps = []
    while isinstance(path, tuple):
        path, (form, key) = path
        steps.append(form.format(key))
    return path + "".join(reversed(steps))


def check_shard_purity(graph, world, products, indexes) -> None:
    """Run every shard of ``graph`` once on ``world``, as a pool worker
    does, and fail on any impurity, naming the stage, the shard and the
    culprit.

    Each shard reads only its stage's declared inputs from ``products``,
    the serial run's bodies.  Shards run in reverse plan order (stages
    last to first) with every clock in :data:`CLOCKS` shifted, and
    each one fails the harness if it rebinds a name or changes a
    module-level container in a loaded ``repro`` module or in the
    module of a stage's ``run``, changes a world value outside
    :data:`WORLD_MEMOS`, touches ``os.environ`` or writes to the
    filesystem.  Each stage's shard products are then merged in plan
    order, and the body and index must equal the serial run's.
    """
    plans = {
        spec.name: spec.plan(
            world, {name: indexes[name] for name in spec.inputs}
        )
        for spec in graph.stages
    }
    runs = {spec.run.__module__ for spec in graph.stages}
    modules = sorted(
        name for name, module in sys.modules.items()
        if module is not None
        and (name == "repro" or name.startswith("repro.") or name in runs)
    )
    state = WorldState(world)
    artifacts: Dict[str, Dict[str, Any]] = {}
    with shifted_clocks():
        for spec in reversed(graph.stages):
            inputs = {name: products[name] for name in spec.inputs}
            artifacts[spec.name] = {}
            for key, payload in reversed(plans[spec.name]):
                before = module_state(modules)
                with watched_shard() as hazards:
                    artifacts[spec.name][key] = _instrumented_run(
                        spec.run, world, inputs, spec.name, key, payload
                    )[0]
                hazards += module_changes(before) + state.changes()
                assert not hazards, (
                    f"stage {spec.name!r}, shard {key!r}: "
                    + "; ".join(dict.fromkeys(hazards))
                )
    for spec in graph.stages:
        inputs = {name: products[name] for name in spec.inputs}
        body = spec.merge(world, inputs, [
            (key, artifacts[spec.name][key]) for key, _ in plans[spec.name]
        ])
        serial = products[spec.name]
        assert body == serial or comparable(body) == comparable(serial), (
            f"stage {spec.name!r}: the merged body differs from the "
            "serial run's"
        )
        assert spec.index(body) == indexes[spec.name], (
            f"stage {spec.name!r}: the index differs from the serial run's"
        )


@pytest.fixture(scope="module")
def pickled_world(engine_config):
    """A freshly built world, pickled, so each toy case gets its own."""
    return pickle.dumps(build_world(engine_config))


#: toy-stage state at module level, for the module-state cases
_TOY_LAST_SHARD = None
_TOY_SHARDS: List[str] = []


def _toy_clean(world, products, shard_key, payload):
    return (shard_key, len(world.users), world.config.seed)


def _toy_global_rebind(world, products, shard_key, payload):
    global _TOY_LAST_SHARD
    _TOY_LAST_SHARD = shard_key
    return shard_key


def _toy_module_container(world, products, shard_key, payload):
    _TOY_SHARDS.append(shard_key)
    return shard_key


def _toy_world_attribute(world, products, shard_key, payload):
    world.last_shard = shard_key
    return shard_key


def _toy_world_rng(world, products, shard_key, payload):
    # A stream the world's build drew from, so it exists before the shard.
    return world.streams.get("background-dns").random()


def _toy_environ(world, products, shard_key, payload):
    return os.environ.get("HOME")


def _toy_clock(world, products, shard_key, payload):
    return int(time.time() // 86400)


def _toy_open_w(world, products, shard_key, payload):
    with open(payload, "w") as handle:
        handle.write(shard_key)
    return shard_key


def _toy_write_text(world, products, shard_key, payload):
    Path(payload).write_text(shard_key)
    return shard_key


def _toy_os_open(world, products, shard_key, payload):
    os.close(os.open(payload, os.O_CREAT | os.O_WRONLY))
    return shard_key


def _toy_memo_order(world, products, shard_key, payload):
    # The first shard to reach an allowlisted memo leaves its key there,
    # and every later shard reads it back.
    memo = world.fleet.tracking_fqdns()[0].service._fences
    return memo.setdefault("toy", shard_key)


def toy_graph(run, payloads) -> StageGraph:
    """A one-stage graph running ``run`` over one shard per payload."""
    graph = StageGraph()
    graph.add(StageSpec(
        name="toy",
        inputs=(),
        plan=lambda world, indexes: [
            (f"toy[{i}]", payload) for i, payload in enumerate(payloads)
        ],
        run=run,
        merge=lambda world, products, results: [
            artifact for _, artifact in results
        ],
        index=lambda body: {"records": {"shards": len(body)}},
    ))
    return graph


def check_toy(run, pickled_world, tmp_path, monkeypatch) -> None:
    """The harness over a toy stage, against the engine's serial run of
    it; each run gets its own fresh world."""
    graph = toy_graph(run, [str(tmp_path / f"toy{i}") for i in range(3)])
    monkeypatch.setattr(
        engine_module, "cached_build_world",
        lambda config, digest: pickle.loads(pickled_world),
    )
    serial = ExecutionEngine(workers=1, graph=graph).run(WorldConfig.small())
    check_shard_purity(
        graph, pickle.loads(pickled_world), serial.products, serial.indexes
    )


class TestShardPurity:
    def test_every_small_shard_is_pure(self, serial_run):
        # The serial run's bodies are the shards' inputs; a fresh world
        # has every memo empty and every RNG where the build left it.
        result = serial_run.result
        check_shard_purity(
            STAGE_GRAPH, build_world(result.config), result.products,
            result.indexes,
        )

    def test_a_clean_toy_stage_passes(
        self, pickled_world, tmp_path, monkeypatch
    ):
        check_toy(_toy_clean, pickled_world, tmp_path, monkeypatch)

    @pytest.mark.parametrize("run, culprit", [
        pytest.param(
            _toy_global_rebind, r"'toy\[2\]': rebinds \S*\._TOY_LAST_SHARD",
            id="global-rebind",
        ),
        pytest.param(
            _toy_module_container,
            r"'toy\[2\]': changes the container \S*\._TOY_SHARDS",
            id="module-container",
        ),
        pytest.param(
            _toy_world_attribute, r"'toy\[2\]': changes world(?![.\[])",
            id="world-attribute",
        ),
        pytest.param(
            _toy_world_rng,
            r"changes world\.streams\._streams\['background-dns'\]",
            id="world-rng-draw",
        ),
        pytest.param(
            _toy_environ, r"reads the environment \('HOME'\)",
            id="environ-read",
        ),
        pytest.param(
            _toy_clock, r"stage 'toy': the merged body differs",
            id="clock-output",
        ),
        pytest.param(_toy_open_w, r"opens '\S*toy2' to write", id="open-w"),
        pytest.param(
            _toy_write_text, r"opens '\S*toy2' to write", id="write-text",
        ),
        pytest.param(
            _toy_os_open, r"opens '\S*toy2' to write", id="os-open-creat",
        ),
        pytest.param(
            _toy_memo_order, r"stage 'toy': the merged body differs",
            id="memo-order",
        ),
    ])
    def test_an_impure_toy_stage_fails(
        self, run, culprit, pickled_world, tmp_path, monkeypatch
    ):
        with pytest.raises(AssertionError, match=culprit):
            check_toy(run, pickled_world, tmp_path, monkeypatch)


class TestPassiveDNSCounts:
    """A shard that owns a passive-DNS collector adds the collector's
    totals to its own counters once, when it ends."""

    @pytest.fixture
    def resolutions(self, monkeypatch):
        seen: List[Tuple[str, Any]] = []
        resolve = MappingService.resolve

        def counting(mapping, fqdn, vantage, day):
            server = resolve(mapping, fqdn, vantage, day)
            seen.append((fqdn, server.ip))
            return server

        monkeypatch.setattr(MappingService, "resolve", counting)
        return seen

    @pytest.mark.parametrize("stage", ["panel", "ispscale"])
    def test_a_shard_counts_what_it_resolved(
        self, serial_run, resolutions, stage
    ):
        result = serial_run.result
        world = cached_build_world(result.config)
        spec = STAGE_GRAPH[stage]
        key, payload = spec.plan(world, result.indexes)[0]
        _, snapshot, _ = _instrumented_run(
            spec.run, world, result.products, stage, key, payload
        )
        assert resolutions
        assert snapshot[obs_names.PDNS_OBSERVATIONS]["value"] == len(
            resolutions
        )
        assert snapshot[obs_names.PDNS_PAIRS_NEW]["value"] == len(
            set(resolutions)
        )

    def test_the_inventory_folds_the_panel_pairs_once(self, serial_run):
        # One inventory shard builds the passive-DNS view, so a run
        # folds each pair the panel shipped exactly once.
        assert serial_run.registry.value(obs_names.PDNS_PAIRS_FOLDED) == len(
            serial_run.products["panel"]["pdns_pairs"]
        )

    def test_a_shard_that_resolves_nothing_creates_no_key(
        self, serial_run, resolutions
    ):
        world = cached_build_world(serial_run.result.config)
        product, snapshot, _ = _instrumented_run(
            STAGE_GRAPH["panel"].run, world, {}, "panel", "users[0:0]",
            (0, 0),
        )
        assert product["requests"] == [] and resolutions == []
        assert [key for key in snapshot if key.startswith("pdns.")] == []


@pytest.fixture(scope="module")
def traced_run(engine_config):
    # A deterministic clock: the resulting spans are byte-stable, so
    # this fixture doubles as the traced-vs-untraced comparison run and
    # the manifest-content lock.
    return run_study(engine_config, workers=1, tracer=Tracer(TickClock()))


class TestObservabilityInvariance:
    def test_traced_vs_untraced_identical(self, serial_run, traced_run):
        # Tracing must be a pure observer: same study products whether
        # or not a tracer recorded the run.
        assert headline(serial_run) == headline(traced_run)

    def test_registry_identical_1_vs_4_workers(
        self, serial_run, parallel_cold_run
    ):
        # Timing lives only in spans, counters only count work — so the
        # merged registry snapshot is exactly equal across worker
        # counts.  (The uncached serial run and the cold cached run both
        # miss every shard, so even the cache counters agree.)
        assert (
            serial_run.result.registry.to_dict()
            == parallel_cold_run.result.registry.to_dict()
        )

    def test_shard_metrics_replay_from_cache(
        self, parallel_cold_run, parallel_warm_run
    ):
        # The warm run executed zero shards, yet its registry carries
        # the same shard-level metrics — replayed from its index entries.
        # Only the runtime's own cache/executed counters may differ.
        def non_runtime(snapshot):
            return {
                key: value
                for key, value in snapshot.items()
                if not key.startswith("runtime.")
            }

        assert non_runtime(
            parallel_cold_run.result.registry.to_dict()
        ) == non_runtime(parallel_warm_run.result.registry.to_dict())

    def test_manifest_valid_with_all_stage_spans(self, traced_run):
        manifest = traced_run.manifest
        validate_manifest(manifest)
        assert [s["stage"] for s in manifest["stages"]] == list(STAGE_NAMES)
        span_names = {span["name"] for span in manifest["spans"]}
        for stage in STAGE_NAMES:
            assert f"stage:{stage}" in span_names
        assert "run" in span_names and "world:build" in span_names

    def test_manifest_record_counts_match_products(self, traced_run):
        by_stage = {s["stage"]: s for s in traced_run.manifest["stages"]}
        panel = traced_run.products["panel"]
        assert by_stage["panel"]["records_out"] == {
            "visits": len(panel["visits"]),
            "requests": len(panel["requests"]),
            "pdns_pairs": len(panel["pdns_pairs"]),
        }
        assert by_stage["classification"]["records_in"]["panel"] == (
            by_stage["panel"]["records_out"]
        )

    def test_span_nesting_is_well_formed(self, traced_run):
        spans = traced_run.manifest["spans"]
        assert spans[0]["name"] == "run" and spans[0]["parent"] is None
        for span in spans[1:]:
            parent = spans[span["parent"]]
            assert span["depth"] == parent["depth"] + 1
            # TickClock stamps are strictly ordered, so every child
            # opens at or after its parent and closes before it.
            assert span["wall_s"] >= 0

    def test_inline_shard_spans_read_the_run_tracers_clock(
        self, engine_config, traced_run
    ):
        # Inline shards read the run tracer's TickClock, so each shard
        # span lies inside its stage's execute span and a second traced
        # run records the same rows.
        spans = traced_run.result.tracer.spans
        shards = [span for span in spans if "shard" in span.attrs]
        assert len(shards) == sum(
            stage.n_shards for stage in traced_run.result.metrics.values()
        )
        for shard in shards:
            execute = spans[shard.parent]
            assert execute.name == "execute"
            assert execute.attrs["stage"] == shard.name[len("stage:"):]
            assert execute.wall_start < shard.wall_start
            assert shard.wall_end < execute.wall_end
        again = run_study(engine_config, workers=1, tracer=Tracer(TickClock()))
        assert again.result.tracer.rows() == traced_run.result.tracer.rows()

    def test_untraced_run_records_nothing(self, serial_run):
        assert serial_run.trace_report() == "(tracing disabled)"
        assert serial_run.result.tracer.rows() == []


class TestCachedRunParsesNothing:
    def test_fully_cached_run_splits_no_url(
        self, engine_config, replay_dir, monkeypatch
    ):
        # Replayed panel artifacts carry each request's URL facts and the
        # classification merge derives the tracking set once, so a fully
        # cached resubmit and its headline accessors split no URL at all.
        import repro.web.requests as requests_module

        split = requests_module.urlsplit
        calls = []

        def counting_split(url, *args, **kwargs):
            calls.append(url)
            return split(url, *args, **kwargs)

        monkeypatch.setattr(requests_module, "urlsplit", counting_split)
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert run.cache_misses == 0
        run.table2_counts()
        run.eu28_destination_regions("MaxMind")
        run.eu28_destination_regions("RIPE IPmap")
        run.sensitive_summary()
        run.scenario_table()
        assert len(calls) == 0


class TestCachedRunDecodesWithoutCollecting:
    def test_fully_cached_run_starts_no_collection_while_decoding(
        self, engine_config, replay_dir, monkeypatch
    ):
        # A warm run's artifacts decode into ~84K container objects next
        # to the long-lived world.  With the collector
        # on during decode, that started ~240 collections per run (1-2
        # of them full passes over the heap); paused, it starts none.
        load = cache_module.pickle.load
        decoding = []
        collections = []

        def observed_load(fh):
            decoding.append(fh.name)
            try:
                return load(fh)
            finally:
                decoding.pop()

        def on_collect(phase, info):
            if phase == "start" and decoding:
                collections.append(info["generation"])

        monkeypatch.setattr(cache_module.pickle, "load", observed_load)
        gc.callbacks.append(on_collect)
        try:
            run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        finally:
            gc.callbacks.remove(on_collect)
        assert run.cache_misses == 0 and run.cache_hits > 0
        assert collections == []
        assert gc.isenabled()


#: stages whose bodies are large (the panel's requests and what is
#: built from them); a headline read must decode none of them
LARGE_BODIES = {"panel", "classification", "inventory", "geolocation"}


def decoded_dirs(monkeypatch, root):
    """Record the cache subdirectory of every file the cache decodes."""
    load = cache_module.pickle.load
    decoded = []

    def observed_load(fh):
        decoded.append(os.path.relpath(fh.name, root).split(os.sep)[0])
        return load(fh)

    monkeypatch.setattr(cache_module.pickle, "load", observed_load)
    return decoded


def comparable(obj):
    """``obj`` with plain-class instances (Sankey, the inventory) opened
    into their attributes, so equal products compare equal."""
    if isinstance(obj, dict):
        return {key: comparable(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [comparable(value) for value in obj]
    if hasattr(obj, "__dict__") and not dataclasses.is_dataclass(obj):
        return (type(obj).__name__, comparable(vars(obj)))
    return obj


def shard_files(cache_root, stage):
    directory = os.path.join(cache_root, stage)
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
    )


class TestWarmBodiesDecodeOnDemand:
    def test_fully_warm_headline_decodes_no_large_body(
        self, engine_config, replay_dir, parallel_cold_run, monkeypatch
    ):
        # Table 2, Fig. 7, Sect. 6 and Table 5 read stage indexes.
        decoded = decoded_dirs(monkeypatch, replay_dir)
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        run.table2_counts()
        run.eu28_destination_regions("RIPE IPmap")
        run.eu28_destination_regions("MaxMind")
        run.sensitive_summary()
        run.scenario_table()
        assert run.cache_hits == parallel_cold_run.cache_misses
        assert run.cache_misses == 0
        assert decoded and not LARGE_BODIES & set(decoded)

    def test_a_warm_headline_loads_only_index_entries(
        self, engine_config, replay_dir, parallel_cold_run, monkeypatch
    ):
        # A fully warm run and every headline accessor open the nine
        # index entries and no shard file, and answer what the cold
        # run's bodies give.
        loads = []
        load = ArtifactCache.load

        def counted_load(cache, stage, key, index=False):
            loads.append((stage, index))
            return load(cache, stage, key, index)

        monkeypatch.setattr(ArtifactCache, "load", counted_load)
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        bodies = parallel_cold_run.products
        assert run.table2_counts() == parallel_cold_run.table2_counts()
        for tool in ("RIPE IPmap", "MaxMind", "ip-api"):
            assert run.eu28_destination_regions(tool) == (
                eu28_destination_shares(bodies["confinement"]["eu28"], tool)
            )
        assert run.scenario_table() == table5_outcomes(
            bodies["localization"]["counts"]
        )
        summary = run.sensitive_summary()
        shares = sensitive_flow_shares(bodies["sensitive"])
        assert summary == {
            "n_identified_domains": len(bodies["sensitive"]["identified"]),
            "sensitive_share_pct": shares["sensitive_share_pct"],
            "category_shares": shares["category_shares"],
            "per_country_leakage": shares["leakage"],
        }
        with pytest.raises(UnknownKeyError):
            run.eu28_destination_regions("GeoGuesser")
        assert run.cache_misses == 0
        assert sorted(loads) == sorted(
            (stage, True) for stage in STAGE_NAMES
        )

    def test_every_body_matches_the_cold_run(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        warm = run_study(engine_config, workers=1, cache_dir=replay_dir)
        for stage in STAGE_NAMES:
            body = warm.products[stage]
            assert comparable(body) == comparable(
                parallel_cold_run.products[stage]
            ), stage
            assert warm.products[stage] is body, stage
        warm_study, cold_study = warm.study(), parallel_cold_run.study()
        for view in (table2, table3, figure7):
            assert view(warm_study) == view(cold_study), view.__name__

    def test_deleted_shard_is_a_miss_and_executes(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        os.remove(shard_files(replay_dir, "confinement")[0])
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        stage = run.result.metrics["confinement"]
        assert (stage.cache_misses, stage.executed_shards) == (1, 1)
        assert run.cache_misses == 1
        assert headline(run) == headline(parallel_cold_run)

    def test_corrupt_shard_in_a_lazy_decode_is_recomputed(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert run.cache_misses == 0
        damaged = shard_files(replay_dir, "panel")[0]
        with open(damaged, "r+b") as fh:
            fh.truncate(16)
        panel = run.products["panel"]
        assert comparable(panel) == comparable(
            parallel_cold_run.products["panel"]
        )
        assert run.registry.value(
            obs_names.RUNTIME_CACHE_CORRUPT, stage="panel"
        ) == 1
        assert os.path.getsize(damaged) > 16
        rerun = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert rerun.cache_misses == 0
        assert comparable(rerun.products["panel"]) == comparable(panel)

    def test_pooled_run_with_a_missing_stage_gives_the_cold_headline(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        # Localization's shards execute on the fork path, so the parent
        # decodes the classification, inventory and geolocation bodies
        # before the pool starts.
        shutil.rmtree(os.path.join(replay_dir, "localization"))
        run = run_study(engine_config, workers=4, cache_dir=replay_dir)
        for name, stage in run.result.metrics.items():
            expected = stage.n_shards if name == "localization" else 0
            assert stage.executed_shards == expected, name
        assert headline(run) == headline(parallel_cold_run)


def stored_shards(cache_root):
    """How many shard files each stage has stored (temp files left out)."""
    return {
        stage: sum(
            path.endswith(".pkl") for path in shard_files(cache_root, stage)
        ) if os.path.isdir(os.path.join(cache_root, stage)) else 0
        for stage in STAGE_NAMES
    }


def _toy_fails_on_payload(world, products, shard_key, payload):
    if payload == "fail":
        raise RuntimeError(f"toy shard {shard_key} failed")
    return shard_key


class TestFinishedShardsAreStored:
    def test_a_failed_stage_keeps_the_shards_before_the_failure(
        self, engine_config, tmp_path
    ):
        # Each shard is stored once it and the shards before it are
        # done, so the two that finished before the third raised are on
        # disk, and the rerun hits them.  The payload is not in a
        # shard's key, so both graphs key their shards alike.
        cache = str(tmp_path / "cache")
        failing = toy_graph(_toy_fails_on_payload, ["ok", "ok", "fail", "ok"])
        with pytest.raises(RuntimeError, match=r"toy\[2\] failed"):
            ExecutionEngine(workers=1, cache_dir=cache, graph=failing).run(
                engine_config
            )
        assert len(list(Path(cache, "toy").glob("*.pkl"))) == 2
        passing = toy_graph(_toy_fails_on_payload, ["ok"] * 4)
        rerun = ExecutionEngine(workers=1, cache_dir=cache, graph=passing).run(
            engine_config
        )
        stage = rerun.metrics["toy"]
        assert (stage.cache_hits, stage.cache_misses) == (2, 2)
        assert rerun.products["toy"] == [f"toy[{i}]" for i in range(4)]


class TestKilledRunResumes:
    def test_a_killed_run_resumes_from_its_stored_shards(
        self, engine_config, serial_run, tmp_path
    ):
        # SIGKILL a pooled CLI run once geolocation, a stage of eight
        # pooled shards, has stored a shard:
        # the rerun must hit every shard file the dead run left, execute
        # the rest, and give the serial run's answer.
        cache = str(tmp_path / "cache")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--preset", "small", "run",
             "--workers", "2", "--cache-dir", cache],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            while not stored_shards(cache)["geolocation"]:
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "no geolocation shard"
                time.sleep(0.005)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=60)
        deadline = time.monotonic() + 60
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a killed worker remains"
            time.sleep(0.05)
        stored = stored_shards(cache)
        run = run_study(engine_config, workers=1, cache_dir=cache)
        for name, stage in run.result.metrics.items():
            assert stage.cache_hits == stored[name], name
            assert stage.cache_misses == stage.n_shards - stored[name], name
        assert run.cache_misses >= 1
        assert headline(run) == headline(serial_run)
        # the rerun stored into every directory the dead run was writing
        # to, and swept the dead writers' temp files there
        leftovers = [
            os.path.join(directory, name)
            for directory, _, names in os.walk(cache)
            for name in names
            if ".tmp." in name
        ]
        assert leftovers == []


class TestCollectorPaused:
    def test_enabled_on_entry_is_off_inside_and_on_after(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_on_entry_stays_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_exception_restores_prior_state(self, enabled):
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(KeyError):
                with collector_paused():
                    raise KeyError("decode failed")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_nested_use_restores_only_at_outer_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestHydratedStudyConsistency:
    def test_study_reads_engine_products(self, serial_run):
        study = serial_run.study()
        # The view must report the engine's numbers.
        totals = serial_run.table2_counts()["total"]
        stats = study.classification.total_stats()
        assert stats.total_requests == totals["total_requests"]
        assert len(stats.fqdns) == totals["fqdns"]
        assert study.inventory is serial_run.products["inventory"]
        assert (
            study.eu28_destination_regions("RIPE IPmap")
            == serial_run.eu28_destination_regions("RIPE IPmap")
        )

    def test_a_sub_graph_run_has_no_view(self, engine_config):
        run = run_study(engine_config, targets=("classification",))
        with pytest.raises(ExecutionError, match="'inventory'"):
            run.study()

    def test_the_view_leaves_the_world_alone(self, engine_config, serial_run):
        # Nothing read through the view writes into the world the engine
        # shares across the process: after the full report, passive DNS
        # holds the same pairs and a fresh run finds the same tracker
        # inventory.
        world = cached_build_world(engine_config)
        pairs = world.pdns.pairs()
        full_report(serial_run.study())
        assert world.pdns.pairs() == pairs
        rerun = run_study(engine_config, workers=1, targets=("inventory",))
        assert comparable(rerun.products["inventory"]) == comparable(
            serial_run.products["inventory"]
        )

    def test_an_answer_does_not_depend_on_what_was_asked_before(
        self, serial_run
    ):
        study = serial_run.study()
        april = table8(study, snapshots=["April 4"])["reports"]
        grid = table8(study)["reports"]
        assert april == {key: grid[key] for key in april}
        summary = experiment_summary(study)
        full_report(study)
        assert experiment_summary(study) == summary

    def test_the_tables_give_the_engine_answers(self, serial_run):
        study = serial_run.study()
        counts = serial_run.table2_counts()
        t2 = table2(study)
        assert (t2["abp_requests"], t2["abp_fqdns"], t2["abp_tlds"]) == (
            counts["list"]["total_requests"],
            counts["list"]["fqdns"],
            counts["list"]["tlds"],
        )
        assert (t2["semi_requests"], t2["semi_fqdns"], t2["semi_tlds"]) == (
            counts["semi_automatic"]["total_requests"],
            counts["semi_automatic"]["fqdns"],
            counts["semi_automatic"]["tlds"],
        )
        assert t2["total_requests"] == counts["total"]["total_requests"]
        f7 = figure7(study)
        assert f7["maxmind"] == serial_run.eu28_destination_regions("MaxMind")
        assert f7["ipmap"] == serial_run.eu28_destination_regions(
            "RIPE IPmap"
        )
        assert table5(study)["outcomes"] == serial_run.scenario_table()
        assert (
            figure9(study)["category_shares"]
            == serial_run.sensitive_summary()["category_shares"]
        )
        assert table8(study)["reports"] == serial_run.isp_reports()


def _edges(sankey):
    """A Sankey's ``(origin, destination) → weight`` edges in insertion
    order: the order the figures' shares are summed in."""
    return list(sankey._edges.items())


class TestMergedProductsEqualOneUnshardedPass:
    """The confinement, localization and sensitive stages count flows
    shard by shard and merge.  Each merged product must equal one call
    of the same core fold over all of the run's tracking flows, Sankey
    edge order included: the tables and figures read the merged
    products, and nothing else computes these numbers."""

    def test_confinement(self, serial_run):
        study = serial_run.study()
        registry = study.world.registry
        flows = study.tracking_requests()
        eu28 = [
            r for r in flows
            if region_of_country(r.user_country, registry) is Region.EU28
        ]
        product = serial_run.products["confinement"]
        locators = study.geolocation.locators()
        assert list(product["eu28"]) == list(locators)
        for tool, sankey in product["eu28"].items():
            analyzer = ConfinementAnalyzer(locators[tool], registry)
            assert _edges(sankey) == _edges(analyzer.continent_sankey(eu28))
        reference = ConfinementAnalyzer(study.geolocation.reference, registry)
        assert _edges(product["regions"]) == _edges(
            reference.continent_sankey(flows)
        )
        assert _edges(product["countries"]) == _edges(
            reference.country_sankey(flows, Region.EU28)
        )

    def test_localization(self, serial_run):
        study = serial_run.study()
        flows = study.tracking_requests()
        counts = serial_run.products["localization"]["counts"]
        assert list(counts) == [s.name for s in LocalizationScenario]
        for scenario in LocalizationScenario:
            unsharded = study.localization.scenario_counts(flows, scenario)
            assert counts[scenario.name] == unsharded
            assert list(counts[scenario.name]) == list(unsharded)

    def test_sensitive(self, serial_run):
        study = serial_run.study()
        product = serial_run.products["sensitive"]
        unsharded = study.sensitive.flow_counts(
            study.tracking_requests(), study.geolocation.reference
        )
        assert unsharded["n_sensitive"] > 0
        assert {key: product[key] for key in unsharded} == unsharded


class TestLedgerIntegration:
    # The acceptance criterion for the run ledger: two identical-config
    # runs (cold then warm, same cache dir) diff to zero unexplained
    # drift — every delta classifies as cache behaviour.

    def test_cached_runs_append_ledger_records(
        self, cache_dir, parallel_cold_run, parallel_warm_run
    ):
        from repro.obs.ledger import ledger_path, load_ledger

        records = load_ledger(ledger_path(cache_dir))
        assert [r["run_id"] for r in records] == [
            parallel_cold_run.ledger_record["run_id"],
            parallel_warm_run.ledger_record["run_id"],
        ]
        assert [r["seq"] for r in records] == [0, 1]
        for record in records:
            assert [s["stage"] for s in record["stages"]] == list(STAGE_NAMES)
            # The ownership map the diff engine attributes domain
            # metrics with: instrumented stages list the registry keys
            # their shards touched, and only keys the run recorded.
            owned = {
                key for s in record["stages"] for key in s["metric_keys"]
            }
            assert owned and owned <= set(record["metrics"])

    def test_cached_runs_write_no_manifest_file(
        self, cache_dir, parallel_cold_run, parallel_warm_run
    ):
        # The manifest stays on the result; only `--trace` writes it.
        validate_manifest(parallel_warm_run.manifest)
        assert "manifest.json" not in os.listdir(cache_dir)

    def test_uncached_run_appends_nothing(self, serial_run):
        assert serial_run.ledger_record is None

    def test_cold_vs_warm_diff_has_zero_drift(
        self, parallel_cold_run, parallel_warm_run
    ):
        from repro.obs.diff import diff_records

        diff = diff_records(
            parallel_cold_run.ledger_record,
            parallel_warm_run.ledger_record,
        )
        assert not diff.config_changed
        assert diff.changed_salts == ()
        assert diff.unexplained() == []
        counts = diff.counts()
        assert counts["cache"] > 0 and counts["drift"] == 0

    def test_trace_report_summarizes_histograms(self, traced_run):
        report = traced_run.trace_report()
        assert "p50" in report and "p95" in report
        assert "ipmap.country_agreement" in report
