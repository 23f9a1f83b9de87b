"""Content-addressed on-disk artifact cache.

Cache keys are ``blake2b(config_digest | effective_salt | stage | shard)``
where the *effective salt* of a stage folds its own code-version salt
(source text of its plan/run/merge/index callables plus a manual
version string) with the effective salts of all its dependencies.
Editing the code of stage N therefore changes the keys of N **and every
downstream stage**, while leaving upstream artifacts valid — a re-run
recomputes exactly N and its dependents.

Artifacts are pickled per shard under ``cache_dir/<stage>/<key>.pkl``;
each stage's index entry (its index plus its shards' observability,
see :mod:`repro.runtime.engine`) under
``cache_dir/index/<stage>/<key>.pkl``, keyed by the stage's shard keys.
Writes go through a temp file + ``os.replace`` so a crashed run never
leaves a truncated artifact behind, and a write that fails (full disk,
unpicklable artifact) removes its temp file before the error
propagates.  An artifact is corrupt when any exception comes out of
its decode (truncation, flipped bytes, a stale class path): it counts
as a miss and is overwritten.  A missing file is a plain miss; any
other error opening one (e.g. permissions) propagates.

Decoding runs with the cyclic garbage collector paused: a warm run's
artifacts unpickle into tens of thousands of container objects next to
a long-lived heap (the memoized world and program model), and left on,
the collector would start hundreds of collections per run that re-scan
that heap.
"""

import contextlib
import gc
import hashlib
import inspect
import json
import os
import pickle
import threading
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.runtime.graph import ROLES

_DIGEST_BYTES = 20

#: subdirectory of the cache root that holds the stage index entries
INDEX_DIR = "index"


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled.

    On exit the collector is re-enabled only if it was enabled on
    entry, so a caller that turned it off keeps it off, a nested pause
    restores only at the outer exit, and an exception restores the
    prior state.  The switch is process-wide: ``repro serve`` decodes
    on job threads, so one thread ending its pause can re-enable
    collection while another is still decoding.  That costs the other
    decode speed, never correctness, so there is no lock or depth
    counter.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _blake(*parts: str) -> str:
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def config_digest(config: Any) -> str:
    """Stable content digest of a (nested) frozen dataclass config.

    Defers to the config's own ``digest()`` method when present (as on
    :class:`repro.config.WorldConfig`) so that cache keys and the
    cross-process world memo agree on the same identity.
    """
    digest = getattr(config, "digest", None)
    if callable(digest):
        return digest()
    if not is_dataclass(config):
        raise ValidationError(
            f"config_digest expects a dataclass, got {type(config).__name__}"
        )
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return _blake(type(config).__name__, payload)


def _callable_source(fn: Any) -> str:
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        # Builtins / C callables / interactively-defined functions have
        # no retrievable source; fall back to their qualified name so
        # the salt is still stable within a code version.
        return getattr(fn, "__qualname__", repr(fn))


def stage_code_salt(spec: Any, module_footprint_salt: str = "") -> str:
    """Salt for one stage's own code: plan/run/merge/index source +
    version.

    ``module_footprint_salt`` folds in the digest of every module the
    stage's code can transitively reach (see
    :mod:`repro.runtime.footprint`): editing a helper in e.g.
    ``core/classify.py`` then changes the salt even though the stage's
    own source is untouched — the stale-cache hazard the C401 lint rule
    guards statically is thereby closed at runtime too.  An empty
    footprint salt folds nothing, so footprint-less callers (unit tests
    over synthetic specs) salt their own source alone.
    """
    parts = [spec.name, spec.version] + [
        _callable_source(getattr(spec, role)) for role in ROLES
    ]
    if module_footprint_salt:
        parts.append(module_footprint_salt)
    return _blake(*parts)


def effective_salts(
    graph: Any, footprints: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Fold each stage's code salt with its dependencies' effective salts.

    ``footprints`` optionally maps stage names to module-footprint salts
    (missing stages fold an empty footprint).
    """
    salts: Dict[str, str] = {}
    for spec in graph.stages:
        footprint = footprints.get(spec.name, "") if footprints else ""
        own = stage_code_salt(spec, footprint)
        dep_salts = [salts[dep] for dep in spec.inputs]
        salts[spec.name] = _blake(own, *dep_salts)
    return salts


class ArtifactCache:
    """Per-shard pickle store addressed by content key.

    ``cache_dir=None`` disables persistence entirely: every lookup is
    a miss and stores are no-ops, which keeps the executor code free
    of cache conditionals.
    """

    def __init__(self, cache_dir: Optional[str]) -> None:
        self._root = cache_dir

    @property
    def enabled(self) -> bool:
        return self._root is not None

    @property
    def root(self) -> Optional[str]:
        """The cache directory (``None`` when persistence is disabled)."""
        return self._root

    def key(self, config_dig: str, salt: str, stage: str, shard_key: str) -> str:
        return _blake(config_dig, salt, stage, shard_key)

    def index_key(
        self, config_dig: str, salt: str, stage: str, shard_keys: Sequence[str]
    ) -> str:
        """The key of a stage's index entry: its shard cache keys in
        plan order (plus the identity a zero-shard stage still has)."""
        return _blake(config_dig, salt, stage, INDEX_DIR, *shard_keys)

    def _path(self, stage: str, key: str, index: bool = False) -> str:
        # One directory per stage keeps listings small and makes
        # `du -sh cache/<stage>` a useful profiling tool.
        parts = (INDEX_DIR, stage) if index else (stage,)
        return os.path.join(str(self._root), *parts, f"{key}.pkl")

    def exists(self, stage: str, key: str) -> bool:
        """Whether a shard artifact is on disk (a ``stat``, no decode)."""
        if self._root is None:
            return False
        try:
            os.stat(self._path(stage, key))
        except FileNotFoundError:
            return False
        return True

    def load(
        self, stage: str, key: str, index: bool = False
    ) -> Tuple[bool, Any]:
        """Return ``(hit, artifact)``; corrupt artifacts count as misses.

        ``index`` selects the stage's index entries instead of its
        shard artifacts.
        """
        if self._root is None:
            return False, None
        path = self._path(stage, key, index)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return False, None
        with fh:
            try:
                with _collector_paused():
                    artifact = pickle.load(fh)
            except Exception:
                # Damaged or stale-format artifact (crafted bytes can
                # raise nearly any builtin error from the decode):
                # recompute and overwrite.  The corrupt counter is
                # ambient (no-op outside a collection scope) and fires
                # only on genuinely damaged files, so it never perturbs
                # the worker-count-invariance of a healthy run's
                # registry.
                obs_metrics.inc(obs_names.RUNTIME_CACHE_CORRUPT, stage=stage)
                return False, None
        return True, artifact

    def store(
        self, stage: str, key: str, artifact: Any, index: bool = False
    ) -> None:
        if self._root is None:
            return
        path = self._path(stage, key, index)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # The temp name must be unique per *writer*, not just per
        # process: the serve job pool runs concurrent engine runs on
        # threads of one process, and two threads sharing a pid-only
        # suffix would interleave writes into the same temp file and
        # publish a corrupt artifact.  pid + thread id keeps the
        # write-temp-then-rename slot exclusive in both worlds.
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            # Full disk, unpicklable artifact, interrupt: leave no temp
            # file behind; an artifact published earlier stays intact.
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
