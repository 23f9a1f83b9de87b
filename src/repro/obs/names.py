"""The metric and span name catalog: every observable name, declared once.

Instrumentation call sites import their names from here instead of
repeating string literals, which buys three guarantees:

* **no collisions** — the import-time check below rejects a catalog
  with duplicate metric names, so two subsystems can never silently
  write into each other's time series;
* **static checkability** — the O6xx lint rules resolve the name
  argument of every ``inc``/``observe``/``span`` call
  site against this catalog and compare its labels against the declared
  label set, so a typo'd name or a renamed-in-one-place metric is a
  lint failure, not a dashboard mystery;
* **a single reviewable inventory** — the manifest diff story ("two
  runs disagree on metric X") starts from a closed list of what X can
  be.

Declarations are deliberately plain tuples of literals: the lint rules
read this module *statically* (AST only, no import), so nothing here
may be computed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ObservabilityError

# -- metric names -----------------------------------------------------------

#: per-pass flow counts by classification stage (core/classify.py)
CLASSIFY_FLOWS = "classify.flows"

#: accept/reject verdicts of the country-majority rule (geoloc/ipmap.py)
IPMAP_LOCATE = "ipmap.locate"

#: geolocation campaigns launched (geoloc/ipmap.py)
IPMAP_CAMPAIGNS = "ipmap.campaigns"

#: per-campaign country vote agreement ratio (geoloc/ipmap.py)
IPMAP_COUNTRY_AGREEMENT = "ipmap.country_agreement"

#: passive-DNS resolutions ingested: each collector's tally, added once
#: per shard (runtime/stages.py)
PDNS_OBSERVATIONS = "pdns.observations"

#: first-seen (fqdn, address) pairs: each collector's tally, added once
#: per shard (runtime/stages.py)
PDNS_PAIRS_NEW = "pdns.pairs_new"

#: exported pair tuples folded into a database (dnssim/passive.py)
PDNS_PAIRS_FOLDED = "pdns.pairs_folded"

#: shards planned per stage per run (runtime/engine.py)
RUNTIME_SHARDS_PLANNED = "runtime.shards.planned"

#: shards actually executed (cache misses) per stage (runtime/engine.py)
RUNTIME_SHARDS_EXECUTED = "runtime.shards.executed"

#: artifact-cache hits per stage (runtime/engine.py)
RUNTIME_CACHE_HITS = "runtime.cache.hits"

#: artifact-cache misses per stage (runtime/engine.py)
RUNTIME_CACHE_MISSES = "runtime.cache.misses"

#: damaged cache artifacts discarded on load (runtime/cache.py)
RUNTIME_CACHE_CORRUPT = "runtime.cache.corrupt"

#: (name, kind, label names, description) — the closed declaration list.
#: ``kind`` is counter | gauge | histogram.  O602 compares call-site
#: label keywords against the label tuple as a *set*: every declared
#: label, no undeclared ones.
_METRIC_DECLS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    (CLASSIFY_FLOWS, "counter", ("stage",),
     "flows classified, by classification stage"),
    (IPMAP_LOCATE, "counter", ("verdict",),
     "locate() verdicts under the country-majority rule"),
    (IPMAP_CAMPAIGNS, "counter", (),
     "geolocation campaigns launched"),
    (IPMAP_COUNTRY_AGREEMENT, "histogram", (),
     "winner-country vote share per campaign"),
    (PDNS_OBSERVATIONS, "counter", (),
     "passive-DNS resolutions ingested"),
    (PDNS_PAIRS_NEW, "counter", (),
     "first-seen (fqdn, address) pairs"),
    (PDNS_PAIRS_FOLDED, "counter", (),
     "exported pair tuples folded into a database"),
    (RUNTIME_SHARDS_PLANNED, "counter", ("stage",),
     "shards planned per stage"),
    (RUNTIME_SHARDS_EXECUTED, "counter", ("stage",),
     "shards executed (cache misses) per stage"),
    (RUNTIME_CACHE_HITS, "counter", ("stage",),
     "artifact-cache hits per stage"),
    (RUNTIME_CACHE_MISSES, "counter", ("stage",),
     "artifact-cache misses per stage"),
    (RUNTIME_CACHE_CORRUPT, "counter", ("stage",),
     "damaged cache artifacts discarded on load"),
)

# -- span names -------------------------------------------------------------

SPAN_RUN = "run"
SPAN_WORLD_BUILD = "world:build"
SPAN_PLAN = "plan"
SPAN_CACHE_PROBE = "cache:probe"
SPAN_EXECUTE = "execute"
SPAN_MERGE = "merge"

#: every span name the tree may open.  A trailing ``*`` declares a
#: prefix family (``stage:*`` covers the engine's per-stage f-strings);
#: O603 matches a call site's static prefix against these patterns.
SPAN_NAMES: Tuple[str, ...] = (
    SPAN_RUN,
    SPAN_WORLD_BUILD,
    "stage:*",
    SPAN_PLAN,
    SPAN_CACHE_PROBE,
    SPAN_EXECUTE,
    SPAN_MERGE,
)


def _build_index() -> Dict[str, Tuple[str, Tuple[str, ...], str]]:
    index: Dict[str, Tuple[str, Tuple[str, ...], str]] = {}
    for name, kind, labels, description in _METRIC_DECLS:
        if name in index:
            raise ObservabilityError(
                f"duplicate metric declaration: {name!r}"
            )
        index[name] = (kind, labels, description)
    if len(set(SPAN_NAMES)) != len(SPAN_NAMES):
        duplicates = [
            name for name in sorted(set(SPAN_NAMES))
            if SPAN_NAMES.count(name) > 1
        ]
        raise ObservabilityError(
            f"duplicate span declaration(s): {duplicates}"
        )
    return index


#: name -> (kind, labels, description); built (and validated) at import
METRICS: Dict[str, Tuple[str, Tuple[str, ...], str]] = _build_index()


def metric_labels(name: str) -> Tuple[str, ...]:
    """The declared label set of ``name`` (raises on unknown metrics)."""
    try:
        return METRICS[name][1]
    except KeyError as exc:
        raise ObservabilityError(f"undeclared metric: {name!r}") from exc
