"""reprolint — AST-based invariant checks for the reproduction.

Six rule families guard the properties the paper's tables depend on:

* **D-rules** (determinism): no shared/ad-hoc RNG state, no wall-clock
  or environment reads in simulation layers, no ``hash()`` seeding, no
  unsorted set iteration;
* **E-rules** (error discipline): every raise inside the ReproError
  taxonomy, no bare excepts, no assert-based input validation, every
  wrapping raise chained with ``from``;
* **A-rules** (layering): the package import DAG points strictly down,
  with no cycles;
* **O-rules** (observability): metric and span names/labels match the
  declared catalog;
* **S-rules** (seed lineage): no double-spent stream names, no
  ``fixed_rng`` outside tests, no RNG returned across the shard
  boundary;
* **I-rules** (resource discipline): no sockets or subprocesses
  outside tests.

Every rule reads files: one parsed file at a time, and where a rule
needs more than one file (the metric catalog, a stream name spent in
two modules, a stage's ``run`` imported from another module, an import
cycle) a cross-file pass over the same parsed files, resolving names
one import hop away.  There is no call graph.  Shard purity (no
module-state, world, environment, clock or filesystem effects in a
stage's ``run``) is not a lint family: tier-1 checks it by running
every shard, see ``docs/runtime.md``.  Run ``python -m repro.lint
src/repro`` (or ``make lint``); see ``docs/linting.md`` for pragmas and
how to add a rule.
"""

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    LintResult,
    ProjectContext,
    Rule,
    all_rules,
    register,
    run_lint,
    select_rules,
)

__all__ = [
    "Finding",
    "FileContext",
    "LintResult",
    "ProjectContext",
    "Rule",
    "all_rules",
    "register",
    "run_lint",
    "select_rules",
]
