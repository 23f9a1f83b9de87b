"""C-rules: cache integrity.

The artifact cache replays a shard whenever its key matches, and the
key folds the stage's *code salt* — so the salt must cover every line
of code that can influence the shard's output.  The runtime computes
that coverage as the stage's module footprint
(:meth:`~repro.lint.program.ProgramModel.footprint`); these rules check
the two ways the coverage can silently go wrong:

* **C401** — a stage's ``plan``/``run``/``merge``/``index`` cannot be
  resolved statically, or its closure reaches a first-party
  (``repro.*``) module the analyzer cannot index.  Either way the
  footprint salt does not cover code the stage can execute, and a warm
  cache may replay stale artifacts after an edit.
* **C402** — a module was *deliberately* excluded from the footprint
  with a ``# reprolint: footprint-exempt`` pragma on its import.  That
  is allowed (e.g. a huge generated module whose digest would churn),
  but then cache invalidation for that code is manual — the
  ``StageSpec`` must carry an explicitly bumped ``version`` so the
  exemption leaves a visible, reviewable knob.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.framework import ProjectContext, Rule, register


@register
class SaltFootprintRule(Rule):
    """C401 — every module a stage can reach must fold into its salt."""

    code = "C401"
    name = "salt-footprint"
    description = (
        "stage code reaches a module the cache salt cannot cover "
        "(unresolvable plan/run/merge/index, or an unindexed repro.* "
        "import)"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        model = project.program_model()
        for decl in model.discover_stages():
            ctx = project.context_for_module(decl.module)
            if ctx is None:
                continue
            for role, rendered in decl.unresolved:
                yield ctx.finding(
                    self,
                    decl.node,
                    f"stage '{decl.name}': {role}={rendered} does not "
                    "resolve to a module-level function, so its module "
                    "footprint (and cache salt) cannot be computed",
                )
            if not decl.seeds:
                continue
            footprint = model.footprint(sorted(set(decl.seeds.values())))
            for missing in footprint.missing:
                yield ctx.finding(
                    self,
                    decl.node,
                    f"stage '{decl.name}' reaches '{missing}', which is "
                    "not in the analyzed program; its source cannot be "
                    "folded into the stage's cache salt",
                )


@register
class ExemptVersionRule(Rule):
    """C402 — a footprint-exempt module demands a manual version bump."""

    code = "C402"
    name = "exempt-needs-version"
    description = (
        "StageSpec whose footprint exempts a module (# reprolint: "
        "footprint-exempt) without an explicit version bump (version "
        "must be set and != '1')"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        model = project.program_model()
        for decl in model.discover_stages():
            ctx = project.context_for_module(decl.module)
            if ctx is None or not decl.seeds:
                continue
            footprint = model.footprint(sorted(set(decl.seeds.values())))
            if not footprint.exempted:
                continue
            if decl.version_explicit and decl.version != "1":
                continue
            exempted = ", ".join(footprint.exempted)
            yield ctx.finding(
                self,
                decl.node,
                f"stage '{decl.name}' exempts [{exempted}] from its salt "
                "footprint; cache invalidation for that code is manual — "
                "set an explicit bumped version= on the StageSpec",
            )
