"""C-rules: cache integrity.

The artifact cache replays a shard whenever its key matches, and the
key folds the stage's *code salt* — so the salt must cover every line
of code that can influence the shard's output.  The runtime computes
that coverage as the stage's module footprint
(:meth:`~repro.lint.program.ProgramModel.footprint`), and **C401**
checks the two ways that coverage can silently go wrong: a stage's
``plan``/``run``/``merge``/``index`` cannot be resolved statically, or
its closure reaches a first-party (``repro.*``) module the analyzer
cannot index.  Either way the footprint salt does not cover code the
stage can execute, and a warm cache may replay stale artifacts after an
edit.
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

