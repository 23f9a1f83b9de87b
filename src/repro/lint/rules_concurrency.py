"""Concurrency-context rule (T1005).

Built on :mod:`repro.lint.concurrency`: every function is classified by
the execution contexts that reach it (main, thread, shard worker), and
the T rule flags code that is only a hazard because of *where* it runs:

* **T1005** — write-mode file I/O in a concurrent context outside the
  sanctioned atomic-write helpers (``.tmp.{pid}.{thread_ident}`` +
  ``os.replace``).

Every finding carries the ``file:line`` witness chain from a context
seed down to the hazard site, so the report reads as an execution
trace, not an assertion.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, List

from repro.lint.concurrency import concurrency_for
from repro.lint.framework import Finding, ProjectContext, Rule, register

#: cap on rendered witness hops per message (keep findings one-line-ish)
_MESSAGE_HOPS = 6


def _witness(chain: List[str]) -> str:
    hops = chain
    if len(hops) > _MESSAGE_HOPS:
        hops = hops[:2] + ["..."] + hops[-(_MESSAGE_HOPS - 3):]
    return " -> ".join(hops)


@register
class NonAtomicCacheWriteRule(Rule):
    """T1005 — concurrent file write bypassing the atomic helpers."""

    code = "T1005"
    name = "cache-write-nonatomic"
    description = (
        "write-mode file I/O reachable from a concurrent context "
        "(thread or shard worker) outside the sanctioned atomic-write "
        "helpers (.tmp.{pid}.{thread_ident} + os.replace)"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        for entry in concurrency_for(project).findings():
            ctx = project.context_for_module(entry.function[0])
            if ctx is None:
                continue
            node = SimpleNamespace(
                lineno=int(entry.site.rsplit(":", 1)[1]), col_offset=0
            )
            yield ctx.finding(
                self,
                node,
                f"raw file write ('{entry.detail}') in {entry.function[1]} "
                f"runs in {entry.context} context; route it through the "
                "atomic write helpers (repro.obs.persist / the artifact "
                f"cache) [witness: {_witness(entry.chain)}]",
            )
