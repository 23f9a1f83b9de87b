"""The :class:`Finding` record emitted by every reprolint rule.

A finding is a plain value object: rules produce them, the framework
filters them through pragmas, and the CLI prints them one per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
