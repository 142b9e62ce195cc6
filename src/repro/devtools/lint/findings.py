"""The linter's result type: one :class:`Finding` per rule violation.

Findings are plain data so they serialise losslessly to the JSON output
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``path`` is the file as reported to the user (posix, relative to the
    invocation directory when possible); ``line`` is 1-based and ``col``
    0-based (matching :mod:`ast`).  ``justification`` is only set on
    suppressed findings — it carries the required explanation text of the
    inline ``# repro-lint: ignore[...]`` comment that silenced it.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    justification: str = field(default="", compare=False)

    def as_dict(self) -> Dict[str, object]:
        """JSON shape of the ``--format json`` output mode."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The text output mode's one-line form."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"
