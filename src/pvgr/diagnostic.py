"""The one error class: every failure pvgr reports is a `Diagnostic`."""

from __future__ import annotations

from .ast import Span


class Diagnostic(Exception):
    """A coded failure. `code` is the failing rule's label (T-Send, K-Var,
    CF-ConsKind, ...) or one of parse, io, usage and internal; `span` is
    where it failed, when known; `expected`, `found` and `state` are
    optional details. `status` is the command's exit code; each subclass
    picks its own."""

    status = 5

    def __init__(
        self,
        code: str,
        message: str,
        span: Span | None = None,
        expected: str | None = None,
        found: str | None = None,
        state: str | None = None,
    ) -> None:
        super().__init__(message)
        self.code, self.message, self.span = code, message, span
        self.expected, self.found, self.state = expected, found, state

    def _details(self) -> list[tuple[str, str]]:
        fields = (("expected", self.expected), ("found", self.found), ("state", self.state))
        return [(k, v) for k, v in fields if v is not None]

    def __str__(self) -> str:
        loc = f"{self.span}: " if self.span is not None else ""
        lines = [f"{loc}error[{self.code}]: {self.message}"]
        lines += [f"  {k + ':':<10}{v}" for k, v in self._details()]
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only `--format json` needs it
        out: dict = {"severity": "error", "code": self.code, "message": self.message}
        if self.span is not None:
            out.update(file=self.span.file, line=self.span.line, col=self.span.col)
        out.update(self._details())
        return json.dumps(out)
