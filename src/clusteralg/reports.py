"""Verification report containers shared by the verify-style operations.

Reports are machine-parseable: ``lines()`` yields ``key: value`` pairs,
one per line, ending with ``result: pass|fail``.  A report whose
``status`` is 'error' records a precondition failure (the sweep never
ran), which the CLI maps to its usage-error exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    context: list[tuple[str, str]] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    status: str = ""

    def add_context(self, key: str, value: str) -> None:
        self.context.append((key, value))

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def resolve_status(self) -> str:
        if not self.status:
            self.status = "pass" if all(c.passed for c in self.checks) else "fail"
        return self.status

    def lines(self) -> list[str]:
        out = [f"suite: {self.suite}"]
        out.extend(f"{k}: {v}" for k, v in self.context)
        for c in self.checks:
            out.append(f"{c.name}: {'pass' if c.passed else 'fail'}")
            if c.detail:
                out.append(f"{c.name}.detail: {c.detail}")
        out.append(f"result: {self.resolve_status()}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"
