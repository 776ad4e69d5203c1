"""Structured pass/fail evidence for validations and law suites."""

from __future__ import annotations

from dataclasses import dataclass, field

EXHAUSTIVE = "exhaustive"


def sampled(what) -> str:
    return f"sampled:{what}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    checked: int = 0
    note: str = ""
    sampled: bool = False  # the inputs were a sample of an infinite domain

    def shown_witness(self) -> list[str] | None:
        """The witness's entries as text (values in their ring's own syntax), or None."""
        return None if self.witness is None else [str(v) for v in self.witness]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "witness": self.shown_witness(),
            "checked": self.checked,
            "sampled": self.sampled,
        }


@dataclass
class ValidationReport:
    """Outcome of validating one structure, check by check."""

    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def mode(self) -> str:
        """"exhaustive", or "sampled:" naming each sampled check and its input count."""
        parts = [f"{c.name}={c.checked}" for c in self.checks if c.sampled]
        return sampled(", ".join(parts)) if parts else EXHAUSTIVE

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(
        self, name: str, passed: bool, witness=None, checked: int = 0, note: str = "", sampled: bool = False
    ) -> None:
        self.checks.append(CheckResult(name, passed, witness, checked, note, sampled))

    def absorb(self, other: ValidationReport, prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.passed, c.witness, c.checked, c.note, c.sampled)
            )

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"{self.subject}: ok ({self.mode}, {len(self.checks)} checks)"
        first = bad[0]
        tail = "" if first.witness is None else f"; witness ({', '.join(first.shown_witness())})"
        return f"{self.subject}: FAILED {first.name}{tail} ({len(bad)} of {len(self.checks)} checks failed)"

    def raise_if_failed(self, exc_type=None) -> ValidationReport:
        if not self.ok:
            from .errors import ValidationFailed

            raise (exc_type or ValidationFailed)(self)
        return self


@dataclass
class LawResult:
    name: str
    status: str  # "pass" or "fail"
    witnesses: list = field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class AxiomReport:
    """Per-law results of running a named suite over a carrier."""

    suite: str
    mode: str
    laws: list[LawResult] = field(default_factory=list)
    seed: int | None = None  # the sample's seed; None when exhaustive

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.laws)

    def law(self, name: str) -> LawResult:
        for r in self.laws:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        seed = {} if self.seed is None else {"seed": self.seed}
        return {
            "suite": self.suite,
            "mode": self.mode,
            **seed,
            "laws": [
                {
                    "name": r.name,
                    "status": r.status,
                    "witness": [[str(v) for v in w] for w in r.witnesses],
                    "checked": r.checked,
                }
                for r in self.laws
            ],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} ({self.mode})"]
        for r in self.laws:
            mark = "pass" if r.passed else "FAIL"
            line = f"  {mark}  {r.name}  [{r.checked} tuples]"
            if r.witnesses:
                shown = ", ".join(str(v) for v in r.witnesses[0])
                line += f"  witness: ({shown})"
            lines.append(line)
        return "\n".join(lines)
