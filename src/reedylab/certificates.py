"""Certificate and check records shared by all certification suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class Check:
    id: str
    status: str
    count: int = 0
    witness: object = None

    def to_json(self) -> dict:
        out = {"id": self.id, "status": self.status, "count": self.count}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Certificate:
    suite: str
    checks: list[Check] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_json() for c in self.checks],
            "config": self.config,
            "duration": self.duration,
        }

    def json_text(self, with_duration: bool = True) -> str:
        data = self.to_json()
        if not with_duration:
            data.pop("duration")
        return json.dumps(data, indent=2, sort_keys=True)

    def markdown(self) -> str:
        lines = [f"## suite `{self.suite}`", ""]
        lines.append("| check | status | cases | witness |")
        lines.append("|---|---|---|---|")
        for c in self.checks:
            wit = "" if c.witness is None else f"`{json.dumps(c.witness)}`"
            lines.append(f"| {c.id} | {c.status} | {c.count} | {wit} |")
        lines.append("")
        cfg = json.dumps(self.config, sort_keys=True)
        lines.append(f"config: `{cfg}`  duration: {self.duration:.3f}s")
        lines.append("")
        return "\n".join(lines)


# the witness of a check that would pass over zero cases
NO_CASES = "no cases examined"


def verdict(id: str, ok, count: int, witness=None, *, may_be_empty: bool = False) -> Check:
    """A passing or failing check; the witness is kept only on failure.
    A check over zero cases fails with witness NO_CASES, since it showed
    nothing, unless may_be_empty says its case set is empty by design."""
    if ok and count == 0 and not may_be_empty:
        return Check(id, FAIL, 0, NO_CASES)
    return Check(id, PASS if ok else FAIL, count, None if ok else witness)


def scan(id: str, witnesses) -> Check:
    """One check over a sequence of cases, each given as None when it
    passes or as its witness when it fails.  Stops at the first failure;
    the count is the number of cases examined, that failure included.
    Zero cases fail with witness NO_CASES, as in verdict."""
    count = 0
    for witness in witnesses:
        count += 1
        if witness is not None:
            return Check(id, FAIL, count, witness)
    return verdict(id, True, count)


def scan_batches(id: str, batches, *, may_be_empty: bool = False) -> Check:
    """scan over cases that come in batches, each a pair (failed, witness):
    failed is a boolean array over the batch's cases in walk order, a 2-D
    block row by row as argmax reads it, and witness(k) builds the
    witness of the batch's k-th case, called for the first failure only.
    The count of a failure is the cases of the batches before it plus
    k + 1.  Zero cases fail as in verdict, unless may_be_empty.  Only
    .any(), .argmax() and .size are read, so this module needs no numpy."""
    count = 0
    for failed, witness in batches:
        if failed.any():
            k = int(failed.argmax())
            return Check(id, FAIL, count + k + 1, witness(k))
        count += failed.size
    return verdict(id, True, count, may_be_empty=may_be_empty)
