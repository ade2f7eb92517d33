"""Structured pass/fail records for verified claims.

A claim relates a computed value to an expected one under a stable id
and a short mathematical anchor (the statement being checked).  A pass
of None marks an informational entry: something implied by cited theory
and deliberately not recomputed.  Reports are deterministic: ordering is
insertion order and serialization is key-sorted JSON.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


class Claim:
    """One claim: passed is True, False, or None for an informational entry."""

    __slots__ = ("claim_id", "anchor", "expected", "computed", "passed", "bound", "note")

    def __init__(self, claim_id, anchor, expected, computed, passed, bound=None, note=""):
        self.claim_id = claim_id
        self.anchor = anchor
        self.expected = expected
        self.computed = computed
        self.passed = passed
        self.bound = bound
        self.note = note

    def to_json(self):
        return {
            "id": self.claim_id,
            "anchor": self.anchor,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "bound": self.bound,
            "note": self.note,
        }


class VerificationReport:
    """The claims checked about one subject, in the order they were checked."""

    __slots__ = ("subject", "claims", "config")

    def __init__(self, subject, claims=None, config=None):
        self.subject = subject
        self.claims = [] if claims is None else claims
        self.config = {} if config is None else config

    def check(self, claim_id, anchor, expected, computed, bound=None, note=""):
        self.claims.append(
            Claim(claim_id, anchor, expected, computed, expected == computed, bound, note)
        )

    def assert_true(self, claim_id, anchor, computed, bound=None, note=""):
        self.check(claim_id, anchor, True, bool(computed), bound=bound, note=note)

    def info(self, claim_id, anchor, note, computed=None):
        self.claims.append(Claim(claim_id, anchor, None, computed, None, None, note))

    def passed(self):
        """True when no claim failed (informational entries never fail)."""
        return all(c.passed is not False for c in self.claims)

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "subject": self.subject,
            "config": self.config,
            "passed": self.passed(),
            "claims": [c.to_json() for c in self.claims],
        }

    def to_table(self):
        lines = [f"== {self.subject} =="]
        for c in self.claims:
            status = "INFO" if c.passed is None else ("PASS" if c.passed else "FAIL")
            extra = f" [bound {c.bound}]" if c.bound is not None else ""
            detail = ""
            if c.passed is False:
                detail = f"  expected={c.expected!r} computed={c.computed!r}"
            elif c.passed is None and c.note:
                detail = f"  {c.note}"
            lines.append(f"  {status}  {c.claim_id}: {c.anchor}{extra}{detail}")
        lines.append(f"  => {'PASS' if self.passed() else 'FAIL'}")
        return "\n".join(lines)


def reports_json_text(reports):
    """The JSON document `ccalab verify`/`ccalab suite` print for reports."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed() for r in reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def merge_reports(subject, reports, config=None):
    out = VerificationReport(subject, config=config or {})
    for r in reports:
        for c in r.claims:
            out.claims.append(
                Claim(
                    f"{r.subject}.{c.claim_id}",
                    c.anchor,
                    c.expected,
                    c.computed,
                    c.passed,
                    c.bound,
                    c.note,
                )
            )
    return out
