"""Structured results for law-concordance checks.  Every report is a table
of statements, rows of (name, lhs, instances) with one record each, built
by `ConcordanceReport.from_rows`; no other module builds a record."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Record:
    """One evaluated statement: both truth values, and its name followed
    by its least failing instance, if any."""

    instance: tuple
    lhs: bool
    rhs: bool

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


def _all(pairs):
    """(all hold, least failing instance)."""
    for instance, value in pairs:
        if not value:
            return False, instance
    return True, None


def _aggregate(name, predicate_value, instances):
    """The record of one statement over (instance, value) pairs: lhs is
    the predicate's value, rhs whether every instance holds, and the least
    failing instance follows the name."""
    holds, witness = _all(instances)
    inst = (name,) if witness is None else (name,) + tuple(witness)
    return Record(instance=inst, lhs=predicate_value, rhs=holds)


def _statement(value):
    """The one instance of a statement with a single truth value: its
    record prints as (name,) whether or not it holds."""
    return (((), value),)


@dataclass(frozen=True)
class ConcordanceReport:
    law: str
    algebra: str
    records: tuple
    notes: tuple = ()

    @classmethod
    def from_rows(cls, law, algebra, rows, notes=()):
        """One record per (name, lhs, instances) row, in row order."""
        records = tuple(_aggregate(*row) for row in rows)
        return cls(law, algebra, records, tuple(notes))

    @cached_property
    def witness(self):
        return next((r for r in self.records if not r.agree), None)

    @property
    def verdict(self) -> str:
        return "concordant" if self.witness is None else "discordant"

    def to_json_dict(self):
        w = self.witness
        return {
            "law": self.law,
            "algebra": self.algebra,
            "verdict": self.verdict,
            "checked": len(self.records),
            "witness": None
            if w is None
            else {"instance": list(w.instance), "lhs": w.lhs, "rhs": w.rhs},
            "notes": list(self.notes),
        }
