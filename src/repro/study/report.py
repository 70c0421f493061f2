"""Structured result envelope emitted by every registered experiment.

A :class:`StudyReport` is what ``repro run <name>`` (and the programmatic
:func:`repro.study.run_experiment`) returns: the experiment's structured
records, their plain-text rendering (the table or figure ``repro run``
prints), and a machine-readable envelope with the cross-cutting run
accounting -- config, seed, worker count, wall time, and the memoization
hits/misses the run was responsible for.  ``to_dict()``/``to_json()``
round-trip losslessly through
:meth:`StudyReport.from_dict`/:meth:`StudyReport.from_json`, which is the
contract the benchmark floors and CI smoke checks consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.sim.results import to_jsonable

__all__ = ["SCHEMA_VERSION", "StudyReport"]

#: Version of the serialised report layout; bump on breaking changes.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StudyReport:
    """One experiment run: records, text rendering, and run envelope."""

    experiment: str
    config: dict[str, Any]
    text: str
    envelope: dict[str, Any]
    #: The driver's native typed result object (dataclasses, arrays).  Not
    #: serialised -- reports rebuilt via :meth:`from_dict` carry ``None``.
    result: Any = field(default=None, repr=False, compare=False)
    #: Serialised records; filled by :meth:`from_dict`, computed lazily from
    #: ``result`` otherwise (text-only consumers never pay for the walk).
    _records: Any = field(default=None, repr=False, compare=False)

    @property
    def records(self) -> Any:
        """JSON-serialisable structured records of the run."""
        if self._records is None and self.result is not None:
            object.__setattr__(self, "_records", to_jsonable(self.result))
        return self._records

    def to_text(self) -> str:
        """The plain-text report ``repro run <name>`` prints."""
        return self.text

    def to_dict(self) -> dict[str, Any]:
        """The report as a JSON-serialisable dict."""
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "envelope": self.envelope,
            "records": self.records,
            "text": self.text,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The report serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StudyReport":
        """Rebuild a report from :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported study-report schema {schema!r} "
                f"(this version reads schema {SCHEMA_VERSION})"
            )
        missing = [key for key in ("experiment", "config", "records", "text", "envelope")
                   if key not in data]
        if missing:
            raise ValueError(f"study-report dict is missing keys {missing}")
        return cls(
            experiment=data["experiment"],
            config=dict(data["config"]),
            text=data["text"],
            envelope=dict(data["envelope"]),
            _records=data["records"],
        )

    @classmethod
    def from_json(cls, text: str) -> "StudyReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
