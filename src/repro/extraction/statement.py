"""Evidence statement records and count aggregation.

An evidence statement connects one entity to one subjective property
with a polarity (Section 4). The aggregation step groups statements by
entity-property pair and produces the ``<C+, C->`` evidence tuples the
probabilistic model consumes (Section 3).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.types import (
    EvidenceCounts,
    Polarity,
    PropertyTypeKey,
    SubjectiveProperty,
)


@dataclass(frozen=True, slots=True)
class EvidenceStatement:
    """One extracted statement."""

    entity_id: str
    entity_type: str
    property: SubjectiveProperty
    polarity: Polarity
    pattern: str
    doc_id: str = ""
    sentence: str = ""
    #: Negation-particle count on the dependency path (Section 4.2);
    #: ``polarity`` is negative iff this is odd. Kept on the statement
    #: so provenance can report *why* a statement counted the way it
    #: did. A pure function of the parsed sentence, so it is safe to
    #: cache across documents alongside the rest of the proto.
    negations: int = 0
    #: The (property, type) combination the statement counts toward,
    #: built once here so folding a statement builds no key. Derived
    #: from ``property`` and ``entity_type``, so it takes no part in
    #: ``==``, ``hash`` or ``repr``; it is pickled with the rest.
    key: PropertyTypeKey = field(
        init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.polarity is Polarity.NEUTRAL:
            raise ValueError("statements are positive or negative")
        object.__setattr__(
            self,
            "key",
            PropertyTypeKey(
                property=self.property, entity_type=self.entity_type
            ),
        )

    def restamped(self, doc_id: str) -> "EvidenceStatement":
        """This statement attributed to another document.

        Equal to ``dataclasses.replace(self, doc_id=doc_id)`` but
        copies the slots instead of re-running ``__init__`` and its
        validation: ``self`` was validated when it was built, and
        every other field, ``key`` included, carries over unchanged.
        """
        clone = _new_statement(EvidenceStatement)
        for name in _COPIED_SLOTS:
            _set_slot(clone, name, getattr(self, name))
        _set_slot(clone, "doc_id", doc_id)
        return clone


_new_statement = object.__new__
_set_slot = object.__setattr__
_COPIED_SLOTS = tuple(
    name for name in EvidenceStatement.__slots__ if name != "doc_id"
)


class EvidenceCounter:
    """Accumulates statements into per-pair evidence tuples.

    Plain nested dicts (not defaultdicts with closures) so counters
    pickle cleanly across process-pool workers.
    """

    def __init__(self) -> None:
        self._counts: dict[PropertyTypeKey, dict[str, list[int]]] = {}
        self._n_statements = 0

    def _slot(self, key: PropertyTypeKey, entity_id: str) -> list[int]:
        per_entity = self._counts.get(key)
        if per_entity is None:
            per_entity = {}
            self._counts[key] = per_entity
        slot = per_entity.get(entity_id)
        if slot is None:
            slot = [0, 0]
            per_entity[entity_id] = slot
        return slot

    def add(self, statement: EvidenceStatement) -> None:
        slot = self._slot(statement.key, statement.entity_id)
        if statement.polarity is Polarity.POSITIVE:
            slot[0] += 1
        else:
            slot[1] += 1
        self._n_statements += 1

    def add_all(self, statements: Iterable[EvidenceStatement]) -> None:
        for statement in statements:
            self.add(statement)

    def __eq__(self, other: object) -> bool:
        """Exact count equality — the strict-parity assertion."""
        if not isinstance(other, EvidenceCounter):
            return NotImplemented
        return (
            self._n_statements == other._n_statements
            and self._counts == other._counts
        )

    def merge(self, other: "EvidenceCounter") -> None:
        """Fold another counter in (the reduce side of the pipeline)."""
        for key, per_entity in other._counts.items():
            for entity_id, (pos, neg) in per_entity.items():
                slot = self._slot(key, entity_id)
                slot[0] += pos
                slot[1] += neg
        self._n_statements += other._n_statements

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_statements(self) -> int:
        return self._n_statements

    @property
    def n_pairs(self) -> int:
        return sum(len(v) for v in self._counts.values())

    def keys(self) -> list[PropertyTypeKey]:
        return list(self._counts)

    def counts_for(
        self, key: PropertyTypeKey
    ) -> dict[str, EvidenceCounts]:
        return {
            entity_id: EvidenceCounts(pos, neg)
            for entity_id, (pos, neg) in self._counts.get(key, {}).items()
        }

    def as_evidence(
        self,
    ) -> dict[PropertyTypeKey, dict[str, EvidenceCounts]]:
        """The full nested mapping Surveyor's driver consumes."""
        return {key: self.counts_for(key) for key in self._counts}

    def get(self, key: PropertyTypeKey, entity_id: str) -> EvidenceCounts:
        pos, neg = self._counts.get(key, {}).get(entity_id, (0, 0))
        return EvidenceCounts(pos, neg)

    def statements_per_key(self) -> dict[PropertyTypeKey, int]:
        """Total statement count per property-type combination."""
        return {
            key: sum(pos + neg for pos, neg in per_entity.values())
            for key, per_entity in self._counts.items()
        }
