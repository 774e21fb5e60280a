"""Tests for evidence statements and count aggregation."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import Polarity, PropertyTypeKey, SubjectiveProperty
from repro.extraction import EvidenceCounter, EvidenceStatement

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")


def statement(
    entity: str = "/animal/kitten",
    polarity: Polarity = Polarity.POSITIVE,
    prop: str = "cute",
) -> EvidenceStatement:
    return EvidenceStatement(
        entity_id=entity,
        entity_type="animal",
        property=SubjectiveProperty.parse(prop),
        polarity=polarity,
        pattern="acomp",
    )


class TestEvidenceStatement:
    def test_key_derivation(self):
        assert statement().key == CUTE

    def test_neutral_polarity_rejected(self):
        with pytest.raises(ValueError):
            statement(polarity=Polarity.NEUTRAL)

    def test_key_is_built_once_and_takes_no_part_in_identity(self):
        first = statement()
        assert first.key is first.key
        assert "key" not in repr(first)
        (key_field,) = [
            f for f in dataclasses.fields(first) if f.name == "key"
        ]
        assert not (key_field.init or key_field.compare or key_field.repr)
        # equal statements hash alike whatever key object they hold
        second = statement()
        assert second.key is not first.key
        assert second == first and hash(second) == hash(first)


class TestRestamp:
    """A cached prototype re-stamped for another document."""

    @staticmethod
    def proto() -> EvidenceStatement:
        return EvidenceStatement(
            entity_id="/animal/kitten",
            entity_type="Animal",
            property=SubjectiveProperty.parse("very cute"),
            polarity=Polarity.NEGATIVE,
            pattern="acomp",
            doc_id="doc-0",
            sentence="Kittens are not very cute .",
            negations=1,
        )

    def test_equals_a_replace_copy(self):
        proto = self.proto()
        restamped = proto.restamped("doc-1")
        replaced = dataclasses.replace(proto, doc_id="doc-1")
        assert restamped == replaced
        assert hash(restamped) == hash(replaced)
        assert repr(restamped) == repr(replaced)
        for name in EvidenceStatement.__slots__:
            assert getattr(restamped, name) == getattr(replaced, name)
        assert restamped.doc_id == "doc-1"
        assert proto.doc_id == "doc-0"
        assert restamped != proto

    def test_carries_the_prototype_key(self):
        proto = self.proto()
        restamped = proto.restamped("doc-1")
        assert restamped.key is proto.key
        assert restamped.key == PropertyTypeKey(
            SubjectiveProperty.parse("very cute"), "animal"
        )

    def test_survives_a_pickle_round_trip(self):
        proto = self.proto()
        restamped = proto.restamped("doc-1")
        replaced = dataclasses.replace(proto, doc_id="doc-1")
        loaded = pickle.loads(pickle.dumps(restamped))
        assert loaded == replaced
        assert hash(loaded) == hash(replaced)
        assert repr(loaded) == repr(replaced)
        assert loaded.key == replaced.key

    def test_is_still_frozen(self):
        restamped = self.proto().restamped("doc-1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            restamped.doc_id = "doc-2"

    def test_counts_like_the_prototype(self):
        proto = self.proto()
        by_proto, by_copy = EvidenceCounter(), EvidenceCounter()
        by_proto.add(proto)
        by_copy.add(proto.restamped("doc-1"))
        assert by_copy == by_proto
        assert by_copy.keys() == [proto.key]


class TestEvidenceCounter:
    def test_counts_by_polarity(self):
        counter = EvidenceCounter()
        counter.add(statement())
        counter.add(statement())
        counter.add(statement(polarity=Polarity.NEGATIVE))
        counts = counter.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (2, 1)

    def test_unknown_pair_is_zero(self):
        counter = EvidenceCounter()
        counts = counter.get(CUTE, "/animal/ghost")
        assert counts.total == 0

    def test_n_statements_and_pairs(self):
        counter = EvidenceCounter()
        counter.add_all(
            [
                statement(),
                statement(entity="/animal/snake"),
                statement(entity="/animal/snake", prop="big"),
            ]
        )
        assert counter.n_statements == 3
        assert counter.n_pairs == 3
        assert len(counter.keys()) == 2

    def test_merge(self):
        left = EvidenceCounter()
        left.add(statement())
        right = EvidenceCounter()
        right.add(statement())
        right.add(statement(polarity=Polarity.NEGATIVE))
        left.merge(right)
        counts = left.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (2, 1)
        assert left.n_statements == 3

    def test_merge_disjoint_keys(self):
        left = EvidenceCounter()
        left.add(statement())
        right = EvidenceCounter()
        right.add(statement(prop="big"))
        left.merge(right)
        assert len(left.keys()) == 2

    def test_as_evidence_shape(self):
        counter = EvidenceCounter()
        counter.add(statement())
        evidence = counter.as_evidence()
        assert CUTE in evidence
        assert "/animal/kitten" in evidence[CUTE]
        assert evidence[CUTE]["/animal/kitten"].positive == 1

    def test_statements_per_key(self):
        counter = EvidenceCounter()
        counter.add_all([statement(), statement(), statement(prop="big")])
        per_key = counter.statements_per_key()
        assert per_key[CUTE] == 2
