"""Tests for JSON persistence of the mined artefacts."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import (
    EvidenceCounts,
    ModelParameters,
    Opinion,
    OpinionTable,
    PropertyTypeKey,
    SubjectiveProperty,
)
from repro.extraction import EvidenceCounter, EvidenceStatement
from repro.core.types import Polarity
from repro.kb import Entity, KnowledgeBase
from repro.storage import FormatError, load, save
from repro.storage.serialize import Fragments, JsonRenderer, plain

CUTE = PropertyTypeKey(SubjectiveProperty("cute"), "animal")
VERY_BIG = PropertyTypeKey(
    SubjectiveProperty("big", ("very",)), "city"
)


class TestKnowledgeBaseRoundTrip:
    def test_round_trip(self, tmp_path, small_kb):
        path = save(small_kb, tmp_path / "kb.json")
        loaded = load(path)
        assert isinstance(loaded, KnowledgeBase)
        assert len(loaded) == len(small_kb)
        original = small_kb.get("/city/san_francisco")
        restored = loaded.get("/city/san_francisco")
        assert restored.name == original.name
        assert restored.attributes == original.attributes

    def test_aliases_survive(self, tmp_path):
        kb = KnowledgeBase(
            [Entity.create("white shark", "animal",
                           aliases=("great white shark",))]
        )
        loaded = load(save(kb, tmp_path / "kb.json"))
        assert loaded.candidates("great white shark")


class TestEvidenceRoundTrip:
    def test_round_trip(self, tmp_path):
        counter = EvidenceCounter()
        for _ in range(3):
            counter.add(
                EvidenceStatement(
                    entity_id="/animal/kitten",
                    entity_type="animal",
                    property=SubjectiveProperty("cute"),
                    polarity=Polarity.POSITIVE,
                    pattern="acomp",
                )
            )
        counter.add(
            EvidenceStatement(
                entity_id="/animal/kitten",
                entity_type="animal",
                property=SubjectiveProperty("cute"),
                polarity=Polarity.NEGATIVE,
                pattern="acomp",
            )
        )
        loaded = load(save(counter, tmp_path / "ev.json"))
        counts = loaded.get(CUTE, "/animal/kitten")
        assert (counts.positive, counts.negative) == (3, 1)


class TestParametersRoundTrip:
    def test_round_trip(self, tmp_path):
        params = {
            CUTE: ModelParameters(0.9, 30.0, 3.0),
            VERY_BIG: ModelParameters(0.8, 12.0, 6.0),
        }
        loaded = load(save(params, tmp_path / "params.json"))
        assert loaded == params

    def test_adverb_key_survives(self, tmp_path):
        params = {VERY_BIG: ModelParameters(0.8, 12.0, 6.0)}
        loaded = load(save(params, tmp_path / "params.json"))
        key = next(iter(loaded))
        assert key.property.adverbs == ("very",)


class TestOpinionsRoundTrip:
    def test_round_trip(self, tmp_path):
        table = OpinionTable(
            [
                Opinion(
                    "/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1)
                ),
                Opinion(
                    "/city/tokyo", VERY_BIG, 0.88, EvidenceCounts(4, 0)
                ),
            ]
        )
        loaded = load(save(table, tmp_path / "op.json"))
        assert isinstance(loaded, OpinionTable)
        assert len(loaded) == 2
        kitten = loaded.get("/animal/kitten", CUTE)
        assert kitten.probability == pytest.approx(0.97)
        assert kitten.evidence == EvidenceCounts(9, 1)

    def test_queries_work_after_load(self, tmp_path):
        table = OpinionTable(
            [Opinion("/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1))]
        )
        loaded = load(save(table, tmp_path / "op.json"))
        assert loaded.entities_with(CUTE)[0].entity_id == "/animal/kitten"

    def test_degraded_flags_round_trip(self, tmp_path):
        table = OpinionTable(
            [
                Opinion(
                    "/animal/kitten", CUTE, 0.97, EvidenceCounts(9, 1)
                ),
                Opinion(
                    "/city/tokyo", VERY_BIG, 0.88, EvidenceCounts(4, 0)
                ),
            ]
        )
        table.mark_degraded(VERY_BIG)
        loaded = load(save(table, tmp_path / "op.json"))
        assert loaded.is_degraded(VERY_BIG)
        assert not loaded.is_degraded(CUTE)
        assert loaded.degraded_keys == frozenset({VERY_BIG})

    def test_files_without_degraded_key_still_load(self, tmp_path):
        # Artefacts written before the flag existed carry no
        # "degraded" entry; they must load as fully-trusted tables.
        path = save(
            OpinionTable(
                [Opinion("/animal/kitten", CUTE, 0.97,
                         EvidenceCounts(9, 1))]
            ),
            tmp_path / "op.json",
        )
        payload = json.loads(path.read_text())
        del payload["degraded"]
        path.write_text(json.dumps(payload))
        loaded = load(path)
        assert loaded.degraded_keys == frozenset()


class TestErrors:
    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save(object(), tmp_path / "x.json")

    def test_non_artefact_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(FormatError):
            load(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "wat", "version": 1}))
        with pytest.raises(FormatError):
            load(path)

    def test_version_mismatch_rejected(self, tmp_path, small_kb):
        path = save(small_kb, tmp_path / "kb.json")
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load(path)

    def test_malformed_key_rejected(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            json.dumps(
                {
                    "format": "opinions",
                    "version": 1,
                    "opinions": [
                        {
                            "entity": "/x",
                            "key": "nokeyhere",
                            "probability": 0.5,
                            "positive": 0,
                            "negative": 0,
                        }
                    ],
                }
            )
        )
        with pytest.raises(FormatError):
            load(path)


# ---------------------------------------------------------------------------
# Fragment rendering
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    # Raw newlines and quotes inside strings must not disturb the
    # re-indentation of a fragment.
    | st.text(alphabet=st.sampled_from('ab"\\\n\t é'), max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


def cold(payload) -> str:
    return json.dumps(plain(payload), indent=1, sort_keys=True)


class Counted:
    """A fragment member whose builds are counted."""

    def __init__(self, value):
        self.value = value
        self.builds = 0

    def __call__(self):
        self.builds += 1
        return self.value


def layered(objects, runs, token=lambda name: name):
    """A payload with fragments below the top level and at depth 2."""
    return {
        "format": "test",
        "outer": {
            "objects": Fragments({
                name: (token(name), build)
                for name, build in objects.items()
            }),
            "version": 1,
        },
        "runs": Fragments(
            {name: (token(name), build) for name, build in runs.items()},
            array=True,
        ),
    }


class TestJsonRenderer:
    @seed(1)
    @settings(max_examples=150, database=None)
    @given(
        objects=st.dictionaries(st.text(max_size=4), json_values, max_size=4),
        runs=st.dictionaries(
            st.text(max_size=4), st.lists(json_values, max_size=3), max_size=4
        ),
    )
    def test_cold_and_warm_renders_equal_json_dumps(self, objects, runs):
        payload = layered(
            {k: (lambda v=v: v) for k, v in objects.items()},
            {k: (lambda v=v: v) for k, v in runs.items()},
        )
        renderer = JsonRenderer()
        assert renderer.render(payload) == cold(payload)
        assert renderer.render(payload) == cold(payload)

    def test_plain_payload_is_json_dumps(self, small_kb):
        from repro.storage import kb_to_dict

        payload = kb_to_dict(small_kb)
        assert JsonRenderer().render(payload) == json.dumps(
            payload, indent=1, sort_keys=True
        )

    def test_only_members_with_a_new_token_rebuild(self):
        tokens = {"a": object(), "b": object(), "r": object()}
        a, b, run = Counted({"x": [1, 2]}), Counted([3]), Counted([{"y": 1}])

        def payload():
            return layered({"a": a, "b": b}, {"r": run}, token=tokens.get)

        renderer = JsonRenderer()
        renderer.render(payload())
        tokens["b"] = object()
        b.value = [4, 5]
        text = renderer.render(payload())
        assert (a.builds, b.builds, run.builds) == (1, 2, 1)
        assert text == cold(payload())

    def test_none_tokens_always_rebuild(self):
        member = Counted([1])
        renderer = JsonRenderer()
        payload = {"f": Fragments({"m": (None, member)})}
        renderer.render(payload)
        member.value = [2]
        text = renderer.render(payload)
        assert member.builds == 2
        assert text == cold(payload)

    def test_tuple_tokens_compare_by_identity(self):
        one, two = [1.0], [1.0]
        member = Counted([0])
        renderer = JsonRenderer()
        renderer.render({"f": Fragments({"m": ((one,), member)})})
        renderer.render({"f": Fragments({"m": ((one,), member)})})
        assert member.builds == 1
        # Equal but not the same objects: re-rendered.
        renderer.render({"f": Fragments({"m": ((two,), member)})})
        assert member.builds == 2

    def test_dropped_members_leave_the_cache(self):
        token = object()
        renderer = JsonRenderer()
        both = {
            "f": Fragments({"a": (token, lambda: 1), "b": (token, lambda: 2)})
        }
        renderer.render(both)
        only_a = {"f": Fragments({"a": (token, lambda: 1)})}
        assert renderer.render(only_a) == cold(only_a)
        empty = {"f": Fragments({}), "g": Fragments({}, array=True)}
        assert renderer.render(empty) == cold(empty)

    def test_save_with_a_warm_renderer_writes_cold_bytes(self, tmp_path):
        table = OpinionTable(
            [
                Opinion("/animal/kitten", CUTE, 0.9, EvidenceCounts(4, 1)),
                Opinion("/city/sf", VERY_BIG, 0.2, EvidenceCounts(0, 3)),
            ]
        )
        renderer = JsonRenderer()
        save(table, tmp_path / "warm.json", renderer)
        table.add(Opinion("/animal/puppy", CUTE, 0.7, EvidenceCounts(2, 0)))
        warm = save(table, tmp_path / "warm.json", renderer).read_text()
        assert warm == save(table, tmp_path / "cold.json").read_text()
