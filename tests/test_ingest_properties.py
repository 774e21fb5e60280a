"""Property test (hypothesis): incremental ingest writes what a cold
render writes, and serves what a batch mine serves.

The ingest pipeline re-renders only the combinations an advance
dirtied and reuses every clean combination's opinions, lineage and
text. Random ingest sequences — threshold crossings, degraded EM
fallbacks, statement-free batches, journal appends that a later
pipeline resumes from persisted state, and pipeline rebuilds — must
leave after every advance:

* ``state.json``, the table and its sidecar byte-identical to
  ``json.dumps(..., indent=1, sort_keys=True)`` of the same objects;
* the table equal to a one-shot batch mine of the journal, and the
  sidecar's lineage too (every pair's exact totals, every model and
  convergence verdict; the sampled statements legitimately differ,
  since each advance samples its own delta).
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core import EMLearner
from repro.corpus.document import Document, WebCorpus
from repro.ingest import (
    CorpusJournal,
    IngestPipeline,
    load_state,
    state_path_for,
)
from repro.kb import Entity, KnowledgeBase
from repro.pipeline import SurveyorPipeline
from repro.storage import (
    opinions_to_dict,
    provenance_path_for,
    provenance_to_dict,
)

KB = KnowledgeBase(
    [
        Entity.create("kitten", "animal"),
        Entity.create("snake", "animal"),
        Entity.create("tiger", "animal"),
        Entity.create("San Francisco", "city"),
        Entity.create("Chicago", "city"),
        Entity.create("Palo Alto", "city"),
    ]
)

#: Yields no statement.
FILLER = "The weather was mild today."

#: Each yields one statement.
SENTENCES = (
    "Kittens are cute.",
    "Kittens are not cute.",
    "Snakes are cute.",
    "Snakes are not cute.",
    "Tigers are dangerous.",
    "Tigers are not dangerous.",
    "Snakes are very dangerous.",
    "San Francisco is beautiful.",
    "Chicago is not beautiful.",
    "Palo Alto is safe.",
    "Chicago is safe.",
)

#: Low enough that combinations cross it as batches accumulate.
THRESHOLD = 3


@dataclass
class EveryFifthDegrades(EMLearner):
    """Falls back to majority vote whenever a combination holds a
    multiple of five statements, so a combination's fit flips between
    EM and the degraded fallback as its evidence grows."""

    def _m_step(self, pos, neg, resp, weights=None):
        theta, expected = super()._m_step(pos, neg, resp, weights)
        total = (pos + neg).sum() if weights is None else (
            (pos + neg) * weights
        ).sum()
        if int(total) % 5 == 0:
            return theta, float("nan")
        return theta, expected


LEARNER = EveryFifthDegrades()

documents = st.lists(
    st.sampled_from(SENTENCES + (FILLER,)), min_size=1, max_size=3
).map(" ".join)

batches = st.sampled_from(["statements", "statements", "none"]).flatmap(
    lambda kind: (
        st.lists(documents, min_size=1, max_size=6)
        if kind == "statements"
        else st.lists(st.just(FILLER), min_size=1, max_size=2)
    )
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), batches),
        # Journaled but not applied: a crash before the advance, which
        # the next pipeline resumes from persisted state.
        st.tuples(st.just("append"), batches),
        st.tuples(st.just("rebuild"), st.just([])),
        st.tuples(st.just("advance"), st.just([])),
    ),
    min_size=1,
    max_size=10,
)


def cold(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True)


def build(journal_dir: Path) -> IngestPipeline:
    return IngestPipeline(
        kb=KB,
        journal=CorpusJournal(journal_dir, fsync=False),
        occurrence_threshold=THRESHOLD,
        learner=LEARNER,
        provenance=True,
    )


def batch_mine(journaled: list[str]):
    corpus = WebCorpus(
        documents=[
            Document(doc_id=f"b{i}", text=text)
            for i, text in enumerate(journaled)
        ]
    )
    return SurveyorPipeline(
        kb=KB,
        n_workers=1,
        occurrence_threshold=THRESHOLD,
        learner=LEARNER,
        provenance=True,
    ).run(corpus)


def lineage(index) -> dict:
    """The sidecar payload without its sampled statements."""
    payload = provenance_to_dict(index)
    for per_entity in payload["pairs"].values():
        for row in per_entity.values():
            del row["samples"]
    return payload


def check_advance(pipeline, report, out: Path, journaled: list[str]):
    pipeline.publish(report, out)
    journal_dir = pipeline.journal.directory
    state_bytes = state_path_for(journal_dir).read_text()
    assert state_bytes == cold(pipeline.state.to_dict())
    assert state_bytes == cold(load_state(journal_dir).to_dict())
    assert out.read_text() == cold(opinions_to_dict(report.table))
    assert provenance_path_for(out).read_text() == cold(
        provenance_to_dict(report.provenance)
    )
    batch = batch_mine(journaled)
    assert opinions_to_dict(report.table) == opinions_to_dict(
        batch.opinions
    )
    assert lineage(report.provenance) == lineage(batch.provenance)


@seed(20150531)
@settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps)
def test_incremental_advances_match_cold_renders_and_batch(steps):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        out = root / "opinions.json"
        pipeline = build(root / "journal")
        journaled: list[str] = []
        for kind, texts in steps:
            if kind == "rebuild":
                pipeline = build(root / "journal")
                continue
            batch = [
                Document(doc_id=f"d{len(journaled) + i}", text=text)
                for i, text in enumerate(texts)
            ]
            journaled.extend(texts)
            if kind == "append":
                pipeline.append(batch)
                continue
            report = (
                pipeline.ingest(batch) if batch else pipeline.advance()
            )
            check_advance(pipeline, report, out, journaled)
