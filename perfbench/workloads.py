"""Seeded inputs for every workload.

Everything the program receives is built here from the ``--seed``
argument: the corpus (rendered by ``CorpusGenerator`` over the fixed
evaluation world, so the seed changes the draws and not the world),
the query mix over the world's query space, the open-loop arrival
schedules, and the held-out ingest batches. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from loadgen import Planned, get_request, post_json

#: The evaluation world (KB, scenario truths, popularity) stays fixed;
#: only the corpus draws follow ``--seed``.
WORLD_SEED = 2015

#: Documents per corpus. The generator yields ~27.6k-29.1k documents
#: depending on the seed; truncating the shuffled corpus fixes the
#: input size so documents per second compares across seeds.
CORPUS_DOCS = 26_000

#: ``ingest_live`` serves the head of the corpus and posts the rest.
HEAD_FRACTION = 0.9
INGEST_BATCH_DOCS = 4

#: ``repro serve`` default the query space is sized against.
SERVE_CACHE_SIZE = 1024

#: ``top`` values a client asks for.
TOPS = (3, 10, 25)

#: Zipf exponent of query popularity within each request kind.
#: An assumption, not a measurement: no query log of this service
#: exists, and s = 1 is the classic web-query popularity shape. It
#: sets the query cache hit ratio, which every run prints.
ZIPF_S = 1.0

#: Share of each request kind in the mix. Also an assumption: most
#: traffic asks subjective queries, a few percent browse listings or
#: lineage, and a few ask about types nothing was mined for.
KIND_SHARES = {
    "ask": 0.88,
    "listing": 0.05,
    "explain": 0.04,
    "unmined": 0.03,
}

#: Types the query parser knows that the evaluation KB has no
#: entities of: answered from an empty universe.
UNMINED_TYPES = ("country", "lake", "mountain")

#: Why each workload is in the benchmark (printed with its profile).
WHY = {
    "serve_zipf": (
        "mine the seeded corpus (nlp, extraction, pipeline, core.em), "
        "then serve the table to an open-loop Zipf mix with more "
        "distinct keys than --cache-size"
    ),
    "ingest_live": (
        "writes beside reads: storage and core.em refits set "
        "freshness, and every swap purges the query cache"
    ),
}


@dataclass(frozen=True)
class Corpus:
    doc_ids: tuple[str, ...]
    texts: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.texts)

    def write_lines(self, path: Path, start: int = 0, stop=None) -> int:
        """One document per line (the ``repro mine`` input format)."""
        texts = self.texts[start:stop]
        path.write_text("".join(text + "\n" for text in texts))
        return len(texts)


def build_corpus(seed: int) -> Corpus:
    """The seeded corpus, truncated to :data:`CORPUS_DOCS`."""
    from repro.corpus import CorpusGenerator, NoiseProfile
    from repro.evaluation import EvaluationHarness

    scenarios = EvaluationHarness(seed=WORLD_SEED).scenarios()
    corpus = CorpusGenerator(seed=seed, noise=NoiseProfile()).generate(
        *scenarios
    )
    documents = corpus.documents[:CORPUS_DOCS]
    if len(documents) < CORPUS_DOCS:
        raise ValueError(
            f"seed {seed} rendered {len(documents)} documents, "
            f"need {CORPUS_DOCS}"
        )
    for document in documents:
        if "\n" in document.text or not document.text.strip():
            raise ValueError(
                f"{document.doc_id}: not a one-line document"
            )
    return Corpus(
        doc_ids=tuple(d.doc_id for d in documents),
        texts=tuple(d.text for d in documents),
    )


def head_size(corpus: Corpus) -> int:
    return int(len(corpus) * HEAD_FRACTION)


def ingest_batches(corpus: Corpus) -> list[list[dict]]:
    """Held-out documents in corpus order, in small batches."""
    start = head_size(corpus)
    docs = [
        {"text": text, "doc_id": doc_id}
        for doc_id, text in zip(
            corpus.doc_ids[start:], corpus.texts[start:]
        )
    ]
    return [
        docs[i:i + INGEST_BATCH_DOCS]
        for i in range(0, len(docs), INGEST_BATCH_DOCS)
    ]


# ----------------------------------------------------------------------
# Query mix
# ----------------------------------------------------------------------
def _plural(entity_type: str) -> str:
    from repro.nlp.lexicon import TYPE_NOUNS

    for noun, target in TYPE_NOUNS.items():
        if target == entity_type and noun != entity_type:
            return noun
    raise ValueError(f"no type noun for {entity_type!r}")


@dataclass(frozen=True)
class QueryMix:
    """Distinct requests per kind, each kind in Zipf rank order."""

    requests: dict[str, tuple[str, ...]]

    @property
    def distinct(self) -> int:
        return sum(len(paths) for paths in self.requests.values())

    def sampler(self, rng: random.Random):
        """A function drawing one request path per call."""
        kinds = list(KIND_SHARES)
        kind_cum = list(itertools.accumulate(
            KIND_SHARES[k] for k in kinds
        ))
        cums = {
            kind: list(itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_S
                for rank in range(len(self.requests[kind]))
            ))
            for kind in kinds
        }

        def draw() -> str:
            kind = kinds[bisect.bisect(
                kind_cum, rng.random() * kind_cum[-1]
            )]
            cum = cums[kind]
            rank = bisect.bisect(cum, rng.random() * cum[-1])
            return self.requests[kind][rank]

        return draw


def build_query_mix(keys, pairs, seed: int) -> QueryMix:
    """The whole query space, Zipf-ranked by seed.

    ``keys`` are ``(property, entity_type)`` combinations; ``pairs``
    the ``(entity, property, entity_type)`` triples ``/explain`` asks
    about.
    """
    rng = random.Random(f"{seed}/query-mix")
    by_type: dict[str, list[str]] = {}
    for prop, entity_type in sorted(keys):
        by_type.setdefault(entity_type, []).append(prop)
    asks = []
    for entity_type, props in sorted(by_type.items()):
        noun = _plural(entity_type)
        texts = [f"{p} {noun}" for p in props]
        texts += [f"not {p} {noun}" for p in props]
        for a, b in itertools.permutations(props, 2):
            for na, nb in itertools.product(("", "not "), repeat=2):
                texts.append(f"{na}{a} {nb}{b} {noun}")
        asks += [(text, top) for text in texts for top in TOPS]
    adjectives = sorted({p for p, _ in keys})
    unmined = [
        (f"{adjective} {_plural(entity_type)}", 10)
        for entity_type in UNMINED_TYPES
        for adjective in adjectives
    ]
    listings = [
        "/query?" + urllib.parse.urlencode({
            "property": prop, "type": entity_type,
            "negative": negative, "top": 10,
        })
        for prop, entity_type in sorted(keys)
        for negative in ("0", "1")
    ]
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    explains = [
        "/explain?" + urllib.parse.urlencode({
            "entity": entity, "property": prop, "type": entity_type,
        })
        for entity, prop, entity_type in pairs[:120]
    ]

    def ask_path(text: str, top: int) -> str:
        return "/query?" + urllib.parse.urlencode({"q": text, "top": top})

    requests = {
        "ask": [ask_path(t, k) for t, k in asks],
        "listing": listings,
        "explain": explains,
        "unmined": [ask_path(t, k) for t, k in unmined],
    }
    for paths in requests.values():
        rng.shuffle(paths)
    return QueryMix({k: tuple(v) for k, v in requests.items()})


def world_keys() -> set[tuple[str, str]]:
    """Every ``(property, entity_type)`` the evaluation world asserts.

    The mix is built over these rather than over the keys a seed's
    mine happened to keep above threshold, so the query space (and
    its size against the cache) is the same for every seed; queries
    on a key the table lacks are answered from agnostic priors.
    """
    from repro.evaluation import EvaluationHarness

    return {
        (spec.property.text, scenario.entity_type)
        for scenario in EvaluationHarness(seed=WORLD_SEED).scenarios()
        for spec in scenario.specs
    }


def table_pairs(table_path: Path) -> set[tuple[str, str, str]]:
    """``(entity, property, entity_type)`` of every opinion in a saved
    table: the targets ``/explain`` can resolve."""
    from repro.storage import load

    table = load(table_path)
    return {
        (op.entity_id, k.property.text, k.entity_type)
        for k in table.keys()
        for op in table.for_key(k)
    }


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
def poisson_schedule(
    mix: QueryMix,
    rate: float,
    seconds: float,
    seed: int,
    tag: str,
    *,
    conn: int | None = None,
    check_every: int = 0,
) -> list[Planned]:
    """Open-loop Poisson arrivals at ``rate``/s for ``seconds``.

    Every ``check_every``-th request keeps its body for the answer
    check (0 keeps none).
    """
    rng = random.Random(f"{seed}/{tag}/{rate}")
    draw = mix.sampler(rng)
    plans = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return plans
        keep = bool(check_every) and len(plans) % check_every == 0
        plans.append(Planned(
            due=t, payload=get_request(draw()), label="query",
            conn=conn, keep_body=keep,
        ))


def ingest_schedule(
    batches: list[list[dict]], interval: float, count: int
) -> list[Planned]:
    """One batch every ``interval`` seconds on connection 0."""
    if count > len(batches):
        raise ValueError(
            f"{count} ingests asked, {len(batches)} batches held out"
        )
    return [
        Planned(
            due=(i + 1) * interval,
            payload=post_json("/admin/ingest", {"documents": batch}),
            label="write", conn=0, keep_body=True,
        )
        for i, batch in enumerate(batches[:count])
    ]
