"""Tests for the extraction fast path (prefilter + memo + parity).

Three layers of coverage:

* unit tests for the Aho-Corasick screen, the adjective screen, the
  LRU annotation memo, and the environment defaults;
* soundness tests pinning the screens' over-approximation contracts
  against the real tagger and linker;
* differential parity: every evaluation-harness scenario (plus a
  pronoun-heavy corpus) run through the fast and reference paths,
  asserting bit-identical statements, evidence counters, extraction
  stats, linker stats, and mention counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.corpus import CorpusGenerator, Document, NoiseProfile, WebCorpus
from repro.evaluation import EvaluationHarness
from repro.extraction import (
    EvidenceCounter,
    EvidenceExtractor,
    ExtractionStats,
)
from repro.kb import Entity, KnowledgeBase
from repro.nlp import POS, Annotator, tag, tokenize, tokenize_document
from repro.nlp.prefilter import (
    COREF_PRONOUNS,
    FAST_PATH_ENV,
    STRICT_PARITY_ENV,
    AhoCorasick,
    AnnotationMemo,
    SentencePrefilter,
    alias_patterns,
    could_be_adjective,
    fast_path_default,
    strict_parity_default,
)
from repro.pipeline import SurveyorPipeline
from repro.storage import provenance_path_for, save


class TestAhoCorasick:
    def test_matches_anywhere_in_text(self):
        automaton = AhoCorasick(["kitten", "shark"])
        assert automaton.matches("kittens are cute")
        assert automaton.matches("a white shark")
        assert automaton.matches("ashark")  # substring, not word match
        assert not automaton.matches("dogs are loyal")

    def test_failure_links_find_overlapping_patterns(self):
        # Classic AC case: "hers" must be found even though the scan
        # first walks down the "his"/"she" branches.
        automaton = AhoCorasick(["he", "she", "his", "hers"])
        assert automaton.matches("ushers")
        assert automaton.matches("this")
        assert not automaton.matches("sz")

    def test_pattern_that_is_suffix_of_another(self):
        automaton = AhoCorasick(["abcd", "bc"])
        assert automaton.matches("xbcx")
        assert automaton.matches("abcd")

    def test_empty_patterns_are_ignored(self):
        automaton = AhoCorasick(["", "cat"])
        assert automaton.n_patterns == 1
        assert automaton.matches("cat")
        assert not automaton.matches("")

    def test_no_patterns_never_matches(self):
        automaton = AhoCorasick([])
        assert not automaton.matches("anything at all")


class TestAliasScreen:
    def test_plural_surface_passes(self, small_kb):
        screen = SentencePrefilter.from_kb(small_kb)
        assert screen.alias_hit("Kittens are adorable .")

    def test_possessive_clitic_passes(self, small_kb):
        screen = SentencePrefilter.from_kb(small_kb)
        assert screen.alias_hit("Chicago's winters are brutal .")

    def test_multi_word_alias_longest_word(self, small_kb):
        # "San Francisco" screens on "francisco".
        screen = SentencePrefilter.from_kb(small_kb)
        assert screen.alias_hit("We love San Francisco .")
        patterns = alias_patterns(small_kb)
        assert "francisco" in patterns
        assert "san" not in patterns

    def test_case_insensitive(self, small_kb):
        screen = SentencePrefilter.from_kb(small_kb)
        assert screen.alias_hit("SOCCER IS FUN")

    def test_irrelevant_sentence_fails(self, small_kb):
        screen = SentencePrefilter.from_kb(small_kb)
        assert not screen.alias_hit("The weather is nice today .")

    def test_screen_never_blocks_a_linkable_sentence(self, small_kb):
        """Soundness: any sentence the linker can match passes."""
        screen = SentencePrefilter.from_kb(small_kb)
        linker_sentences = [
            "kittens are cute",
            "The kitten sleeps .",
            "San Francisco is foggy",
            "I saw a buffalo near Buffalo .",
            "golf is slow , soccer is fast",
        ]
        annotator = Annotator(small_kb, fast_path=False)
        for text in linker_sentences:
            sentence = tokenize(text)
            tag(sentence)
            matches = annotator.linker.scan(sentence)
            assert matches, text
            assert screen.alias_hit(text), text

    def test_four_token_surface_links_identically(self):
        """Aliases up to ``_MAX_MENTION_TOKENS`` (4) survive the screen."""
        kb = KnowledgeBase(
            [
                Entity.create("great white shark pup", "animal"),
                Entity.create("kitten", "animal"),
            ]
        )
        text = "The great white shark pup is scary ."
        fast = Annotator(kb, fast_path=True, share_memo=False)
        ref = Annotator(kb, fast_path=False)
        fast_doc = fast.annotate("d", text)
        ref_doc = ref.annotate("d", text)
        assert fast_doc.mention_count() == ref_doc.mention_count() == 1
        mention = fast_doc.sentences[0].mentions[0]
        assert mention.entity_id == "/animal/great_white_shark_pup"


class TestAdjectiveScreen:
    def test_known_adjectives_pass(self):
        for lemma in ("cute", "big", "dangerous", "pretty"):
            assert could_be_adjective(lemma)

    def test_closed_class_words_fail(self):
        for lemma in ("the", "is", "not", "think", "and", "of", "very"):
            assert not could_be_adjective(lemma)

    def test_suffix_morphology_passes(self):
        assert could_be_adjective("spherous")

    def test_never_contradicts_the_tagger(self, small_kb):
        """Exactness on False: a token the tagger labels ADJ must have
        a lemma the screen admits — across a real rendered corpus."""
        harness = EvaluationHarness()
        corpus = CorpusGenerator(seed=13).generate(harness.scenarios()[0])
        checked = 0
        for document in corpus.documents[:300]:
            for sentence in tokenize_document(document.text):
                tag(sentence)
                for token in sentence.tokens:
                    if token.pos is POS.ADJ:
                        checked += 1
                        assert could_be_adjective(token.lemma), token
        assert checked > 100


class TestAnnotationMemo:
    def test_bounded_with_lru_eviction(self):
        memo = AnnotationMemo(max_entries=3)
        assert memo.put("a", 1) is False
        assert memo.put("b", 2) is False
        assert memo.put("c", 3) is False
        assert memo.put("d", 4) is True  # evicts "a"
        assert len(memo) == 3
        assert memo.get("a") is None
        assert memo.get("b") == 2

    def test_get_refreshes_recency(self):
        memo = AnnotationMemo(max_entries=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # "b" is now least recent
        memo.put("c", 3)
        assert memo.get("a") == 1
        assert memo.get("b") is None

    def test_link_table_has_double_bound(self):
        memo = AnnotationMemo(max_entries=2)
        assert memo.put_links(("a", ()), 1) is False
        assert memo.put_links(("b", ()), 2) is False
        assert memo.put_links(("c", ()), 3) is False
        assert memo.put_links(("d", ()), 4) is False
        assert memo.put_links(("e", ()), 5) is True
        assert memo.get_links(("a", ())) is None
        assert memo.get_links(("e", ())) == 5


class TestEnvDefaults:
    def test_fast_path_on_by_default(self, monkeypatch):
        monkeypatch.delenv(FAST_PATH_ENV, raising=False)
        assert fast_path_default() is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_fast_path_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv(FAST_PATH_ENV, value)
        assert fast_path_default() is False

    def test_fast_path_truthy_value(self, monkeypatch):
        monkeypatch.setenv(FAST_PATH_ENV, "1")
        assert fast_path_default() is True

    def test_strict_parity_off_by_default(self, monkeypatch):
        monkeypatch.delenv(STRICT_PARITY_ENV, raising=False)
        assert strict_parity_default() is False

    def test_strict_parity_env_enables(self, monkeypatch):
        monkeypatch.setenv(STRICT_PARITY_ENV, "1")
        assert strict_parity_default() is True
        monkeypatch.setenv(STRICT_PARITY_ENV, "off")
        assert strict_parity_default() is False


class TestFastPathStats:
    def test_skip_and_memo_counters(self, small_kb):
        annotator = Annotator(small_kb, fast_path=True, share_memo=False)
        text = (
            "The weather is nice today . Kittens are cute . "
            "The weather is nice today ."
        )
        annotator.annotate("d1", text)
        stats = annotator.fastpath_stats
        assert stats.sentences == 3
        assert stats.skipped == 2  # both weather sentences full-skip
        assert stats.memo_hits == 1  # repeated weather sentence
        assert stats.memo_misses == 2
        annotator.annotate("d2", text)
        assert stats.memo_hits == 4
        assert stats.memo_misses == 2
        assert 0.0 < stats.skip_rate < 1.0
        counters = stats.as_counters()
        assert counters["sentences"] == 6

    def test_reference_path_has_no_stats(self, small_kb):
        annotator = Annotator(small_kb, fast_path=False)
        assert annotator.fastpath_stats is None


def _run_both_paths(kb, documents):
    """Annotate+extract ``documents`` on both paths; return both sides."""
    sides = {}
    for name, fast in (("fast", True), ("reference", False)):
        annotator = Annotator(kb, fast_path=fast, share_memo=False)
        extractor = EvidenceExtractor()
        counter = EvidenceCounter()
        statements = []
        mentions = 0
        for document in documents:
            annotated = annotator.annotate(document.doc_id, document.text)
            mentions += annotated.mention_count()
            found = extractor.extract_document(annotated)
            statements.extend(found)
            counter.add_all(found)
        sides[name] = (
            statements,
            counter,
            extractor.stats,
            annotator.linker_stats,
            mentions,
        )
    return sides["fast"], sides["reference"]


class TestDifferentialParity:
    """The fast path must be bit-identical to the reference path."""

    @pytest.fixture(scope="class")
    def harness(self):
        return EvaluationHarness()

    def test_every_harness_scenario_is_bit_identical(self, harness):
        for scenario in harness.scenarios():
            corpus = CorpusGenerator(seed=7).generate(scenario)
            documents = corpus.documents[:400]
            fast, reference = _run_both_paths(harness.kb, documents)
            assert fast[0] == reference[0], scenario.name
            assert fast[1] == reference[1], scenario.name
            assert fast[2] == reference[2], scenario.name
            assert fast[3] == reference[3], scenario.name
            assert fast[4] == reference[4], scenario.name
            # the scenario must actually exercise extraction
            assert fast[2].statements > 0, scenario.name

    def test_pronoun_heavy_corpus_is_bit_identical(self, harness):
        corpus = CorpusGenerator(
            seed=9, noise=NoiseProfile(pronoun_statement_rate=0.4)
        ).generate(harness.scenarios()[0])
        documents = corpus.documents[:400]
        fast, reference = _run_both_paths(harness.kb, documents)
        assert fast[0] == reference[0]
        assert fast[1] == reference[1]
        assert fast[2] == reference[2]
        assert fast[3] == reference[3]
        assert fast[4] == reference[4]

    def test_extraction_stats_equality_is_meaningful(self):
        assert ExtractionStats(1, 2, 3, 2, 1) == ExtractionStats(
            1, 2, 3, 2, 1
        )
        assert ExtractionStats(1, 2, 3, 2, 1) != ExtractionStats(
            1, 2, 4, 2, 2
        )


#: Sentences repeated across documents and sentence positions, so
#: later documents take the memo-hit path (statements re-stamped from
#: a cached prototype), plus the ambiguous "Buffalo" under a city
#: context, an animal context and none (dropped).
REPEATED_TEXTS = [
    "Kittens are cute. Snakes are not cute.",
    "Snakes are not cute. Kittens are cute.",
    "Buffalo is big. I love this city.",
    "The animal was old. Buffalo is big.",
    "Buffalo is big.",
    "Kittens are cute. Buffalo is big. We saw the city.",
    "Snakes are never cute. Kittens are cute. Kittens are cute.",
    "Tigers are not very cute. Golf is boring.",
]


#: Lineage pairs (counts and samples) of a fast-path mine of
#: :data:`REPEATED_TEXTS`, as a ``dataclasses.replace`` re-stamp wrote
#: them; the slot-copy re-stamp must not move a byte.
PAIRS_GOLDEN = (
    Path(__file__).parent / "data" / "repeated_corpus_pairs.golden.json"
)


def _repeated_corpus() -> WebCorpus:
    corpus = WebCorpus()
    for copy in range(3):
        for index, text in enumerate(REPEATED_TEXTS):
            corpus.add(Document(f"doc-{copy}-{index}", text))
    return corpus


class TestRepeatedSentenceParity:
    """Memo hits re-stamp cached statements; the result must be what
    the reference path builds from scratch."""

    def test_statements_and_counters_equal_reference(self, small_kb):
        documents = _repeated_corpus().documents
        fast, reference = _run_both_paths(small_kb, documents)
        assert fast[0] == reference[0]
        assert [
            (s.doc_id, s.sentence, s.negations) for s in fast[0]
        ] == [
            (s.doc_id, s.sentence, s.negations) for s in reference[0]
        ]
        assert [s.key for s in fast[0]] == [s.key for s in reference[0]]
        assert fast[1] == reference[1]
        assert fast[2] == reference[2]
        assert fast[3] == reference[3]
        # the corpus exercises what it is meant to
        entities = {s.entity_id for s in fast[0]}
        assert {"/city/buffalo", "/animal/buffalo"} <= entities
        assert any(s.negations == 1 for s in fast[0])
        assert {s.doc_id for s in fast[0]} >= {
            "doc-2-0", "doc-2-1", "doc-2-6"
        }

    def test_memo_hits_restamp_the_cached_prototypes(self, small_kb):
        annotator = Annotator(small_kb, share_memo=False)
        extractor = EvidenceExtractor()
        found = {}
        for document in _repeated_corpus().documents:
            annotated = annotator.annotate(document.doc_id, document.text)
            for statement in extractor.extract_document(annotated):
                found.setdefault(statement.sentence, []).append(
                    statement
                )
        assert annotator.fastpath_stats.memo_hits > 0
        kittens = found["Kittens are cute ."]
        assert len({s.doc_id for s in kittens}) > 1
        # every copy shares its prototype's key object
        assert len({id(s.key) for s in kittens}) == 1

    def test_table_and_sidecar_are_byte_identical(
        self, small_kb, tmp_path
    ):
        written = {}
        for name, fast in (("fast", True), ("reference", False)):
            report = SurveyorPipeline(
                kb=small_kb,
                occurrence_threshold=1,
                fast_path=fast,
                provenance=True,
            ).run(_repeated_corpus())
            out = tmp_path / name / "opinions.json"
            out.parent.mkdir()
            save(report.opinions, out)
            save(report.provenance, provenance_path_for(out))
            written[name] = (
                out.read_bytes(),
                json.loads(provenance_path_for(out).read_bytes()),
            )
        fast_table, fast_sidecar = written["fast"]
        reference_table, reference_sidecar = written["reference"]
        assert fast_table == reference_table
        # The fast path samples each distinct sentence once, so its
        # lineage differs from the reference path's by design; the
        # golden pins it instead.
        for section in ("models", "convergence"):
            assert fast_sidecar[section] == reference_sidecar[section]
        golden = json.loads(PAIRS_GOLDEN.read_text())
        assert fast_sidecar["pairs"] == golden
        assert "/city/buffalo" in golden["big|city"]


class TestStrictParityPipeline:
    def test_strict_parity_run_is_healthy(self, small_kb, cute_scenario):
        corpus = CorpusGenerator(seed=23).generate(cute_scenario)
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=20,
            strict_parity=True,
        )
        report = pipeline.run(corpus)
        assert report.health.prefilter_sentences > 0
        assert report.evidence.statements_per_key()

    def test_fast_and_reference_pipelines_agree(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=24).generate(cute_scenario)
        fast = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=20, fast_path=True
        ).run(corpus)
        reference = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=20, fast_path=False
        ).run(corpus)
        assert fast.evidence == reference.evidence
        assert (
            fast.health.prefilter_sentences > 0
        )
        assert reference.health.prefilter_sentences == 0

    def test_injected_divergence_raises_parity_error(
        self, small_kb, cute_scenario, monkeypatch
    ):
        """A parity violation must fail the run loudly — even without
        ``strict``, the resilience machinery must not retry or skip
        the shard and bury it."""
        from repro.core.errors import ParityError
        from repro.extraction.extractor import EvidenceExtractor

        corpus = CorpusGenerator(seed=26).generate(cute_scenario)
        original = EvidenceExtractor.extract_sentence

        def broken(self, annotated, doc_id="", sentence_index=0):
            found = original(self, annotated, doc_id, sentence_index)
            if annotated.extraction_cache is not None and found:
                return found[:-1]  # fast path loses one statement
            return found

        monkeypatch.setattr(
            EvidenceExtractor, "extract_sentence", broken
        )
        pipeline = SurveyorPipeline(
            kb=small_kb,
            occurrence_threshold=20,
            strict_parity=True,
        )
        with pytest.raises(ParityError):
            pipeline.run(corpus)

    def test_health_report_mentions_fast_path(
        self, small_kb, cute_scenario
    ):
        corpus = CorpusGenerator(seed=25).generate(cute_scenario)
        report = SurveyorPipeline(
            kb=small_kb, occurrence_threshold=20
        ).run(corpus)
        text = report.health.report()
        assert "fast path:" in text
        assert "skipped=" in text
