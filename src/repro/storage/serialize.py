"""JSON (de)serialization for the library's durable artefacts.

A deployment mines opinions once and serves them for months; this
module provides stable, versioned JSON round-trips for the knowledge
base, aggregated evidence, fitted model parameters, and the opinion
table. Formats are line-oriented-friendly dicts (no custom classes in
the payload) so files stay diffable and language-agnostic.
"""

from __future__ import annotations

import json
import operator
import os
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

from ..core.errors import CheckpointError
from ..core.params import ModelParameters
from ..core.result import OpinionTable
from ..core.types import (
    EvidenceCounts,
    Opinion,
    PropertyTypeKey,
    SubjectiveProperty,
)
from ..extraction.provenance import (
    PairProvenance,
    ProvenanceIndex,
    ProvenanceLedger,
    ProvenanceSample,
)
from ..extraction.statement import EvidenceCounter
from ..kb.entity import Entity
from ..kb.knowledge_base import KnowledgeBase

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised when a payload does not match the expected format."""


def _check_version(payload: dict, kind: str) -> None:
    if not isinstance(payload, dict):
        raise FormatError(f"{kind}: expected a JSON object")
    if payload.get("format") != kind:
        raise FormatError(
            f"expected format {kind!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{kind}: unsupported version {payload.get('version')!r}"
        )


def _key_to_str(key: PropertyTypeKey) -> str:
    return f"{key.property.text}|{key.entity_type}"


def _key_from_str(text: str) -> PropertyTypeKey:
    property_text, _, entity_type = text.partition("|")
    if not entity_type:
        raise FormatError(f"malformed combination key {text!r}")
    return PropertyTypeKey(
        property=SubjectiveProperty.parse(property_text),
        entity_type=entity_type,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
#
# Every artefact is ``json.dumps(payload, indent=1, sort_keys=True)``.
# With ``indent`` json runs its pure-Python encoder, so re-encoding a
# whole file to change one combination costs the whole file. A payload
# may instead hold :class:`Fragments` — a JSON object or array whose
# members render one by one — and a :class:`JsonRenderer` keeps each
# member's text between renders, re-rendering only members that
# changed. A subtree's text at depth ``d`` is its standalone dump with
# ``d`` spaces after every newline: JSON strings escape newlines, so
# every raw newline in a dump is layout.


class Fragments:
    """A JSON object (or, with ``array=True``, array) rendered member
    by member.

    ``members`` maps a member name to ``(token, build)``. ``build()``
    returns the member's value — for an array, the run of elements it
    contributes; runs are laid out in sorted-name order. A renderer
    reuses a member's text while its token is the very object (or a
    tuple of the very objects) it rendered last time, so a token must
    be replaced, never mutated, when the member's content changes.
    A ``None`` token is never reused.
    """

    __slots__ = ("members", "array")

    def __init__(
        self,
        members: Mapping[str, tuple[Any, Callable[[], Any]]],
        *,
        array: bool = False,
    ) -> None:
        self.members = members
        self.array = array

    def plain(self) -> Any:
        """The node as plain JSON values (every member built)."""
        if self.array:
            return [
                value
                for name in sorted(self.members)
                for value in self.members[name][1]()
            ]
        return {name: build() for name, (_, build) in self.members.items()}


def _same(cached: Any, token: Any) -> bool:
    if token is None:
        return False
    if cached is token:
        return True
    return (
        type(cached) is tuple
        and type(token) is tuple
        and len(cached) == len(token)
        and all(map(operator.is_, cached, token))
    )


def _holds_fragments(value: Any) -> bool:
    if isinstance(value, Fragments):
        return True
    return isinstance(value, dict) and any(
        map(_holds_fragments, value.values())
    )


def _dumps(value: Any, depth: int) -> str:
    """``value`` as it reads at ``depth`` inside an indent=1 dump."""
    text = json.dumps(value, indent=1, sort_keys=True)
    return text.replace("\n", "\n" + " " * depth) if depth else text


def plain(payload: Any) -> Any:
    """A payload with every :class:`Fragments` node built."""
    if isinstance(payload, Fragments):
        return payload.plain()
    if isinstance(payload, dict):
        return {key: plain(value) for key, value in payload.items()}
    return payload


class JsonRenderer:
    """Renders payloads byte-identically to
    ``json.dumps(plain(payload), indent=1, sort_keys=True)``, keeping
    each :class:`Fragments` member's text for the next render.

    One renderer serves one file: cached text is keyed by the
    fragment's position in the payload, and a render drops members
    the payload no longer has. An empty renderer renders everything.
    """

    def __init__(self) -> None:
        self._texts: dict[tuple[str, ...], dict[str, tuple[Any, str]]] = {}

    def render(self, payload: Any) -> str:
        return self._render(payload, 0, ())

    def _render(
        self, value: Any, depth: int, path: tuple[str, ...]
    ) -> str:
        if isinstance(value, Fragments):
            return self._render_fragments(value, depth, path)
        if not _holds_fragments(value):
            return _dumps(value, depth)
        pad = " " * (depth + 1)
        body = ",\n".join(
            f"{pad}{json.dumps(key)}: "
            + self._render(value[key], depth + 1, path + (key,))
            for key in sorted(value)
        )
        return "{\n" + body + "\n" + " " * depth + "}"

    def _render_fragments(
        self, node: Fragments, depth: int, path: tuple[str, ...]
    ) -> str:
        cached = self._texts.get(path, {})
        texts: dict[str, tuple[Any, str]] = {}
        parts = []
        for name in sorted(node.members):
            token, build = node.members[name]
            entry = cached.get(name)
            if entry is None or not _same(entry[0], token):
                entry = (token, self._member_text(node, name, build, depth))
            texts[name] = entry
            if entry[1]:
                parts.append(entry[1])
        self._texts[path] = texts
        if not parts:
            return "[]" if node.array else "{}"
        opening, closing = "[]" if node.array else "{}"
        return (
            opening + "\n" + ",\n".join(parts) + "\n"
            + " " * depth + closing
        )

    @staticmethod
    def _member_text(
        node: Fragments, name: str, build: Callable[[], Any], depth: int
    ) -> str:
        pad = " " * (depth + 1)
        if not node.array:
            return f"{pad}{json.dumps(name)}: " + _dumps(build(), depth + 1)
        run = build()
        if not run:
            return ""
        # The run dumped as a list, brackets dropped: its elements sit
        # at depth 1, so shift them by ``depth``.
        inner = json.dumps(run, indent=1, sort_keys=True)[2:-2]
        return " " * depth + inner.replace("\n", "\n" + " " * depth)


def render_json(payload: Any, renderer: JsonRenderer | None = None) -> str:
    """The text of an artefact: with a warm ``renderer``, only the
    fragments that changed since its last render are re-encoded."""
    return (renderer or JsonRenderer()).render(payload)


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------

def kb_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    return {
        "format": "knowledge_base",
        "version": FORMAT_VERSION,
        "entities": [
            {
                "id": entity.id,
                "name": entity.name,
                "type": entity.entity_type,
                "aliases": list(entity.aliases),
                "attributes": dict(entity.attributes),
            }
            for entity in kb
        ],
    }


def kb_from_dict(payload: dict[str, Any]) -> KnowledgeBase:
    _check_version(payload, "knowledge_base")
    entities = []
    for row in payload["entities"]:
        entities.append(
            Entity(
                id=row["id"],
                name=row["name"],
                entity_type=row["type"],
                aliases=tuple(row.get("aliases", ())),
                attributes={
                    k: float(v)
                    for k, v in row.get("attributes", {}).items()
                },
            )
        )
    return KnowledgeBase(entities)


# ---------------------------------------------------------------------------
# Evidence counts
# ---------------------------------------------------------------------------

def _mark(
    marks: Mapping[PropertyTypeKey, object] | None, key: PropertyTypeKey
) -> object | None:
    return None if marks is None else marks[key]


def _counts_row(
    counter: EvidenceCounter, key: PropertyTypeKey
) -> dict[str, list[int]]:
    return {
        entity_id: [counts.positive, counts.negative]
        for entity_id, counts in sorted(counter.counts_for(key).items())
    }


def evidence_payload(
    counter: EvidenceCounter,
    marks: Mapping[PropertyTypeKey, object] | None = None,
) -> dict[str, Any]:
    """:func:`evidence_to_dict` with one fragment per combination.

    The counter mutates in place, so its combinations carry no token
    of their own: ``marks[key]`` is an object the caller replaces
    whenever that combination's counts change. Without marks nothing
    is reused.
    """
    return {
        "format": "evidence",
        "version": FORMAT_VERSION,
        "combinations": Fragments({
            _key_to_str(key): (
                _mark(marks, key), partial(_counts_row, counter, key)
            )
            for key in counter.keys()
        }),
    }


def evidence_to_dict(counter: EvidenceCounter) -> dict[str, Any]:
    return plain(evidence_payload(counter))


def evidence_from_dict(payload: dict[str, Any]) -> EvidenceCounter:
    _check_version(payload, "evidence")
    counter = EvidenceCounter()
    from ..core.types import Polarity
    from ..extraction.statement import EvidenceStatement

    for key_text, per_entity in payload["combinations"].items():
        key = _key_from_str(key_text)
        for entity_id, (positive, negative) in per_entity.items():
            for polarity, count in (
                (Polarity.POSITIVE, positive),
                (Polarity.NEGATIVE, negative),
            ):
                for _ in range(int(count)):
                    counter.add(
                        EvidenceStatement(
                            entity_id=entity_id,
                            entity_type=key.entity_type,
                            property=key.property,
                            polarity=polarity,
                            pattern="loaded",
                        )
                    )
    return counter


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

def _model_row(value: ModelParameters) -> dict[str, float]:
    return {
        "agreement": value.agreement,
        "rate_positive": value.rate_positive,
        "rate_negative": value.rate_negative,
    }


def parameters_to_dict(
    parameters: dict[PropertyTypeKey, ModelParameters],
) -> dict[str, Any]:
    return {
        "format": "parameters",
        "version": FORMAT_VERSION,
        "combinations": {
            _key_to_str(key): _model_row(value)
            for key, value in parameters.items()
        },
    }


def parameters_from_dict(
    payload: dict[str, Any],
) -> dict[PropertyTypeKey, ModelParameters]:
    _check_version(payload, "parameters")
    return {
        _key_from_str(key_text): ModelParameters(
            agreement=row["agreement"],
            rate_positive=row["rate_positive"],
            rate_negative=row["rate_negative"],
        )
        for key_text, row in payload["combinations"].items()
    }


# ---------------------------------------------------------------------------
# Evidence provenance (the opinion table's lineage sidecar)
# ---------------------------------------------------------------------------
#
# A compact companion artefact written next to the opinion table: for
# every (entity, property-type) pair, the exact positive/negative
# statement totals plus a bounded sample of the statements behind them,
# linked to the combination's learned model parameters and convergence
# verdict. Powers `repro explain` and the server's `/explain`.

def _pair_to_dict(pair: PairProvenance) -> dict[str, Any]:
    return {
        "positive": int(pair.positive_seen),
        "negative": int(pair.negative_seen),
        "samples": [sample.to_dict() for sample in pair.samples],
    }


def _pair_from_dict(row: dict[str, Any]) -> PairProvenance:
    return PairProvenance(
        positive_seen=int(row["positive"]),
        negative_seen=int(row["negative"]),
        samples=tuple(
            ProvenanceSample.from_dict(sample)
            for sample in row.get("samples", ())
        ),
    )


def _pairs_row(
    per_entity: Mapping[str, PairProvenance],
) -> dict[str, Any]:
    return {
        entity_id: _pair_to_dict(per_entity[entity_id])
        for entity_id in sorted(per_entity)
    }


def provenance_payload(index: ProvenanceIndex) -> dict[str, Any]:
    """:func:`provenance_to_dict` with one fragment per combination,
    tokened by the index's own per-combination objects (which
    :meth:`ProvenanceIndex.from_run` shares while they are clean)."""
    return {
        "format": "provenance",
        "version": FORMAT_VERSION,
        "samples_per_polarity": index.samples_per_polarity,
        "pairs": Fragments({
            _key_to_str(key): (per_entity, partial(_pairs_row, per_entity))
            for key, per_entity in index.pairs_by_key.items()
        }),
        "models": Fragments({
            _key_to_str(key): (value, partial(_model_row, value))
            for key, value in index.models().items()
        }),
        "convergence": Fragments({
            _key_to_str(key): (summary, partial(dict, summary))
            for key, summary in index.convergence_by_key.items()
        }),
    }


def provenance_to_dict(index: ProvenanceIndex) -> dict[str, Any]:
    return plain(provenance_payload(index))


def provenance_from_dict(payload: dict[str, Any]) -> ProvenanceIndex:
    _check_version(payload, "provenance")
    pairs: dict[PropertyTypeKey, dict[str, PairProvenance]] = {}
    for key_text, per_entity in payload.get("pairs", {}).items():
        key = _key_from_str(key_text)
        pairs[key] = {
            entity_id: _pair_from_dict(row)
            for entity_id, row in per_entity.items()
        }
    models = {
        _key_from_str(key_text): ModelParameters(
            agreement=row["agreement"],
            rate_positive=row["rate_positive"],
            rate_negative=row["rate_negative"],
        )
        for key_text, row in payload.get("models", {}).items()
    }
    convergence = {
        _key_from_str(key_text): dict(summary)
        for key_text, summary in payload.get(
            "convergence", {}
        ).items()
    }
    return ProvenanceIndex(
        pairs,
        models,
        convergence,
        samples_per_polarity=int(
            payload.get("samples_per_polarity", 3)
        ),
    )


def provenance_path_for(artefact: str | Path) -> Path:
    """Where the lineage sidecar for an artefact lives:
    ``opinions.json`` -> ``opinions.json.provenance.json``."""
    artefact = Path(artefact)
    return artefact.with_name(artefact.name + ".provenance.json")


def _ledger_row(
    ledger: ProvenanceLedger, key: PropertyTypeKey
) -> dict[str, Any]:
    return {
        entity_id: _pair_to_dict(pair)
        for entity_id, pair in ledger.pairs_for(key).items()
    }


def ledger_payload(
    ledger: ProvenanceLedger,
    marks: Mapping[PropertyTypeKey, object] | None = None,
) -> dict[str, Any]:
    """:func:`ledger_to_dict` with one fragment per combination;
    ``marks`` works as for :func:`evidence_payload`."""
    return {
        "samples_per_polarity": ledger.samples_per_polarity,
        "pairs": Fragments({
            _key_to_str(key): (
                _mark(marks, key), partial(_ledger_row, ledger, key)
            )
            for key in ledger.keys()
        }),
    }


def ledger_to_dict(ledger: ProvenanceLedger) -> dict[str, Any]:
    """A provenance ledger as checkpoint-embeddable primitives.

    Used by shard checkpoints and by the ingest subsystem's persisted
    running state; the payload is not a standalone artefact (no
    format/version envelope) — embed it inside one.
    """
    return plain(ledger_payload(ledger))


def ledger_from_dict(payload: dict[str, Any]) -> ProvenanceLedger:
    ledger = ProvenanceLedger(
        samples_per_polarity=int(
            payload.get("samples_per_polarity", 3)
        )
    )
    for key_text, per_entity in payload.get("pairs", {}).items():
        key = _key_from_str(key_text)
        for entity_id, row in per_entity.items():
            ledger.seed_pair(key, entity_id, _pair_from_dict(row))
    return ledger


# ---------------------------------------------------------------------------
# Shard checkpoints
# ---------------------------------------------------------------------------
#
# The fault-tolerant pipeline persists each completed shard's evidence
# counter (plus its quarantined documents, as plain dicts) so an
# interrupted run can resume without re-mapping finished shards. The
# payload stays primitive — no pipeline types — to keep this module
# free of circular imports.

def shard_checkpoint_to_dict(
    shard_id: int,
    counter: EvidenceCounter,
    dead_letters: list[dict[str, str]] | tuple = (),
    provenance: ProvenanceLedger | None = None,
) -> dict[str, Any]:
    payload = {
        "format": "shard_checkpoint",
        "version": FORMAT_VERSION,
        "shard_id": int(shard_id),
        "evidence": evidence_to_dict(counter),
        "dead_letters": [dict(letter) for letter in dead_letters],
    }
    if provenance is not None:
        payload["provenance"] = ledger_to_dict(provenance)
    return payload


def shard_checkpoint_from_dict(
    payload: dict[str, Any],
) -> tuple[
    int,
    EvidenceCounter,
    list[dict[str, str]],
    ProvenanceLedger | None,
]:
    _check_version(payload, "shard_checkpoint")
    try:
        shard_id = int(payload["shard_id"])
        counter = evidence_from_dict(payload["evidence"])
        dead_letters = [
            dict(letter) for letter in payload.get("dead_letters", ())
        ]
        # Checkpoints written before lineage capture existed simply
        # lack the key; they load with no ledger and the resumed
        # shard contributes no samples.
        raw = payload.get("provenance")
        ledger = ledger_from_dict(raw) if raw is not None else None
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"malformed shard checkpoint: {error}"
        ) from error
    return shard_id, counter, dead_letters, ledger


def save_shard_checkpoint(
    path: str | Path,
    shard_id: int,
    counter: EvidenceCounter,
    dead_letters: list[dict[str, str]] | tuple = (),
    provenance: ProvenanceLedger | None = None,
) -> Path:
    """Atomically persist one shard's mapped output.

    Write-then-rename, so a run killed mid-write never leaves a
    half-written checkpoint behind — the next run sees either the
    complete file or nothing.
    """
    path = Path(path)
    payload = shard_checkpoint_to_dict(
        shard_id, counter, dead_letters, provenance
    )
    _atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True)
    )
    return path


def load_shard_checkpoint(
    path: str | Path,
) -> tuple[
    int,
    EvidenceCounter,
    list[dict[str, str]],
    ProvenanceLedger | None,
]:
    """Load one shard checkpoint; corruption raises :class:`CheckpointError`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"{path}: unreadable shard checkpoint: {error}"
        ) from error
    try:
        return shard_checkpoint_from_dict(payload)
    except FormatError as error:
        raise CheckpointError(f"{path}: {error}") from error


# ---------------------------------------------------------------------------
# Opinion table
# ---------------------------------------------------------------------------

def _opinion_rows(opinions: list[Opinion]) -> list[dict[str, Any]]:
    rows = [
        {
            "entity": opinion.entity_id,
            "key": _key_to_str(opinion.key),
            "probability": opinion.probability,
            "positive": opinion.evidence.positive,
            "negative": opinion.evidence.negative,
        }
        for opinion in opinions
    ]
    rows.sort(key=lambda row: row["entity"])
    return rows


def opinions_payload(table: OpinionTable) -> dict[str, Any]:
    """:func:`opinions_to_dict` with the rows as one run per
    combination, tokened by the combination's opinion objects."""
    runs: dict[str, list[Opinion]] = {}
    for key in table.keys():
        runs.setdefault(_key_to_str(key), []).extend(table.for_key(key))
    return {
        "format": "opinions",
        "version": FORMAT_VERSION,
        # Rows sorted by (key, entity): runs in key order, each
        # sorted by entity.
        "opinions": Fragments(
            {
                name: (tuple(opinions), partial(_opinion_rows, opinions))
                for name, opinions in runs.items()
            },
            array=True,
        ),
        # Combinations whose EM fit fell back to majority vote; query
        # surfaces flag their answers as degraded.
        "degraded": sorted(
            _key_to_str(key) for key in table.degraded_keys
        ),
    }


def opinions_to_dict(table: OpinionTable) -> dict[str, Any]:
    return plain(opinions_payload(table))


def opinions_from_dict(payload: dict[str, Any]) -> OpinionTable:
    _check_version(payload, "opinions")
    table = OpinionTable()
    for row in payload["opinions"]:
        table.add(
            Opinion(
                entity_id=row["entity"],
                key=_key_from_str(row["key"]),
                probability=float(row["probability"]),
                evidence=EvidenceCounts(
                    int(row["positive"]), int(row["negative"])
                ),
            )
        )
    # Files written before the flag existed simply have none.
    for key_text in payload.get("degraded", ()):
        table.mark_degraded(_key_from_str(key_text))
    return table


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

_SAVERS = {
    KnowledgeBase: kb_to_dict,
    EvidenceCounter: evidence_payload,
    OpinionTable: opinions_payload,
    ProvenanceIndex: provenance_payload,
}

_LOADERS = {
    "knowledge_base": kb_from_dict,
    "evidence": evidence_from_dict,
    "parameters": parameters_from_dict,
    "opinions": opinions_from_dict,
    "shard_checkpoint": shard_checkpoint_from_dict,
    "provenance": provenance_from_dict,
}


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a torn file even if the process dies mid-write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def save(
    obj: Any, path: str | Path, renderer: JsonRenderer | None = None
) -> Path:
    """Serialize a KB, evidence counter, opinion table, provenance
    index, or a ``{key: ModelParameters}`` mapping to a JSON file.

    A ``renderer`` that wrote an earlier version of the same artefact
    re-encodes only the combinations whose objects changed."""
    path = Path(path)
    if isinstance(obj, dict):
        payload = parameters_to_dict(obj)
    else:
        for cls, saver in _SAVERS.items():
            if isinstance(obj, cls):
                payload = saver(obj)
                break
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    _atomic_write_text(path, render_json(payload, renderer))
    return path


def load(path: str | Path) -> Any:
    """Load any artefact saved by :func:`save`; dispatches on the
    embedded format tag."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "format" not in payload:
        raise FormatError(f"{path}: not a repro artefact")
    loader = _LOADERS.get(payload["format"])
    if loader is None:
        raise FormatError(f"unknown format {payload['format']!r}")
    return loader(payload)
