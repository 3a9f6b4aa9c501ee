"""Topic collection pages: encode a topic, probe the index, and judge the
result set's intent-satisfying rate with an embedding judge.
`collections.jsonl` names each topic by its text, and its reader joins the
text back to the corpus query, as labeled pairs do."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from html import escape
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    Corpus, PinRecord, QueryRecord, check_json, f32, read_records, write_jsonl, write_text,
)
from .encoders import EncoderModel
from .hnsw import HnswIndex


class CollectionError(ValueError):
    pass


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    if not slug:
        raise CollectionError(f"topic {text!r} produces an empty slug")
    return slug


@dataclass
class Collection:
    topic: QueryRecord
    slug: str  # never written; read back as slugify of the topic text
    embedding_kind: str = "pinclip"  # never written; perfbench/tests passes it by position
    members: list[tuple[int, float]] = field(default_factory=list)  # (signature, similarity)

    def to_json(self) -> dict:
        """The collection with its topic by text; `from_json` joins it back
        and derives the slug."""
        return {"topic_text": self.topic.text,
                "members": [{"signature": s, "similarity": f32(sim)} for s, sim in self.members]}

    @classmethod
    def from_json(cls, obj: dict, corpus: Corpus) -> "Collection":
        """The collection `to_json` wrote, checked by `check_json`, with its
        topic looked up in ``corpus`` (a text it lacks raises CorpusError)
        and the slug of its text."""
        check_json(obj, {"topic_text": str, "members": [{"signature": int, "similarity": float}]})
        return cls(corpus.query(obj["topic_text"]), slugify(obj["topic_text"]),
                   members=[(m["signature"], float(m["similarity"])) for m in obj["members"]])


@dataclass
class JudgeVerdict:
    pin_signature: int
    satisfied: bool
    score: float


# A judge maps a collection's member pins and its topic to one verdict per pin.
Judge = Callable[[list[PinRecord], QueryRecord], list[JudgeVerdict]]


def build_collections(
    topics: list[QueryRecord], text_encoder: EncoderModel, index: HnswIndex, k: int = 10
) -> list[Collection]:
    """Encode the topics through the text pathway as one batch and take each
    topic's index top-k, at the index's own ef_search, one collection per
    topic in order."""
    if not topics:
        return []
    if len(index) == 0:
        raise CollectionError("cannot build a collection from an empty index")
    for topic in topics:
        if topic.embedding is None:
            raise CollectionError(f"topic {topic.text!r} lacks an embedding")
    probes = text_encoder.encode_batch(np.stack([topic.embedding for topic in topics]))
    return [
        Collection(topic, slugify(topic.text), members=index.search(probe, k))
        for topic, probe in zip(topics, probes)
    ]


def build_collection(
    topic: QueryRecord, text_encoder: EncoderModel, index: HnswIndex, k: int = 10
) -> Collection:
    """The one-topic case of `build_collections`."""
    return build_collections([topic], text_encoder, index, k)[0]


def embedding_judge(
    text_encoder: EncoderModel, threshold: float = 0.5
) -> Judge:
    """Default judge: cosine of each encoded pin text vs the encoded topic
    text, as one product of the batch-encoded unit pin rows with the topic;
    a threshold outside the clipped cosine's [-1, 1] raises CollectionError."""
    if not -1.0 <= threshold <= 1.0:  # NaN too
        raise CollectionError(f"judge threshold {threshold} is not a number in [-1, 1]")

    def judge(pins: list[PinRecord], topic: QueryRecord) -> list[JudgeVerdict]:
        if topic.embedding is None:
            raise CollectionError(f"topic {topic.text!r} lacks an embedding")
        topic_vec = text_encoder.encode(topic.embedding)
        pin_vecs = text_encoder.encode_batch(np.stack([pin.text_embedding for pin in pins]))
        scores = np.clip(pin_vecs @ topic_vec, -1.0, 1.0).tolist()
        return [JudgeVerdict(pin.signature, score >= threshold, score)
                for pin, score in zip(pins, scores)]

    return judge


def intent_satisfying_rate(
    collection: Collection, corpus: Corpus, judge: Judge
) -> tuple[float, list[JudgeVerdict]]:
    """Fraction of members the judge deems relevant to the topic."""
    if not collection.members:
        return 0.0, []
    verdicts = judge(
        [corpus.pin(signature) for signature, _ in collection.members], collection.topic
    )
    rate = sum(v.satisfied for v in verdicts) / len(verdicts)
    return rate, verdicts


def write_collections(collections: list[Collection], path: str | Path) -> None:
    write_jsonl(path, (coll.to_json() for coll in collections))


def load_collections(path: str | Path, corpus: Corpus) -> list[Collection]:
    return read_records(path, partial(Collection.from_json, corpus=corpus), CollectionError,
                        "collection")


def emit_pages(collections: list[Collection], corpus: Corpus, out_dir: str | Path) -> list[Path]:
    """One static HTML page per collection, linking to member pin pages;
    topic text and pin titles are HTML-escaped."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for coll in collections:
        items = "\n".join(
            f'    <li><a href="/pin/{sig}">{escape(corpus.pin(sig).title, quote=False)}</a></li>'
            for sig, _ in coll.members
        )
        text = escape(coll.topic.text, quote=False)
        html = (
            "<!DOCTYPE html>\n<html>\n<head>\n"
            f"  <title>{text}</title>\n</head>\n<body>\n"
            f"  <h1>{text}</h1>\n  <ul>\n{items}\n  </ul>\n"
            "</body>\n</html>\n"
        )
        path = out / f"{coll.slug}.html"
        write_text(path, html)
        paths.append(path)
    return paths
