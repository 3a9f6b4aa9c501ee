"""Topic collection pages: encode a topic, probe the index, and judge the
result set's intent-satisfying rate with a pluggable judge."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .core import Corpus, PinRecord, QueryRecord, cosine, f32, read_jsonl, write_jsonl
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
    slug: str
    embedding_kind: str  # "pinclip" | "searchsage"
    members: list[tuple[int, float]] = field(default_factory=list)  # (signature, similarity)

    def to_json(self) -> dict:
        return {
            "slug": self.slug,
            "topic": self.topic.to_json(),
            "embedding_kind": self.embedding_kind,
            "members": [
                {"signature": s, "similarity": f32([sim])[0]} for s, sim in self.members
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Collection":
        return cls(
            topic=QueryRecord.from_json(obj["topic"]),
            slug=obj["slug"],
            embedding_kind=obj["embedding_kind"],
            members=[(m["signature"], m["similarity"]) for m in obj["members"]],
        )


@dataclass
class JudgeVerdict:
    pin_signature: int
    satisfied: bool
    score: float


# A judge maps (pin, topic) to a verdict.
Judge = Callable[[PinRecord, QueryRecord], JudgeVerdict]


def build_collection(
    topic: QueryRecord,
    text_encoder: EncoderModel,
    index: HnswIndex,
    k: int = 10,
    ef_search: int | None = None,
) -> Collection:
    """Encode the topic through the text pathway and take the index top-k."""
    if len(index) == 0:
        raise CollectionError("cannot build a collection from an empty index")
    if topic.embedding is None:
        raise CollectionError(f"topic {topic.text!r} lacks an embedding")
    probe = text_encoder.encode(topic.embedding)
    hits = index.search(probe, k=k, ef_search=ef_search)
    return Collection(
        topic=topic,
        slug=slugify(topic.text),
        embedding_kind="pinclip",
        members=list(hits),
    )


def embedding_judge(
    text_encoder: EncoderModel, threshold: float = 0.5
) -> Judge:
    """Default judge: cosine of encoded pin text vs encoded topic text."""

    def judge(pin: PinRecord, topic: QueryRecord) -> JudgeVerdict:
        if topic.embedding is None:
            raise CollectionError(f"topic {topic.text!r} lacks an embedding")
        pin_vec = text_encoder.encode(pin.text_embedding)
        topic_vec = text_encoder.encode(topic.embedding)
        score = cosine(pin_vec, topic_vec)
        return JudgeVerdict(pin_signature=pin.signature, satisfied=score >= threshold, score=score)

    return judge


def file_judge(verdicts_path: str | Path) -> Judge:
    """External-process judge adapter: reads precomputed verdicts keyed by
    (slugified topic, pin signature) from a JSONL file."""
    table: dict[tuple[str, int], JudgeVerdict] = {}
    for _, obj in read_jsonl(verdicts_path):
        key = (obj["topic_slug"], int(obj["pin_signature"]))
        table[key] = JudgeVerdict(
            pin_signature=int(obj["pin_signature"]),
            satisfied=bool(obj["satisfied"]),
            score=float(obj.get("score", 0.0)),
        )

    def judge(pin: PinRecord, topic: QueryRecord) -> JudgeVerdict:
        key = (slugify(topic.text), pin.signature)
        if key not in table:
            raise CollectionError(f"no external verdict for {key}")
        return table[key]

    return judge


def intent_satisfying_rate(
    collection: Collection, corpus: Corpus, judge: Judge
) -> tuple[float, list[JudgeVerdict]]:
    """Fraction of members the judge deems relevant to the topic."""
    if not collection.members:
        return 0.0, []
    verdicts = [
        judge(corpus.pin(signature), collection.topic)
        for signature, _ in collection.members
    ]
    rate = sum(v.satisfied for v in verdicts) / len(verdicts)
    return rate, verdicts


def write_collections(collections: list[Collection], path: str | Path) -> None:
    write_jsonl(path, (coll.to_json() for coll in collections))


def load_collections(path: str | Path) -> list[Collection]:
    return [Collection.from_json(obj) for _, obj in read_jsonl(path)]


def emit_pages(collections: list[Collection], corpus: Corpus, out_dir: str | Path) -> list[Path]:
    """One static HTML page per collection, linking to member pin pages."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for coll in collections:
        items = "\n".join(
            f'    <li><a href="/pin/{sig}">{corpus.pin(sig).title}</a></li>'
            for sig, _ in coll.members
        )
        html = (
            "<!DOCTYPE html>\n<html>\n<head>\n"
            f"  <title>{coll.topic.text}</title>\n</head>\n<body>\n"
            f"  <h1>{coll.topic.text}</h1>\n  <ul>\n{items}\n  </ul>\n"
            "</body>\n</html>\n"
        )
        path = out / f"{coll.slug}.html"
        path.write_text(html, encoding="utf-8")
        paths.append(path)
    return paths
