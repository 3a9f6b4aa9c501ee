"""Domain types, corpus IO, seeded RNG helpers, and vector math.

Everything downstream (curation, encoders, index, ranker, collections,
link graph, agent) consumes the types defined here. A corpus is immutable
after load and safe for concurrent readers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

QUERY_CATEGORIES = ("Description", "StyleDetail", "UseCase")
PAIR_SOURCES = ("SearchConsole", "Synthetic", "HardNegative")

# Fixed offsets off the corpus-wide seed, one per stage, so every module
# draws from its own deterministic stream.
SEED_OFFSETS = {
    "corpus": 0,
    "curation": 1,
    "encoder": 2,
    "index": 3,
    "ranker": 4,
    "collections": 5,
    "linkgraph": 6,
    "agent": 7,
    "eval": 8,
}


class CorpusError(ValueError):
    """Malformed corpus file, manifest, or record invariant violation."""


class ZeroNormError(ValueError):
    """L2 normalization requested for a zero vector."""


def subseed(seed: int, stage: str) -> int:
    """Derive the per-stage sub-seed from the corpus-wide seed."""
    if stage not in SEED_OFFSETS:
        raise KeyError(f"unknown stage {stage!r}")
    return (int(seed) + SEED_OFFSETS[stage]) % 2**64


def rng_for(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(subseed(seed, stage))


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm. Raises ZeroNormError when the float64 norm
    is zero: a zero vector, or one whose squares all underflow."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize a zero vector")
    if not 1e-150 < norm < 1e150:
        # the squares lost bits to subnormals or overflowed: rescale first
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    return v / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; equals the dot product when both inputs are unit norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for zero vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def is_unit(v: np.ndarray, tol: float = 1e-6) -> bool:
    return abs(float(np.linalg.norm(v)) - 1.0) <= tol


def f32(values: Iterable[float]) -> list[float]:
    """Round floats through 32-bit for persistence."""
    return [float(x) for x in np.asarray(list(values), dtype=np.float32)]


@dataclass(frozen=True)
class PinRecord:
    signature: int
    visual_embedding: np.ndarray
    text_embedding: np.ndarray
    perception_score: float
    title: str = ""
    description: str = ""
    board_id: int | None = None
    category: str = ""
    language: str = "en"

    def validate(self, d_v: int, d_t: int) -> None:
        if self.visual_embedding.shape != (d_v,):
            raise CorpusError(
                f"pin {self.signature}: visual_embedding has dim "
                f"{self.visual_embedding.shape[0]}, expected {d_v}"
            )
        if self.text_embedding.shape != (d_t,):
            raise CorpusError(
                f"pin {self.signature}: text_embedding has dim "
                f"{self.text_embedding.shape[0]}, expected {d_t}"
            )
        if not 0.0 <= self.perception_score <= 1.0:
            raise CorpusError(
                f"pin {self.signature}: perception_score {self.perception_score} "
                "outside [0, 1]"
            )

    def to_json(self) -> dict:
        return {
            "signature": self.signature,
            "visual_embedding": f32(self.visual_embedding),
            "text_embedding": f32(self.text_embedding),
            "perception_score": float(np.float32(self.perception_score)),
            "title": self.title,
            "description": self.description,
            "board_id": self.board_id,
            "category": self.category,
            "language": self.language,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PinRecord":
        return cls(
            signature=int(obj["signature"]),
            visual_embedding=np.asarray(obj["visual_embedding"], dtype=np.float64),
            text_embedding=np.asarray(obj["text_embedding"], dtype=np.float64),
            perception_score=float(obj["perception_score"]),
            title=obj.get("title", ""),
            description=obj.get("description", ""),
            board_id=obj.get("board_id"),
            category=obj.get("category", ""),
            language=obj.get("language", "en"),
        )


@dataclass(frozen=True)
class QueryRecord:
    text: str
    category: str
    language: str = "en"
    embedding: np.ndarray | None = None

    def validate(self, d_t: int | None = None) -> None:
        if not self.text.strip():
            raise CorpusError("query text is empty")
        if self.category not in QUERY_CATEGORIES:
            raise CorpusError(
                f"query {self.text!r}: category {self.category!r} not one of "
                f"{QUERY_CATEGORIES}"
            )
        if d_t is not None and self.embedding is not None:
            if self.embedding.shape != (d_t,):
                raise CorpusError(
                    f"query {self.text!r}: embedding has dim "
                    f"{self.embedding.shape[0]}, expected {d_t}"
                )

    def to_json(self) -> dict:
        return {
            "text": self.text,
            "category": self.category,
            "language": self.language,
            "embedding": None if self.embedding is None else f32(self.embedding),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QueryRecord":
        emb = obj.get("embedding")
        return cls(
            text=obj["text"],
            category=obj["category"],
            language=obj.get("language", "en"),
            embedding=None if emb is None else np.asarray(emb, dtype=np.float64),
        )


@dataclass(frozen=True)
class EngagementRecord:
    query_text: str
    pin_signature: int
    impressions: int
    clicks: int
    avg_position: float

    def validate(self) -> None:
        if self.impressions < 0 or self.clicks < 0:
            raise CorpusError("impressions and clicks must be non-negative")
        if self.clicks > self.impressions:
            raise CorpusError(
                f"clicks {self.clicks} exceed impressions {self.impressions} "
                f"for query {self.query_text!r}"
            )
        if self.avg_position < 1.0:
            raise CorpusError(f"avg_position {self.avg_position} below 1")

    def ctr(self) -> float:
        if self.impressions == 0:
            raise ValueError("ctr undefined with zero impressions")
        return self.clicks / self.impressions

    def to_json(self) -> dict:
        return {
            "query_text": self.query_text,
            "pin_signature": self.pin_signature,
            "impressions": self.impressions,
            "clicks": self.clicks,
            "avg_position": float(np.float32(self.avg_position)),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EngagementRecord":
        return cls(
            query_text=obj["query_text"],
            pin_signature=int(obj["pin_signature"]),
            impressions=int(obj["impressions"]),
            clicks=int(obj["clicks"]),
            avg_position=float(obj["avg_position"]),
        )


@dataclass(frozen=True)
class LabeledPair:
    pin_signature: int
    query: QueryRecord
    label: int
    navboost_coverage: float = 0.0
    source: str = "SearchConsole"

    def validate(self) -> None:
        if self.label not in (+1, -1):
            raise CorpusError(f"label must be +1 or -1, got {self.label}")
        if not 0.0 <= self.navboost_coverage <= 1.0:
            raise CorpusError(
                f"navboost_coverage {self.navboost_coverage} outside [0, 1]"
            )
        if self.source not in PAIR_SOURCES:
            raise CorpusError(f"unknown pair source {self.source!r}")

    def to_json(self) -> dict:
        return {
            "pin_signature": self.pin_signature,
            "query": self.query.to_json(),
            "label": self.label,
            "navboost_coverage": float(np.float32(self.navboost_coverage)),
            "source": self.source,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LabeledPair":
        return cls(
            pin_signature=int(obj["pin_signature"]),
            query=QueryRecord.from_json(obj["query"]),
            label=int(obj["label"]),
            navboost_coverage=float(obj.get("navboost_coverage", 0.0)),
            source=obj.get("source", "SearchConsole"),
        )


@dataclass
class CorpusManifest:
    pins_path: Path
    queries_path: Path
    engagement_path: Path
    labels_path: Path | None
    d_v: int = 1028
    d_t: int = 768
    ranker_dim: int = 128
    seed: int = 0

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        """Parse a key=value manifest; relative paths resolve against its directory."""
        path = Path(path)
        base = path.parent
        kv: dict[str, str] = {}
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CorpusError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        try:
            manifest = cls(
                pins_path=base / kv["pins"],
                queries_path=base / kv["queries"],
                engagement_path=base / kv["engagement"],
                labels_path=(base / kv["labels"]) if kv.get("labels") else None,
                d_v=int(kv.get("d_v", 1028)),
                d_t=int(kv.get("d_t", 768)),
                ranker_dim=int(kv.get("ranker_dim", 128)),
                seed=int(kv.get("seed", 0)),
            )
        except KeyError as exc:
            raise CorpusError(f"{path}: missing manifest key {exc.args[0]!r}") from exc
        if manifest.d_v <= 0 or manifest.d_t <= 0 or manifest.ranker_dim <= 0:
            raise CorpusError(f"{path}: dimensions must be positive")
        for p in (manifest.pins_path, manifest.queries_path, manifest.engagement_path):
            if not p.exists():
                raise CorpusError(f"{path}: referenced file {p} does not exist")
        if manifest.labels_path is not None and not manifest.labels_path.exists():
            raise CorpusError(f"{path}: referenced file {manifest.labels_path} does not exist")
        return manifest

    def save(self, path: str | Path) -> None:
        path = Path(path)
        base = path.parent
        lines = [
            f"pins={os.path.relpath(self.pins_path, base)}",
            f"queries={os.path.relpath(self.queries_path, base)}",
            f"engagement={os.path.relpath(self.engagement_path, base)}",
        ]
        if self.labels_path is not None:
            lines.append(f"labels={os.path.relpath(self.labels_path, base)}")
        lines += [
            f"d_v={self.d_v}",
            f"d_t={self.d_t}",
            f"ranker_dim={self.ranker_dim}",
            f"seed={self.seed}",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Corpus:
    pins: dict[int, PinRecord]
    queries: list[QueryRecord]
    engagement: list[EngagementRecord]
    labels: list[LabeledPair] = field(default_factory=list)
    d_v: int = 1028
    d_t: int = 768
    ranker_dim: int = 128
    seed: int = 0

    def pin(self, signature: int) -> PinRecord:
        try:
            return self.pins[signature]
        except KeyError:
            raise CorpusError(f"unknown pin signature {signature}") from None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line; a malformed line
    raises CorpusError naming path:line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_corpus(manifest: CorpusManifest) -> Corpus:
    """Load and validate all corpus files referenced by the manifest."""
    pins: dict[int, PinRecord] = {}
    for lineno, obj in read_jsonl(manifest.pins_path):
        try:
            pin = PinRecord.from_json(obj)
            pin.validate(manifest.d_v, manifest.d_t)
        except CorpusError as exc:
            raise CorpusError(f"{manifest.pins_path}:{lineno}: {exc}") from None
        if pin.signature in pins:
            raise CorpusError(
                f"{manifest.pins_path}:{lineno}: duplicate signature {pin.signature}"
            )
        pins[pin.signature] = pin

    queries: list[QueryRecord] = []
    for lineno, obj in read_jsonl(manifest.queries_path):
        try:
            query = QueryRecord.from_json(obj)
            query.validate(manifest.d_t)
        except CorpusError as exc:
            raise CorpusError(f"{manifest.queries_path}:{lineno}: {exc}") from None
        queries.append(query)

    engagement: list[EngagementRecord] = []
    for lineno, obj in read_jsonl(manifest.engagement_path):
        try:
            record = EngagementRecord.from_json(obj)
            record.validate()
        except CorpusError as exc:
            raise CorpusError(f"{manifest.engagement_path}:{lineno}: {exc}") from None
        engagement.append(record)

    labels: list[LabeledPair] = []
    if manifest.labels_path is not None:
        for lineno, obj in read_jsonl(manifest.labels_path):
            try:
                pair = LabeledPair.from_json(obj)
                pair.validate()
            except CorpusError as exc:
                raise CorpusError(f"{manifest.labels_path}:{lineno}: {exc}") from None
            labels.append(pair)

    return Corpus(
        pins=pins,
        queries=queries,
        engagement=engagement,
        labels=labels,
        d_v=manifest.d_v,
        d_t=manifest.d_t,
        ranker_dim=manifest.ranker_dim,
        seed=manifest.seed,
    )


def save_corpus(corpus: Corpus, manifest: CorpusManifest) -> None:
    write_jsonl(manifest.pins_path, (p.to_json() for p in corpus.pins.values()))
    write_jsonl(manifest.queries_path, (q.to_json() for q in corpus.queries))
    write_jsonl(manifest.engagement_path, (e.to_json() for e in corpus.engagement))
    if manifest.labels_path is not None:
        write_jsonl(manifest.labels_path, (p.to_json() for p in corpus.labels))


def hashed_bag_of_tokens(text: str, dim: int) -> np.ndarray:
    """Deterministic text featurizer: hash tokens into a fixed-dim bag, unit norm."""
    vec = np.zeros(dim, dtype=np.float64)
    tokens = text.lower().split()
    if not tokens:
        return vec
    for token in tokens:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def file_checksum(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
