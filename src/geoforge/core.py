"""Domain types, corpus IO, seeded RNG helpers, and vector math.

Everything downstream (curation, encoders, index, ranker, collections,
link graph, agent) consumes the types defined here. A corpus is immutable
after load and safe for concurrent readers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import reprlib
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

import numpy as np

QUERY_CATEGORIES = ("Description", "StyleDetail", "UseCase")
PAIR_SOURCES = ("SearchConsole", "Synthetic", "HardNegative")
# The corpus files in a corpus directory, each under its artifact name.
CORPUS_FILES = {"pins": "pins.jsonl", "queries": "queries.jsonl", "engagement": "engagement.jsonl"}
T = TypeVar("T")

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
    """Malformed corpus file or record invariant violation."""


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


def f32(values: Iterable[float]) -> list[float]:
    """Round floats through 32-bit for persistence."""
    return [float(x) for x in np.asarray(list(values), dtype=np.float32)]


class _Record:
    __slots__ = ()  # so that a slotted record keeps no __dict__

    def to_json(self) -> dict:
        """Every field in declaration order, arrays and floats rounded
        through float32 for persistence."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = f32(value)
            elif isinstance(value, float):
                value = float(np.float32(value))
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict):
        """The record from a JSON object of its fields, each of the kind its
        annotation names (see `check_json`); a defaulted field may be
        absent. An int in a float field reads as a float, and a list (a
        vector) as a float64 array."""
        kinds, defaulted = _record_kinds(cls)
        check_json(obj, kinds, defaulted)
        return cls(**{k: float(v) if kinds[k] is float else np.asarray(v, dtype=np.float64)
                      if type(v) is list else v for k, v in obj.items()})


@functools.cache
def _record_kinds(cls: type) -> tuple[dict, set[str]]:
    """A record class's JSON kind per field, from its annotation, and its
    defaulted fields. ``np.ndarray`` is a list of floats and ``X | None``
    the tuple of both kinds."""
    hints = typing.get_type_hints(cls)

    def kind(hint):
        if isinstance(hint, types.UnionType):
            return tuple(map(kind, hint.__args__))
        return [float] if hint is np.ndarray else hint

    return ({f.name: kind(hints[f.name]) for f in fields(cls)},
            {f.name for f in fields(cls) if f.default is not MISSING})


@dataclass(frozen=True, slots=True)
class PinRecord(_Record):
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


@dataclass(frozen=True, slots=True)
class QueryRecord(_Record):
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


@dataclass(frozen=True, slots=True)
class EngagementRecord(_Record):
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


@dataclass(frozen=True, slots=True)
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
        """The pair with its query by text; `from_json` joins it back."""
        return {
            "pin_signature": self.pin_signature,
            "query_text": self.query.text,
            "label": self.label,
            "navboost_coverage": float(np.float32(self.navboost_coverage)),
            "source": self.source,
        }

    @classmethod
    def from_json(cls, obj: dict, queries: dict[str, QueryRecord]) -> "LabeledPair":
        """A validated pair of the JSON kinds `to_json` writes, whose query is
        ``queries[obj["query_text"]]``; a text not in ``queries`` raises
        CorpusError."""
        check_json(obj, {"pin_signature": int, "query_text": str, "label": int,
                         "navboost_coverage": float, "source": str})
        query = queries.get(obj["query_text"])
        if query is None:
            raise CorpusError(f"unknown query text {obj['query_text']!r}")
        pair = cls(obj["pin_signature"], query, obj["label"],
                   float(obj["navboost_coverage"]), obj["source"])
        pair.validate()
        return pair


@dataclass
class Corpus:
    pins: dict[int, PinRecord]
    queries: list[QueryRecord]
    engagement: list[EngagementRecord]
    d_v: int
    d_t: int

    def pin(self, signature: int) -> PinRecord:
        try:
            return self.pins[signature]
        except KeyError:
            raise CorpusError(f"unknown pin signature {signature}") from None


def read_key_values(
    path: str | Path, kinds: dict[str, type], what: str, error: type[Exception]
) -> dict[str, object]:
    """Parse a key=value text file into {key: kinds[key](value)}. Blank lines
    and # comments are skipped and dashes in a key read as underscores. A
    line without '=', a key not in kinds or a value its kind cannot parse
    raises `error` naming path:line; a repeated key keeps its last value."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if not sep:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in kinds:
            raise error(f"{path}:{lineno}: unknown {what} key {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError:
            raise error(
                f"{path}:{lineno}: {key} must be {kinds[key].__name__}, got {value!r}"
            ) from None
    return values


def read_jsonl(
    path: str | Path, error: type[Exception] = CorpusError
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line; a line that is not
    UTF-8 JSON raises ``error`` naming path:line."""
    with open(path, "rb") as fh:  # decoded per line, so a bad byte names its line
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line.decode("utf-8"))
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise error(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def read_records(
    path: str | Path, parse: Callable[[dict], T], error: type[Exception], what: str | None = None
) -> list[T]:
    """``parse`` of each object in a JSONL file, in file order. A line that
    is not JSON or not a JSON object, a missing key, or a value that
    ``parse`` rejects with TypeError or ValueError raises ``error`` naming
    path:line; unless ``what`` is None, a file with no record raises
    ``error`` "<path>: no <what> records"."""
    records = []
    for lineno, obj in read_jsonl(path, error):
        if type(obj) is not dict:
            raise error(f"{path}:{lineno}: expected a JSON object, got {obj!r}")
        try:
            records.append(parse(obj))
        except KeyError as exc:
            raise error(f"{path}:{lineno}: missing key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc
    if not records and what is not None:
        raise error(f"{path}: no {what} records")
    return records


def read_json(path: str | Path, error: type[Exception], kinds: dict) -> dict:
    """The JSON object in a file, of ``kinds`` (see `check_json`). A file
    that is not JSON or fails the check raises ``error`` naming the path."""
    try:
        return check_json(json.loads(Path(path).read_text(encoding="utf-8")), kinds)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def check_json(obj, kinds: dict, optional: Iterable[str] = ()) -> dict:
    """``obj``, when it is a JSON object with the keys of ``kinds``, each
    holding a value of its kind (see `_json_is`); a key in ``optional`` may
    be absent. ``{str: kind}`` takes any keys, each with a value of kind.
    Else raises ValueError naming an unknown key, else the first missing
    key, else the first key with an ill-typed value."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if str in kinds:
        kinds = dict.fromkeys(obj, kinds[str])
    if not obj.keys() <= kinds.keys():
        raise ValueError(f"unknown key {min(obj.keys() - kinds.keys())!r}")
    for key in kinds if len(obj) < len(kinds) else ():
        if key not in obj and key not in optional:
            raise ValueError(f"missing key {key!r}")
    for key, value in obj.items():
        if not _json_is(value, kinds[key]):
            raise ValueError(f"key {key!r} has ill-typed value {reprlib.repr(value)}")
    return obj


@contextmanager
def _atomic_open(path: str | Path, mode: str, **kwargs) -> Iterator[IO]:
    """Yield a temporary file beside ``path`` and move it into place when the
    block ends; an exception removes it, so ``path`` is never half written."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_train_log(path: str | Path, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """A training log as CSV: the column names, then per row the step and
    each later value to 10 significant digits."""
    lines = [",".join(columns)]
    lines += [",".join([str(step), *(f"{v:.10g}" for v in values)]) for step, *values in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> None:
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


# little-endian only, so a file's bytes do not depend on the host
ARRAY_DTYPES = ("<f4", "<i4", "<i8")
_ARRAY_SPEC = {"dtype": str, "name": str, "shape": [int]}


def save_arrays(
    path: str | Path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write arrays of ARRAY_DTYPES atomically: ``magic``, the header length
    (uint64 LE), a sorted-key JSON header of ``meta`` and each array's name,
    dtype and shape, then the arrays' bytes in that order."""
    specs = [{"dtype": a.dtype.str, "name": n, "shape": list(a.shape)} for n, a in arrays.items()]
    header = json.dumps(
        {"arrays": specs, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with _atomic_open(path, "wb") as fh:
        fh.write(magic + len(header).to_bytes(8, "little") + header)
        for a in arrays.values():
            fh.write(a.tobytes())


def _json_is(value, kind) -> bool:
    """JSON type test. A dict kind is an object that passes `check_json`,
    ``[kind]`` a list of values of kind and a tuple any of its kinds. An int
    fits int64 and is no bool; a float is finite, or an int."""
    if type(kind) is type:  # int, float, str, bool, dict (any object) or NoneType
        if type(value) is int and kind in (int, float):
            return -(2**63) <= value < 2**63
        return type(value) is kind and (kind is not float or math.isfinite(value))
    if isinstance(kind, tuple):
        return any(_json_is(value, k) for k in kind)
    if isinstance(kind, dict):
        try:
            check_json(value, kind)
        except ValueError:
            return False
        return True
    if type(value) is list and kind[0] is float and set(map(type, value)) <= {float}:
        return all(map(math.isfinite, value))  # a vector, with no call per element
    return type(value) is list and all(_json_is(v, kind[0]) for v in value)


def load_arrays(
    path: str | Path, magic: bytes, error: type[Exception], meta_types: dict
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a `save_arrays` file as (meta, read-only arrays by name); any
    damage, or a meta not of ``meta_types`` (see `_json_is`), raises ``error``."""
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise error(f"bad magic in {path}")
    pos = len(magic) + 8
    end = pos + int.from_bytes(data[len(magic) : pos], "little")
    if len(data) < pos or end > len(data):
        raise error(f"truncated header in {path}")
    try:
        header = json.loads(data[pos:end].decode("utf-8"))
    except ValueError as exc:
        raise error(f"corrupt header in {path}: {exc}") from exc
    if not _json_is(header, {"arrays": [_ARRAY_SPEC], "meta": meta_types}):
        raise error(f"header key missing or ill-typed in {path}")
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        name, dtype, shape = spec["name"], spec["dtype"], spec["shape"]
        if dtype not in ARRAY_DTYPES or any(n < 0 for n in shape) or name in arrays:
            raise error(f"array {name!r} in {path}: repeated, negative shape {shape} "
                        f"or dtype {dtype!r} not in {ARRAY_DTYPES}")
        count = math.prod(shape)
        if end + count * np.dtype(dtype).itemsize > len(data):
            raise error(f"truncated array {name!r} in {path}")
        try:
            arrays[name] = np.frombuffer(data, dtype, count, end).reshape(shape)
        except ValueError as exc:  # a zero-size shape too large for numpy
            raise error(f"array {name!r} has shape {shape} in {path}: {exc}") from exc
        end += arrays[name].nbytes
        if arrays[name].dtype.kind == "f" and not np.isfinite(arrays[name]).all():
            raise error(f"array {name!r} has non-finite values in {path}")
    if end != len(data):
        raise error(f"{len(data) - end} trailing bytes in {path}")
    return header["meta"], arrays


def load_corpus(directory: str | Path) -> Corpus:
    """Load and validate the CORPUS_FILES in ``directory``. The first pin's
    vectors set d_v and d_t. A bad record, an empty embedding, a vector of
    another length, a repeated pin signature or a repeated query text raises
    CorpusError naming path:line, and a file with no record CorpusError
    naming the path."""
    directory = Path(directory)
    dims: list[int] = []  # d_v and d_t, once the first pin is read
    signatures: set[int] = set()
    texts: set[str] = set()

    def pin(obj: dict) -> PinRecord:
        record = PinRecord.from_json(obj)
        if not dims:
            dims.extend((record.visual_embedding.size, record.text_embedding.size))
            if not all(dims):
                raise CorpusError(f"pin {record.signature}: empty embedding")
        record.validate(*dims)
        if record.signature in signatures:
            raise CorpusError(f"duplicate signature {record.signature}")
        signatures.add(record.signature)
        return record

    def query(obj: dict) -> QueryRecord:
        record = QueryRecord.from_json(obj)
        record.validate(dims[1])
        if record.text in texts:
            raise CorpusError(f"duplicate query text {record.text!r}")
        texts.add(record.text)
        return record

    def engagement(obj: dict) -> EngagementRecord:
        record = EngagementRecord.from_json(obj)
        record.validate()
        return record

    pins = read_records(directory / CORPUS_FILES["pins"], pin, CorpusError, "pin")
    return Corpus(
        pins={p.signature: p for p in pins},
        queries=read_records(directory / CORPUS_FILES["queries"], query, CorpusError, "query"),
        engagement=read_records(
            directory / CORPUS_FILES["engagement"], engagement, CorpusError, "engagement"
        ),
        d_v=dims[0],
        d_t=dims[1],
    )


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    records = {"pins": corpus.pins.values(), "queries": corpus.queries,
               "engagement": corpus.engagement}
    for name, file in CORPUS_FILES.items():
        write_jsonl(Path(directory) / file, (r.to_json() for r in records[name]))


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
