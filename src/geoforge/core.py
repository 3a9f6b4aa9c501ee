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
import typing
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

import numpy as np

QUERY_CATEGORIES = ("Description", "StyleDetail", "UseCase")
# The corpus files in a corpus directory, each under its artifact name: the
# pin and query records' other fields as JSONL, and one array file of their
# vectors, the VECTOR_ARRAYS, and of the engagement table's columns.
CORPUS_FILES = {"pins": "pins.jsonl", "queries": "queries.jsonl", "arrays": "arrays.bin"}
ARRAYS_MAGIC = b"GEOCOR01"
VECTOR_ARRAYS = ("visual", "text", "query_embeddings")
# The engagement columns (see `Engagement`) and their dtypes.
ENGAGEMENT_ARRAYS = {"pin_row": "<i8", "query_row": "<i8", "impressions": "<i8",
                     "clicks": "<i8", "avg_position": "<f4"}
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
    """L2 normalization requested where no unit vector exists; ``row`` is
    the matrix row that has none, when `l2_normalize_rows` raised it."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def subseed(seed: int, stage: str) -> int:
    """Derive the per-stage sub-seed from the corpus-wide seed."""
    if stage not in SEED_OFFSETS:
        raise KeyError(f"unknown stage {stage!r}")
    return (int(seed) + SEED_OFFSETS[stage]) % 2**64


def rng_for(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(subseed(seed, stage))


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm. Raises ZeroNormError when no unit vector
    exists: v holds a NaN or an infinity, or its float64 norm is zero (a
    zero vector, or one whose squares all underflow)."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if not 1e-150 < norm < 1e150:
        if norm == 0.0 or not np.isfinite(v).all():
            raise ZeroNormError(f"no unit vector exists for {reprlib.repr(v.tolist())}")
        # the squares lost bits to subnormals or overflowed: rescale first
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    return v / norm


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale each row of a writable float64 matrix to unit L2 norm in place
    and return the matrix. A row whose float64 norm is zero or not finite
    raises ZeroNormError naming the first such row."""
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))
    bad = np.flatnonzero(~((norms[:, 0] > 0.0) & (norms[:, 0] < np.inf)))
    if bad.size:
        raise ZeroNormError(f"row {bad[0]} has no unit vector", row=int(bad[0]))
    matrix /= norms
    return matrix


def f32(value: float) -> float:
    """A float rounded through 32-bit for persistence."""
    return float(np.float32(value))


def read_only(values, dtype: type | str = np.float64) -> np.ndarray:
    """``values`` as an array of ``dtype`` with writing switched off, so no
    view taken of it later can write either."""
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class _Record:
    __slots__ = ()  # so that a slotted record keeps no __dict__

    def to_json(self) -> dict:
        """Every field but the vectors, in declaration order, with floats
        rounded by `f32`."""
        return {k: f32(v) if isinstance(v := getattr(self, k), float) else v
                for k in _record_kinds(type(self))}

    def validate(self) -> None:
        """Raise CorpusError if the record breaks an invariant of its kind."""

    @classmethod
    def from_json(cls, obj: dict, **rows: np.ndarray):
        """The validated record from a JSON object of all its fields but the
        vectors, each of the kind its annotation names (see `check_json`),
        and the vectors given as ``rows``. An int in a float field reads as
        a float."""
        kinds = _record_kinds(cls)
        check_json(obj, kinds)
        record = cls(**rows, **{k: float(v) if kinds[k] is float else v for k, v in obj.items()})
        record.validate()
        return record


@functools.cache
def _record_kinds(cls: type) -> dict:
    """A record class's JSON kind per field but its vectors (``np.ndarray``
    fields, None allowed or not): the field's annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if np.ndarray not in (hints[f.name], *typing.get_args(hints[f.name]))}


@dataclass(frozen=True, slots=True)
class PinRecord(_Record):
    signature: int
    visual_embedding: np.ndarray
    text_embedding: np.ndarray
    perception_score: float
    title: str
    board_id: int

    def validate(self) -> None:
        if not 0.0 <= self.perception_score <= 1.0:
            raise CorpusError(
                f"pin {self.signature}: perception_score {self.perception_score} "
                "outside [0, 1]"
            )


@dataclass(frozen=True, slots=True)
class QueryRecord(_Record):
    text: str
    category: str
    embedding: np.ndarray | None = None

    def validate(self) -> None:
        if not self.text.strip():
            raise CorpusError("query text is empty")
        if self.category not in QUERY_CATEGORIES:
            raise CorpusError(
                f"query {self.text!r}: category {self.category!r} not one of "
                f"{QUERY_CATEGORIES}"
            )


@dataclass(slots=True)
class Engagement:
    """Search engagement as read-only columns of the ENGAGEMENT_ARRAYS
    dtypes, row k one (query, pin) record: the pin's row in signature order,
    the query's row in `Corpus.queries`, its impressions and clicks and its
    average position."""

    pin_row: np.ndarray
    query_row: np.ndarray
    impressions: np.ndarray
    clicks: np.ndarray
    avg_position: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in ENGAGEMENT_ARRAYS.items():
            setattr(self, name, read_only(getattr(self, name), dtype))

    def __len__(self) -> int:
        return len(self.pin_row)


@dataclass(frozen=True, slots=True)
class LabeledPair:
    pin_signature: int
    query: QueryRecord
    label: int

    def validate(self) -> None:
        if self.label not in (+1, -1):
            raise CorpusError(f"label must be +1 or -1, got {self.label}")

    def to_json(self) -> dict:
        """The pair with its query by text; `from_json` joins it back."""
        return {
            "pin_signature": self.pin_signature,
            "query_text": self.query.text,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, obj: dict, corpus: Corpus) -> "LabeledPair":
        """A validated pair of the JSON kinds `to_json` writes, with its query
        and pin looked up in ``corpus``; one it lacks raises CorpusError."""
        check_json(obj, {"pin_signature": int, "query_text": str, "label": int})
        pair = cls(corpus.pin(obj["pin_signature"]).signature, corpus.query(obj["query_text"]),
                   obj["label"])
        pair.validate()
        return pair


@dataclass
class Corpus:
    """Pins by signature, in ascending order, queries and the engagement
    columns, with each vector a read-only view of a row of a read-only
    float64 matrix:
    pin i's (in signature order) of row i of ``visual`` and ``text``, query
    j's of row j of ``query_embeddings``. ``signatures`` holds the pins'
    signatures in the same order, and ``query_row`` each query text's row."""

    pins: dict[int, PinRecord]
    queries: list[QueryRecord]
    engagement: Engagement
    visual: np.ndarray
    text: np.ndarray
    query_embeddings: np.ndarray
    signatures: np.ndarray = field(init=False, repr=False)
    query_row: dict[str, int] = field(init=False, repr=False)
    d_v: int = field(init=False)  # the widths of visual and text
    d_t: int = field(init=False)

    def __post_init__(self) -> None:
        self.signatures = read_only(list(self.pins), np.int64)
        self.query_row = {q.text: row for row, q in enumerate(self.queries)}
        self.d_v, self.d_t = self.visual.shape[1], self.text.shape[1]

    def pin(self, signature: int) -> PinRecord:
        try:
            return self.pins[signature]
        except KeyError:
            raise CorpusError(f"unknown pin signature {signature}") from None

    def query(self, text: str) -> QueryRecord:
        try:
            return self.queries[self.query_row[text]]
        except KeyError:
            raise CorpusError(f"unknown query text {text!r}") from None


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


def check_json(obj, kinds: dict) -> dict:
    """``obj``, when it is a JSON object with the keys of ``kinds``, each
    holding a value of its kind (see `_json_is`). ``{str: kind}`` takes any
    keys, each with a value of kind.
    Else raises ValueError naming an unknown key, else the first missing
    key, else the first key with an ill-typed value."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if str in kinds:
        kinds = dict.fromkeys(obj, kinds[str])
    if not obj.keys() <= kinds.keys():
        raise ValueError(f"unknown key {min(obj.keys() - kinds.keys())!r}")
    for key in kinds if len(obj) < len(kinds) else ():
        if key not in obj:
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
    dtype and shape, the arrays' bytes in that order, then the CRC-32 of all
    those bytes (uint32 LE)."""
    specs = [{"dtype": a.dtype.str, "name": n, "shape": list(a.shape)} for n, a in arrays.items()]
    header = json.dumps(
        {"arrays": specs, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    body = b"".join([magic, len(header).to_bytes(8, "little"), header,
                     *(a.tobytes() for a in arrays.values())])
    with _atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(zlib.crc32(body).to_bytes(4, "little"))


def _json_is(value, kind) -> bool:
    """JSON type test. A dict kind is an object that passes `check_json`
    and ``[kind]`` a list of values of kind. An int fits int64 and is no
    bool; a float is finite, or an int."""
    if type(kind) is type:  # int, float, str, bool or dict (any object)
        if type(value) is int and kind in (int, float):
            return -(2**63) <= value < 2**63
        return type(value) is kind and (kind is not float or math.isfinite(value))
    if isinstance(kind, dict):
        try:
            check_json(value, kind)
        except ValueError:
            return False
        return True
    return type(value) is list and all(_json_is(v, kind[0]) for v in value)


def load_arrays(
    path: str | Path, magic: bytes, error: type[Exception], meta_types: dict
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a `save_arrays` file as (meta, read-only arrays by name). Another
    magic, then a CRC-32 that does not match, then any other damage, or a
    meta not of ``meta_types`` (see `_json_is`), raises ``error``."""
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise error(f"bad magic in {path}")
    size = len(data) - 4  # the bytes before the CRC-32
    if zlib.crc32(memoryview(data)[:size]) != int.from_bytes(data[size:], "little"):
        raise error(f"truncated or damaged {path}: its CRC-32 does not match")
    pos = len(magic) + 8
    end = pos + int.from_bytes(data[len(magic) : pos], "little")
    if size < pos or end > size:
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
        if end + count * np.dtype(dtype).itemsize > size:
            raise error(f"truncated array {name!r} in {path}")
        try:
            arrays[name] = np.frombuffer(data, dtype, count, end).reshape(shape)
        except ValueError as exc:  # a zero-size shape too large for numpy
            raise error(f"array {name!r} has shape {shape} in {path}: {exc}") from exc
        end += arrays[name].nbytes
        if arrays[name].dtype.kind == "f" and not np.isfinite(arrays[name]).all():
            raise error(f"array {name!r} has non-finite values in {path}")
    if end != size:
        raise error(f"{size - end} trailing bytes in {path}")
    return header["meta"], arrays


def load_corpus(directory: str | Path) -> Corpus:
    """Load and validate the CORPUS_FILES in ``directory``. A bad record, a
    repeated query text or a pin signature that does not ascend raises
    CorpusError naming path:line, and a missing file or one with no record
    CorpusError naming the path. So does a damaged array file, or one whose
    VECTOR_ARRAYS are not float32 matrices of one row per pin (visual and
    text) and per query (query_embeddings, as wide as text), or whose
    ENGAGEMENT_ARRAYS are not columns of their dtypes that pass
    `_check_engagement`."""
    directory = Path(directory)
    for path in (directory / file for file in CORPUS_FILES.values()):
        if not path.is_file():
            raise CorpusError(f"missing corpus file {path}")
    path = directory / CORPUS_FILES["arrays"]
    _, arrays = load_arrays(path, ARRAYS_MAGIC, CorpusError, {})
    if {n: (a.dtype.str, a.ndim) for n, a in arrays.items()} != {
            **dict.fromkeys(VECTOR_ARRAYS, ("<f4", 2)),
            **{name: (dtype, 1) for name, dtype in ENGAGEMENT_ARRAYS.items()}}:
        raise CorpusError(f"{path}: expected the float32 matrices {VECTOR_ARRAYS} and the "
                          f"engagement columns {ENGAGEMENT_ARRAYS}")
    visual, text, query_embeddings = (read_only(arrays[name]) for name in VECTOR_ARRAYS)
    # a record past the last row takes None, and the row count check fails
    pin_rows, query_rows = iter(zip(visual, text)), iter(query_embeddings)
    signatures: list[int] = []
    texts: set[str] = set()

    def pin(obj: dict) -> PinRecord:
        visual_row, text_row = next(pin_rows, (None, None))
        record = PinRecord.from_json(obj, visual_embedding=visual_row, text_embedding=text_row)
        if signatures and record.signature <= signatures[-1]:
            raise CorpusError(f"pin signature {record.signature} does not ascend from {signatures[-1]}")
        signatures.append(record.signature)
        return record

    def query(obj: dict) -> QueryRecord:
        record = QueryRecord.from_json(obj, embedding=next(query_rows, None))
        if record.text in texts:
            raise CorpusError(f"duplicate query text {record.text!r}")
        texts.add(record.text)
        return record

    pins = read_records(directory / CORPUS_FILES["pins"], pin, CorpusError, "pin")
    queries = read_records(directory / CORPUS_FILES["queries"], query, CorpusError, "query")
    shapes = [a.shape for a in (visual, text, query_embeddings)]
    d_v, d_t = visual.shape[1], text.shape[1]
    if shapes != [(len(pins), d_v), (len(pins), d_t), (len(queries), d_t)] or not d_v * d_t:
        raise CorpusError(f"{path}: shapes {shapes} do not fit {len(pins)} pins and "
                          f"{len(queries)} queries, as (pins, d_v), (pins, d_t), (queries, d_t)")
    engagement = {name: arrays[name] for name in ENGAGEMENT_ARRAYS}
    _check_engagement(path, engagement, len(pins), len(queries))
    return Corpus({p.signature: p for p in pins}, queries, Engagement(**engagement),
                  visual, text, query_embeddings)


def _check_engagement(path: Path, columns: dict[str, np.ndarray], n_pins: int, n_queries: int) -> None:
    """Raise CorpusError naming ``path`` unless the engagement ``columns``
    are of one length, at least 1, with pin rows of the ``n_pins``, query
    rows of the ``n_queries``, impressions >= 0, clicks in [0, impressions]
    and avg_position >= 1: the first rule broken, in that order, names the
    first row that breaks it."""
    lengths = [len(column) for column in columns.values()]
    if len(set(lengths)) > 1:
        raise CorpusError(f"{path}: engagement columns {list(columns)} have unequal lengths {lengths}")
    if not lengths[0]:
        raise CorpusError(f"{path}: no engagement records")
    pin, query, shown, clicks, position = columns.values()
    for name, ok, rule in [
        ("pin_row", (pin >= 0) & (pin < n_pins), f"is no row of the {n_pins} pins"),
        ("query_row", (query >= 0) & (query < n_queries), f"is no row of the {n_queries} queries"),
        ("impressions", shown >= 0, "is negative"),
        ("clicks", (clicks >= 0) & (clicks <= shown), "is negative or exceeds impressions"),
        ("avg_position", position >= 1.0, "is below 1"),
    ]:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise CorpusError(f"{path}: engagement row {bad[0]}: {name} {columns[name][bad[0]]} {rule}")


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write the CORPUS_FILES: each pin and query record's fields but its
    vectors as JSONL, and the corpus's VECTOR_ARRAYS as float32 and its
    engagement columns in the array file."""
    directory = Path(directory)
    for name, rows in {"pins": corpus.pins.values(), "queries": corpus.queries}.items():
        write_jsonl(directory / CORPUS_FILES[name], (r.to_json() for r in rows))
    save_arrays(directory / CORPUS_FILES["arrays"], ARRAYS_MAGIC, {}, {
        **{name: getattr(corpus, name).astype("<f4") for name in VECTOR_ARRAYS},
        **{name: getattr(corpus.engagement, name) for name in ENGAGEMENT_ARRAYS}})


def hashed_bag_of_tokens(text: str, dim: int) -> np.ndarray:
    """Deterministic text featurizer: hash tokens into a fixed-dim bag, unit
    norm, or zero when there are no tokens or their signs cancel."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        vec[bucket] += sign
    return l2_normalize(vec) if vec.any() else vec


def file_checksum(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
