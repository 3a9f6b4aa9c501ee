"""Deterministic trend-mining agent.

A five-node plan (planning -> retrieval -> filtering -> expansion ->
validation) executed over a small tool suite, with an explicit state
transition function, append-only episode memory, and a persistent
long-term memory that only validation outcomes may touch. Every episode
produces a replayable trace.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    Corpus, QueryRecord, hashed_bag_of_tokens, read_json, read_records, write_jsonl, write_text,
)
from .encoders import EncoderModel
from .hnsw import HnswIndex

NODES = ("planning", "retrieval", "filtering", "expansion", "validation")
DAG_EDGES = dict(zip(NODES, NODES[1:] + (None,)))
PERMITTED_ACTIONS = {
    "planning": {"plan"},
    "retrieval": {"fetch_trends"},
    "filtering": {"semantic_filter"},
    "expansion": {"expand_query"},
    "validation": {"content_lookup", "validate"},
}
LOW_FIT_CATEGORIES = {"news", "sports", "politics"}

EXPANSION_TEMPLATES = [
    ("Description", "{term} ideas"),
    ("StyleDetail", "{term} aesthetic"),
    ("UseCase", "how to style {term}"),
    ("UseCase", "{term} for beginners"),
    ("StyleDetail", "{term} color palette"),
]


class AgentError(ValueError):
    pass


@dataclass(frozen=True)
class TrendSignal:
    term: str
    region: str = "US"
    timespan: str = "7d"
    velocity: float = 0.0
    category: str = ""

    def __post_init__(self) -> None:
        for name in ("term", "region", "timespan", "category"):
            if not isinstance(getattr(self, name), str):
                raise AgentError(f"trend {name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.velocity, bool) or not isinstance(self.velocity, (int, float)):
            raise AgentError(f"velocity for {self.term!r} must be a number, got {self.velocity!r}")
        if not self.term.strip():
            raise AgentError("trend term is empty")
        if not -float("inf") < self.velocity < float("inf"):  # exact for ints of any size
            raise AgentError(f"velocity for {self.term!r} is not finite")

    @classmethod
    def from_json(cls, obj: dict) -> "TrendSignal":
        """A trend from its fields; an unknown key or an absent term raises AgentError."""
        unknown = sorted(obj.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise AgentError(f"unknown key {unknown[0]!r}")
        if "term" not in obj:
            raise AgentError("missing key 'term'")
        return cls(**obj)


@dataclass
class AgentState:
    cursor: str = "planning"
    short_memory: list[dict] = field(default_factory=list)
    long_memory: dict[str, dict] = field(default_factory=dict)
    emitted: list[QueryRecord] = field(default_factory=list)


def transition(state: AgentState, action: dict, observation: dict) -> AgentState:
    """Pure state transition: append the (action, observation) pair, advance
    the cursor on moves, and fold validation outcomes into long memory."""
    new = AgentState(
        cursor=state.cursor,
        short_memory=list(state.short_memory),
        long_memory=copy.deepcopy(state.long_memory),
        emitted=list(state.emitted),
    )
    kind = action.get("kind")
    if kind == "move":
        target = action.get("to")
        if DAG_EDGES.get(state.cursor) != target:
            raise AgentError(f"no plan edge {state.cursor} -> {target}")
        new.cursor = target
    elif kind == "tool":
        tool = action.get("tool")
        if tool not in PERMITTED_ACTIONS[state.cursor]:
            raise AgentError(
                f"action {tool!r} not permitted at node {state.cursor!r} "
                f"(allowed: {sorted(PERMITTED_ACTIONS[state.cursor])})"
            )
        if state.cursor == "validation" and tool == "validate":
            for outcome in observation.get("outcomes", []):
                record = new.long_memory.setdefault(
                    outcome["term"],
                    {"accepted": 0, "rejected": 0, "last_velocity": 0.0, "patterns": []},
                )
                record["accepted" if outcome["accepted"] else "rejected"] += 1
                record["last_velocity"] = outcome["velocity"]
                if outcome["accepted"] and outcome["pattern"] not in record["patterns"]:
                    record["patterns"].append(outcome["pattern"])
            for query in observation.get("emitted", []):
                new.emitted.append(QueryRecord.from_json(query))
    else:
        raise AgentError(f"unknown action kind {kind!r}")
    new.short_memory.append(
        {"node": state.cursor, "action": action, "observation": observation}
    )
    return new


@dataclass
class ToolSuite:
    fetch_trends: Callable[[str, str], list[TrendSignal]]
    semantic_filter: Callable[[TrendSignal, float], tuple[float, bool]]
    content_lookup: Callable[[str], tuple[int, float, bool]]
    expand_query: Callable[[TrendSignal, dict[str, dict], int], list[tuple[QueryRecord, str]]]


@dataclass
class AgentConfig:
    regions: list[str] = field(default_factory=lambda: ["US"])
    timespan: str = "7d"
    filter_threshold: float = 0.5
    min_count: int = 25
    relevance_floor: float = 0.4
    velocity_floor: float = 0.2
    expansions_per_trend: int = 3


def make_semantic_filter(taxonomy: list[tuple[str, str]]):
    """Rule-based relevance scorer: zero for low-fit categories, else the
    best token-bag cosine against the taxonomy terms (exact match scores 1)."""
    term_vecs = [(term, hashed_bag_of_tokens(term, 256)) for term, _ in taxonomy]

    def semantic_filter(trend: TrendSignal, threshold: float) -> tuple[float, bool]:
        if not 0.0 <= threshold <= 1.0:
            raise AgentError(f"threshold {threshold} outside [0, 1]")
        if trend.category.lower() in LOW_FIT_CATEGORIES:
            return 0.0, False
        if any(trend.term == term for term, _ in taxonomy):
            return 1.0, True
        vec = hashed_bag_of_tokens(trend.term, 256)
        best = max((float(vec @ tv) for _, tv in term_vecs), default=0.0)
        p = float(np.clip(best, 0.0, 1.0))
        return p, p >= threshold

    return semantic_filter


def make_content_lookup(
    corpus: Corpus,
    index: HnswIndex,
    text_encoder: EncoderModel,
    min_count: int,
    relevance_floor: float,
):
    """Probe the index with the closest known query embedding for the text
    (token-overlap match), count hits above the relevance floor."""
    query_tokens = [(q, set(q.text.lower().split())) for q in corpus.queries if q.embedding is not None]

    def content_lookup(text: str) -> tuple[int, float, bool]:
        tokens = set(text.lower().split())
        best_query, best_overlap = None, 0.0
        for query, qtok in query_tokens:
            overlap = len(tokens & qtok) / max(1, len(tokens | qtok))
            if overlap > best_overlap:
                best_query, best_overlap = query, overlap
        if best_query is None or best_overlap < 0.2 or len(index) == 0:
            return 0, 0.0, min_count <= 0
        probe = text_encoder.encode(best_query.embedding)
        hits = index.search(probe, k=max(4 * min_count, 100))
        counted = [sig for sig, sim in hits if sim >= relevance_floor]
        if not counted:
            return 0, 0.0, min_count <= 0
        mean_quality = float(
            np.mean([corpus.pins[s].perception_score for s in counted if s in corpus.pins])
        )
        return len(counted), mean_quality, len(counted) > min_count

    return content_lookup


def make_expand_query():
    """Deterministic template expander; reuses accepted patterns from long
    memory as few-shot exemplars when available."""

    def expand_query(
        trend: TrendSignal, long_memory: dict[str, dict], n: int
    ) -> list[tuple[QueryRecord, str]]:
        exemplars = long_memory.get(trend.term, {}).get("patterns", [])
        # remembered patterns first, in memory order; the rest keep theirs
        templates = sorted(
            EXPANSION_TEMPLATES,
            key=lambda t: exemplars.index(t[1]) if t[1] in exemplars else len(exemplars),
        )
        # each template's fixed text differs, so no two variants collide
        return [
            (QueryRecord(text=pattern.format(term=trend.term), category=category), pattern)
            for category, pattern in templates[: max(0, n)]
        ]

    return expand_query


def make_fetch_trends(trends_path: str | Path):
    """The trends of one region and timespan from a JSONL file of TrendSignal
    fields, by term. The file is parsed here, once: a bad record raises
    AgentError naming path:line, and a file with no record AgentError naming
    the path, when the tools are built."""
    signals = read_records(trends_path, TrendSignal.from_json, AgentError)
    if not signals:
        raise AgentError(f"{trends_path}: no trend records")

    def fetch_trends(region: str, timespan: str) -> list[TrendSignal]:
        return sorted(
            (s for s in signals if s.region == region and s.timespan == timespan),
            key=lambda s: s.term,
        )

    return fetch_trends


def default_tools(
    corpus: Corpus,
    index: HnswIndex,
    text_encoder: EncoderModel,
    taxonomy: list[tuple[str, str]],
    trends_path: str | Path,
    config: AgentConfig,
) -> ToolSuite:
    """The four tools over one corpus, index and taxonomy; an empty taxonomy
    raises AgentError before any tool is built."""
    if not taxonomy:
        raise AgentError("taxonomy is empty")
    return ToolSuite(
        fetch_trends=make_fetch_trends(trends_path),
        semantic_filter=make_semantic_filter(taxonomy),
        content_lookup=make_content_lookup(
            corpus, index, text_encoder, config.min_count, config.relevance_floor
        ),
        expand_query=make_expand_query(),
    )


def run_episode(
    config: AgentConfig,
    tools: ToolSuite,
    long_memory: dict[str, dict] | None = None,
) -> tuple[list[QueryRecord], list[dict], AgentState]:
    """One pass through the five-node plan. Returns the validated queries,
    a replayable trace (the final state's short memory), and the final state."""
    state = AgentState(long_memory=copy.deepcopy(long_memory or {}))

    def step(action: dict, observation: dict) -> None:
        nonlocal state
        state = transition(state, action, observation)

    def tool_step(tool: str, key: str, value, observe: Callable[[object], dict], *args):
        """Call one tool fail-soft and record it, keyed by ``key: value``: the
        observation is ``observe(result)``, or the error when the tool raises.
        Returns the result, or None after an error."""
        try:
            result = getattr(tools, tool)(*args)
            observation = {key: value, **observe(result)}
        except Exception as exc:
            result, observation = None, {key: value, "error": str(exc)}
        step({"kind": "tool", "tool": tool, key: value}, observation)
        return result

    # planning: fixed strategy over configured regions (fatal on failure)
    plan = {"regions": sorted(config.regions), "timespan": config.timespan, "nodes": list(NODES)}
    step({"kind": "tool", "tool": "plan"}, {"plan": plan})
    step({"kind": "move", "to": "retrieval"}, {})

    # retrieval: one fetch per region; observations merge in sorted key order
    trends: list[TrendSignal] = []
    for region in plan["regions"]:
        trends += tool_step(
            "fetch_trends", "region", region, lambda r: {"trends": [asdict(t) for t in r]},
            region, config.timespan,
        ) or []
    step({"kind": "move", "to": "filtering"}, {})

    kept: list[TrendSignal] = []
    for trend in trends:
        verdict = tool_step(
            "semantic_filter", "term", trend.term,
            lambda r: dict(zip(("p", "keep"), r, strict=True)), trend, config.filter_threshold,
        )
        if verdict and verdict[1]:
            kept.append(trend)
    step({"kind": "move", "to": "expansion"}, {})

    expansions: list[tuple[TrendSignal, QueryRecord, str]] = []
    for trend in kept:
        variants = tool_step(
            "expand_query", "term", trend.term,
            lambda r: {"variants": [{"query": q.to_json(), "pattern": p} for q, p in r]},
            trend, state.long_memory, config.expansions_per_trend,
        )
        expansions += [(trend, q, pattern) for q, pattern in variants or []]
    step({"kind": "move", "to": "validation"}, {})

    outcomes: list[dict] = []
    emitted: list[dict] = []
    for trend, query, pattern in expansions:
        found = tool_step(
            "content_lookup", "query", query.text,
            lambda r: dict(zip(("count", "mean_quality", "sufficient"), r, strict=True)),
            query.text,
        )
        accepted = bool(found and found[2] and trend.velocity >= config.velocity_floor)
        outcomes.append({"term": trend.term, "query": query.text, "pattern": pattern,
                         "velocity": trend.velocity, "accepted": accepted})
        if accepted:
            emitted.append(query.to_json())
    step({"kind": "tool", "tool": "validate"}, {"outcomes": outcomes, "emitted": emitted})
    return list(state.emitted), state.short_memory, state


def replay_trace(trace: list[dict], long_memory: dict[str, dict] | None = None) -> AgentState:
    """Re-apply every traced transition from the initial state. Other record
    keys, such as the ``step`` that `write_trace` adds, are ignored."""
    state = AgentState(long_memory=copy.deepcopy(long_memory or {}))
    for record in trace:
        if record["node"] != state.cursor:
            raise AgentError(
                f"trace node {record['node']!r} diverges from cursor {state.cursor!r}"
            )
        state = transition(state, record["action"], record["observation"])
    return state


def write_trace(trace: list[dict], path: str | Path) -> None:
    write_jsonl(path, ({"step": i, **record} for i, record in enumerate(trace)))


def save_long_memory(memory: dict[str, dict], path: str | Path) -> None:
    write_text(path, json.dumps(memory, indent=2, sort_keys=True))


def load_long_memory(path: str | Path) -> dict[str, dict]:
    """The saved memory, {} when there is none. A file that is not JSON or
    not an object of objects raises AgentError naming it."""
    p = Path(path)
    if not p.exists():
        return {}
    memory = read_json(p, AgentError)
    if not all(isinstance(v, dict) for v in memory.values()):
        raise AgentError(f"{p}: long memory must be an object of objects")
    return memory
