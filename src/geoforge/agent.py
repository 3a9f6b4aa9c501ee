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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    Corpus, QueryRecord, _Record, check_json, hashed_bag_of_tokens, read_json, read_records,
    write_jsonl, write_text,
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
# The plan: keep the trends that score FILTER_THRESHOLD, expand each into
# EXPANSIONS_PER_TREND queries, and accept a query with enough hits at
# RELEVANCE_FLOOR whose trend moves at VELOCITY_FLOOR or faster.
FILTER_THRESHOLD = 0.5
EXPANSIONS_PER_TREND = 3
RELEVANCE_FLOOR = 0.4
VELOCITY_FLOOR = 0.2
# a validate step's observation and each outcome in it; a trace record's keys
VALIDATE_KINDS = {"outcomes": [dict], "emitted": [dict]}
OUTCOME_KINDS = {"term": str, "query": str, "pattern": str, "velocity": float, "accepted": bool}
TRACE_KINDS = {"node": str, "action": dict, "observation": dict}
# one long-memory record, per term
MEMORY_KINDS = {"accepted": int, "rejected": int, "last_velocity": float, "patterns": [str]}

EXPANSION_TEMPLATES = [
    ("Description", "{term} ideas"),
    ("StyleDetail", "{term} aesthetic"),
    ("UseCase", "how to style {term}"),
    ("UseCase", "{term} for beginners"),
    ("StyleDetail", "{term} color palette"),
]


class AgentError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class TrendSignal(_Record):
    term: str
    velocity: float
    category: str

    def __post_init__(self) -> None:
        if not self.term.strip():
            raise AgentError("trend term is empty")
        if not -float("inf") < self.velocity < float("inf"):  # exact for ints of any size
            raise AgentError(f"velocity for {self.term!r} is not finite")


@dataclass
class AgentState:
    cursor: str = "planning"
    short_memory: list[dict] = field(default_factory=list)
    long_memory: dict[str, dict] = field(default_factory=dict)
    emitted: list[QueryRecord] = field(default_factory=list)


def transition(state: AgentState, action: dict, observation: dict) -> AgentState:
    """Pure state transition: append the (action, observation) pair, advance
    the cursor on moves, and fold validation outcomes into long memory. An
    action the plan forbids, a validate observation not of VALIDATE_KINDS
    and OUTCOME_KINDS, or a long memory it folds into that is not of
    MEMORY_KINDS records by term, raises AgentError naming the step."""
    step = len(state.short_memory)
    if type(action) is not dict or type(observation) is not dict:
        raise AgentError(f"step {step}: action and observation must be objects")
    new = replace(state, short_memory=list(state.short_memory),
                  long_memory=copy.deepcopy(state.long_memory), emitted=list(state.emitted))
    kind = action.get("kind")
    if kind == "move":
        target = action.get("to")
        if DAG_EDGES.get(state.cursor) != target:
            raise AgentError(f"step {step}: no plan edge {state.cursor} -> {target}")
        new.cursor = target
    elif kind == "tool":
        tool = action.get("tool")
        if type(tool) is not str or tool not in PERMITTED_ACTIONS[state.cursor]:
            raise AgentError(
                f"step {step}: action {tool!r} not permitted at node {state.cursor!r} "
                f"(allowed: {sorted(PERMITTED_ACTIONS[state.cursor])})"
            )
        if state.cursor == "validation" and tool == "validate":
            try:
                check_json(observation, VALIDATE_KINDS)
                outcomes = [check_json(outcome, OUTCOME_KINDS) for outcome in observation["outcomes"]]
                new.emitted += map(QueryRecord.from_json, observation["emitted"])
            except ValueError as exc:
                raise AgentError(f"step {step}: bad validate observation: {exc}") from exc
            try:
                check_json(new.long_memory, {str: MEMORY_KINDS})
            except ValueError as exc:
                raise AgentError(f"step {step}: bad long memory: {exc}") from exc
            for outcome in outcomes:
                record = new.long_memory.setdefault(
                    outcome["term"],
                    {"accepted": 0, "rejected": 0, "last_velocity": 0.0, "patterns": []},
                )
                record["accepted" if outcome["accepted"] else "rejected"] += 1
                record["last_velocity"] = outcome["velocity"]
                if outcome["accepted"] and outcome["pattern"] not in record["patterns"]:
                    record["patterns"].append(outcome["pattern"])
    else:
        raise AgentError(f"step {step}: unknown action kind {kind!r}")
    new.short_memory.append(
        {"node": state.cursor, "action": action, "observation": observation}
    )
    return new


@dataclass
class ToolSuite:
    fetch_trends: Callable[[], list[TrendSignal]]
    semantic_filter: Callable[[TrendSignal], tuple[float, bool]]
    content_lookup: Callable[[str], tuple[int, float, bool]]
    expand_query: Callable[[TrendSignal, dict[str, dict]], list[tuple[QueryRecord, str]]]


def make_semantic_filter(taxonomy: list[str]):
    """Rule-based relevance scorer: zero for low-fit categories, else the
    best token-bag cosine against the taxonomy terms (exact match scores 1);
    a trend is kept at FILTER_THRESHOLD or above."""
    term_vecs = [hashed_bag_of_tokens(term, 256) for term in taxonomy]

    def semantic_filter(trend: TrendSignal) -> tuple[float, bool]:
        if trend.category.lower() in LOW_FIT_CATEGORIES:
            return 0.0, False
        if trend.term in taxonomy:
            return 1.0, True
        vec = hashed_bag_of_tokens(trend.term, 256)
        best = max((float(vec @ tv) for tv in term_vecs), default=0.0)
        p = float(np.clip(best, 0.0, 1.0))
        return p, p >= FILTER_THRESHOLD

    return semantic_filter


def make_content_lookup(corpus: Corpus, index: HnswIndex, text_encoder: EncoderModel, min_count: int):
    """Probe the index with the closest known query embedding for the text
    (token-overlap match), count hits at RELEVANCE_FLOOR or above that are
    corpus pins. The answer is (hits, their mean perception score or 0.0,
    whether hits > ``min_count``)."""
    query_tokens = [(q, set(q.text.lower().split())) for q in corpus.queries]

    def content_lookup(text: str) -> tuple[int, float, bool]:
        tokens = set(text.lower().split())
        best_query, best_overlap = None, 0.0
        for query, qtok in query_tokens:
            overlap = len(tokens & qtok) / max(1, len(tokens | qtok))
            if overlap > best_overlap:
                best_query, best_overlap = query, overlap
        counted = []
        if best_query is not None and best_overlap >= 0.2 and len(index):
            hits = index.search(text_encoder.encode(best_query.embedding), k=max(4 * min_count, 100))
            counted = [corpus.pins[s] for s, sim in hits if sim >= RELEVANCE_FLOOR and s in corpus.pins]
        mean_quality = float(np.mean([pin.perception_score for pin in counted])) if counted else 0.0
        return len(counted), mean_quality, len(counted) > min_count

    return content_lookup


def expand_query(trend: TrendSignal, long_memory: dict[str, dict]) -> list[tuple[QueryRecord, str]]:
    """Deterministic template expander into EXPANSIONS_PER_TREND queries;
    reuses accepted patterns from long memory as few-shot exemplars."""
    exemplars = long_memory.get(trend.term, {}).get("patterns", [])
    # remembered patterns first, in memory order; the rest keep theirs
    templates = sorted(
        EXPANSION_TEMPLATES,
        key=lambda t: exemplars.index(t[1]) if t[1] in exemplars else len(exemplars),
    )
    # each template's fixed text differs, so no two variants collide
    return [
        (QueryRecord(text=pattern.format(term=trend.term), category=category), pattern)
        for category, pattern in templates[:EXPANSIONS_PER_TREND]
    ]


def make_fetch_trends(trends_path: str | Path):
    """Every trend of a JSONL file of TrendSignal fields, by term, parsed
    here once: a bad record raises AgentError naming path:line, and a file
    with no record AgentError naming the path, when the tools are built."""
    signals = sorted(read_records(trends_path, TrendSignal.from_json, AgentError, "trend"),
                     key=lambda s: s.term)

    def fetch_trends() -> list[TrendSignal]:
        return list(signals)

    return fetch_trends


def default_tools(
    corpus: Corpus, index: HnswIndex, text_encoder: EncoderModel,
    taxonomy: list[str], trends_path: str | Path, min_count: int,
) -> ToolSuite:
    """The four tools over one corpus, index and taxonomy, where content
    lookup wants more than ``min_count`` hits; an empty taxonomy or a
    negative ``min_count`` raises AgentError before any tool is built."""
    if not taxonomy:
        raise AgentError("taxonomy is empty")
    if min_count < 0:
        raise AgentError(f"min_count must be at least 0, got {min_count}")
    return ToolSuite(
        fetch_trends=make_fetch_trends(trends_path),
        semantic_filter=make_semantic_filter(taxonomy),
        content_lookup=make_content_lookup(corpus, index, text_encoder, min_count),
        expand_query=expand_query,
    )


def run_episode(
    tools: ToolSuite, long_memory: dict[str, dict] | None = None
) -> tuple[list[QueryRecord], list[dict], AgentState]:
    """One pass through the five-node plan. Returns the validated queries,
    a replayable trace (the final state's short memory), and the final state."""
    state = AgentState(long_memory=copy.deepcopy(long_memory or {}))

    def step(action: dict, observation: dict) -> None:
        nonlocal state
        state = transition(state, action, observation)

    def tool_step(tool: str, label: dict, observe: Callable[[object], dict], *args):
        """Call one tool fail-soft and record it with ``label`` in its action
        and observation; the observation is ``observe(result)``, or the error
        when the tool raises. Returns the result, or None after an error."""
        try:
            result = getattr(tools, tool)(*args)
            observation = {**label, **observe(result)}
        except Exception as exc:
            result, observation = None, {**label, "error": str(exc)}
        step({"kind": "tool", "tool": tool, **label}, observation)
        return result

    # planning: the fixed node sequence (fatal on failure)
    step({"kind": "tool", "tool": "plan"}, {"nodes": list(NODES)})
    step({"kind": "move", "to": "retrieval"}, {})

    trends = tool_step("fetch_trends", {}, lambda r: {"trends": [asdict(t) for t in r]}) or []
    step({"kind": "move", "to": "filtering"}, {})

    kept: list[TrendSignal] = []
    for trend in trends:
        verdict = tool_step(
            "semantic_filter", {"term": trend.term},
            lambda r: dict(zip(("p", "keep"), r, strict=True)), trend,
        )
        if verdict and verdict[1]:
            kept.append(trend)
    step({"kind": "move", "to": "expansion"}, {})

    expansions: list[tuple[TrendSignal, QueryRecord, str]] = []
    for trend in kept:
        variants = tool_step(
            "expand_query", {"term": trend.term},
            lambda r: {"variants": [{"query": q.to_json(), "pattern": p} for q, p in r]},
            trend, state.long_memory,
        )
        expansions += [(trend, q, pattern) for q, pattern in variants or []]
    step({"kind": "move", "to": "validation"}, {})

    outcomes: list[dict] = []
    emitted: list[dict] = []
    for trend, query, pattern in expansions:
        found = tool_step(
            "content_lookup", {"query": query.text},
            lambda r: dict(zip(("count", "mean_quality", "sufficient"), r, strict=True)),
            query.text,
        )
        accepted = bool(found and found[2] and trend.velocity >= VELOCITY_FLOOR)
        outcomes.append({"term": trend.term, "query": query.text, "pattern": pattern,
                         "velocity": trend.velocity, "accepted": accepted})
        if accepted:
            emitted.append(query.to_json())
    step({"kind": "tool", "tool": "validate"}, {"outcomes": outcomes, "emitted": emitted})
    return list(state.emitted), state.short_memory, state


def replay_trace(trace: list[dict], long_memory: dict[str, dict] | None = None) -> AgentState:
    """Re-apply every traced transition from the initial state. Other record
    keys, such as the ``step`` that `write_trace` adds, are ignored; a record
    whose TRACE_KINDS keys are missing or ill-typed raises AgentError naming
    the step."""
    state = AgentState(long_memory=copy.deepcopy(long_memory or {}))
    for step, record in enumerate(trace):
        try:
            check_json({k: v for k, v in record.items() if k in TRACE_KINDS}
                       if type(record) is dict else record, TRACE_KINDS)
        except ValueError as exc:
            raise AgentError(f"step {step}: bad trace record: {exc}") from exc
        if record["node"] != state.cursor:
            raise AgentError(
                f"step {step}: trace node {record['node']!r} diverges from cursor {state.cursor!r}"
            )
        state = transition(state, record["action"], record["observation"])
    return state


def write_trace(trace: list[dict], path: str | Path) -> None:
    write_jsonl(path, ({"step": i, **record} for i, record in enumerate(trace)))


def save_long_memory(memory: dict[str, dict], path: str | Path) -> None:
    write_text(path, json.dumps(memory, indent=2, sort_keys=True))


def load_long_memory(path: str | Path) -> dict[str, dict]:
    """The saved memory, {} when there is none. A file that is not JSON, or
    not an object of MEMORY_KINDS records by term, raises AgentError naming
    it and the first bad term."""
    p = Path(path)
    return read_json(p, AgentError, {str: MEMORY_KINDS}) if p.exists() else {}
