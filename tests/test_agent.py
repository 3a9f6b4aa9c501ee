"""Trend-mining agent: state transitions, tool behaviors, episode
determinism, trace replay, and memory persistence."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from geoforge import hnsw, synth
from geoforge.agent import (
    LOW_FIT_CATEGORIES,
    AgentConfig,
    AgentError,
    AgentState,
    TrendSignal,
    default_tools,
    load_long_memory,
    make_expand_query,
    make_fetch_trends,
    make_semantic_filter,
    replay_trace,
    run_episode,
    save_long_memory,
    transition,
    write_trace,
)
from geoforge.core import read_jsonl
from geoforge.encoders import EncoderModel
from geoforge.mlp import Mlp


TAXONOMY = list(zip(synth.CLUSTER_TERMS, synth.CLUSTER_CATEGORIES))[:4]


class TestTrendSignal:
    def test_empty_term_rejected(self):
        with pytest.raises(AgentError, match="empty"):
            TrendSignal(term="  ")

    def test_non_finite_velocity_rejected(self):
        with pytest.raises(AgentError, match="not finite"):
            TrendSignal(term="x", velocity=float("nan"))


class TestTransition:
    def test_illegal_move_rejected(self):
        state = AgentState()
        with pytest.raises(AgentError, match="no plan edge"):
            transition(state, {"kind": "move", "to": "validation"}, {})

    def test_impermissible_tool_rejected(self):
        state = AgentState()  # cursor at planning
        with pytest.raises(AgentError, match="not permitted"):
            transition(state, {"kind": "tool", "tool": "expand_query"}, {})

    def test_unknown_action_kind(self):
        with pytest.raises(AgentError, match="unknown action kind"):
            transition(AgentState(), {"kind": "think"}, {})

    def test_original_state_untouched(self):
        state = AgentState()
        new = transition(state, {"kind": "tool", "tool": "plan"}, {"plan": {}})
        assert state.short_memory == [] and len(new.short_memory) == 1

    def test_validation_folds_into_long_memory(self):
        state = AgentState(cursor="validation")
        outcome = {
            "term": "fall nails",
            "query": "fall nails ideas",
            "pattern": "{term} ideas",
            "velocity": 1.5,
            "accepted": True,
        }
        emitted = [{"text": "fall nails ideas", "category": "Description",
                    "language": "en", "embedding": None}]
        new = transition(
            state,
            {"kind": "tool", "tool": "validate"},
            {"outcomes": [outcome], "emitted": emitted},
        )
        record = new.long_memory["fall nails"]
        assert record["accepted"] == 1
        assert record["patterns"] == ["{term} ideas"]
        assert [q.text for q in new.emitted] == ["fall nails ideas"]


class TestTools:
    def test_semantic_filter_low_fit_zero(self):
        semantic_filter = make_semantic_filter(TAXONOMY)
        for category in sorted(LOW_FIT_CATEGORIES):
            p, keep = semantic_filter(
                TrendSignal(term="anything", category=category), 0.1
            )
            assert p == 0.0 and keep is False

    def test_semantic_filter_exact_match(self):
        semantic_filter = make_semantic_filter(TAXONOMY)
        p, keep = semantic_filter(TrendSignal(term=TAXONOMY[0][0]), 0.9)
        assert p == 1.0 and keep is True

    def test_semantic_filter_threshold_range(self):
        semantic_filter = make_semantic_filter(TAXONOMY)
        with pytest.raises(AgentError, match="outside"):
            semantic_filter(TrendSignal(term="x"), 1.5)

    def test_expand_query_deduplicates_and_bounds(self):
        expand = make_expand_query()
        variants = expand(TrendSignal(term="fall nails"), {}, 3)
        texts = [q.text for q, _ in variants]
        assert len(texts) == 3 and len(set(texts)) == 3

    def test_expand_query_prefers_remembered_patterns(self):
        expand = make_expand_query()
        memory = {"fall nails": {"patterns": ["{term} color palette"]}}
        variants = expand(TrendSignal(term="fall nails"), memory, 2)
        assert variants[0][1] == "{term} color palette"

    def test_expand_query_empty_taxonomy(self, small_synth, tmp_path):
        """`default_tools` refuses an empty taxonomy before it builds a tool:
        the trends file, which building `fetch_trends` would read, is absent."""
        corpus, _, config = small_synth
        encoder = EncoderModel(Mlp([(np.eye(config.d_t), np.zeros(config.d_t))]))
        with pytest.raises(AgentError, match="taxonomy is empty"):
            default_tools(
                corpus, hnsw.HnswIndex(dim=config.d_t), encoder, [],
                tmp_path / "absent.jsonl", AgentConfig(),
            )

    def test_fetch_trends_filters_and_sorts(self, tmp_path):
        path = tmp_path / "trends.jsonl"
        rows = [
            {"term": "zzz", "region": "US", "timespan": "7d", "velocity": 1.0},
            {"term": "aaa", "region": "US", "timespan": "7d", "velocity": 1.0},
            {"term": "uk only", "region": "UK", "timespan": "7d", "velocity": 1.0},
            {"term": "stale", "region": "US", "timespan": "30d", "velocity": 1.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        fetched = make_fetch_trends(path)("US", "7d")
        assert [t.term for t in fetched] == ["aaa", "zzz"]

    def test_fetch_trends_record_without_term_names_line(self, tmp_path):
        path = tmp_path / "trends.jsonl"
        rows = [{"term": "aaa", "region": "US"}, {"region": "US", "velocity": 1.0}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(AgentError, match=r"trends\.jsonl:2: missing key 'term'$"):
            make_fetch_trends(path)("US", "7d")

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"term": 5}, r"trend term must be a string, got 5"),
            ({"term": "aaa", "region": None}, r"trend region must be a string, got None"),
            ({"term": "aaa", "velocity": "fast"},
             r"velocity for 'aaa' must be a number, got 'fast'"),
            ({"term": "aaa", "velocity": True}, r"velocity for 'aaa' must be a number, got True"),
            ({"term": "aaa", "velocity": float("nan")}, r"velocity for 'aaa' is not finite"),
            ({"term": "aaa", "speed": 1.0}, r"unknown key 'speed'"),
        ],
    )
    def test_fetch_trends_ill_typed_record_names_line(self, tmp_path, record, message):
        path = tmp_path / "trends.jsonl"
        rows = [{"term": "zzz", "velocity": 2}, record]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(AgentError, match=rf"trends\.jsonl:2: {message}$"):
            make_fetch_trends(path)

    def test_fetch_trends_empty_file_names_path(self, tmp_path):
        path = tmp_path / "trends.jsonl"
        path.write_text("\n")
        with pytest.raises(AgentError, match=r"trends\.jsonl: no trend records"):
            make_fetch_trends(path)

    def test_fetch_trends_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "trends.jsonl"
        path.write_text('{"term": "aaa", "region": "US"}\n[1, 2\n')
        with pytest.raises(AgentError, match=r"trends\.jsonl:2: malformed JSON"):
            make_fetch_trends(path)("US", "7d")


@pytest.fixture(scope="module")
def episode_setup(request, tmp_path_factory):
    corpus, _, config = request.getfixturevalue("small_synth")
    encoder = EncoderModel(Mlp([(np.eye(config.d_t), np.zeros(config.d_t))]))
    vectors = {
        sig: encoder.encode(pin.text_embedding) for sig, pin in corpus.pins.items()
    }
    index = hnsw.build(vectors, seed=6)
    trends_path = tmp_path_factory.mktemp("agent") / "trends.jsonl"
    rows = [
        {"term": TAXONOMY[0][0], "region": "US", "timespan": "7d",
         "velocity": 2.0, "category": TAXONOMY[0][1]},
        {"term": TAXONOMY[1][0], "region": "US", "timespan": "7d",
         "velocity": 0.05, "category": TAXONOMY[1][1]},  # below velocity floor
        {"term": "election results", "region": "US", "timespan": "7d",
         "velocity": 3.0, "category": "news"},
        {"term": "playoff scores", "region": "US", "timespan": "7d",
         "velocity": 3.0, "category": "sports"},
    ]
    trends_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    agent_config = AgentConfig(min_count=5, expansions_per_trend=2)
    tools = default_tools(corpus, index, encoder, TAXONOMY, trends_path, agent_config)
    return agent_config, tools


class TestEpisode:
    def test_emits_only_validated_queries(self, episode_setup):
        agent_config, tools = episode_setup
        emitted, trace, state = run_episode(agent_config, tools, {})
        assert emitted, "expected at least one validated query"
        outcomes = next(
            step["observation"]["outcomes"]
            for step in trace
            if step["action"].get("tool") == "validate"
        )
        accepted = [o["query"] for o in outcomes if o["accepted"]]
        assert [q.text for q in emitted] == accepted
        # the below-floor trend never produces an accepted outcome
        assert all(o["velocity"] >= agent_config.velocity_floor
                   for o in outcomes if o["accepted"])

    def test_low_fit_never_reaches_expansion(self, episode_setup):
        agent_config, tools = episode_setup
        _, trace, _ = run_episode(agent_config, tools, {})
        expanded = {
            step["action"]["term"]
            for step in trace
            if step["node"] == "expansion"
            and step["action"].get("tool") == "expand_query"
        }
        assert expanded.isdisjoint({"election results", "playoff scores"})

    def test_deterministic_and_replayable(self, episode_setup):
        agent_config, tools = episode_setup
        emitted_a, trace_a, state_a = run_episode(agent_config, tools, {})
        emitted_b, trace_b, _ = run_episode(agent_config, tools, {})
        assert json.dumps(trace_a, sort_keys=True) == json.dumps(trace_b, sort_keys=True)
        replayed = replay_trace(trace_a, {})
        assert replayed.cursor == state_a.cursor
        assert replayed.long_memory == state_a.long_memory
        assert [q.to_json() for q in replayed.emitted] == [
            q.to_json() for q in state_a.emitted
        ]

    def test_replay_rejects_diverged_trace(self, episode_setup):
        agent_config, tools = episode_setup
        _, trace, _ = run_episode(agent_config, tools, {})
        trace[0]["node"] = "validation"
        with pytest.raises(AgentError, match="diverges"):
            replay_trace(trace, {})

    @pytest.mark.parametrize("tool, key", [
        ("fetch_trends", "region"),
        ("semantic_filter", "term"),
        ("expand_query", "term"),
        ("content_lookup", "query"),
    ])
    def test_failing_tool_is_recorded_and_the_episode_goes_on(self, episode_setup, tool, key):
        agent_config, tools = episode_setup

        def broken(*args):
            raise RuntimeError(f"{tool} is down")

        _, trace, state = run_episode(agent_config, dataclasses.replace(tools, **{tool: broken}), {})
        calls = [step for step in trace if step["action"].get("tool") == tool]
        assert calls
        for step in calls:
            assert step["action"] == {"kind": "tool", "tool": tool, key: step["action"][key]}
            assert step["observation"] == {key: step["action"][key], "error": f"{tool} is down"}
        assert state.cursor == "validation"
        assert trace[-1]["action"] == {"kind": "tool", "tool": "validate"}
        if tool == "content_lookup":
            outcomes = trace[-1]["observation"]["outcomes"]
            assert outcomes and not any(o["accepted"] for o in outcomes)
            assert state.emitted == []

    def test_long_memory_feeds_next_episode(self, episode_setup):
        agent_config, tools = episode_setup
        _, _, state = run_episode(agent_config, tools, {})
        _, _, second = run_episode(agent_config, tools, state.long_memory)
        term = TAXONOMY[0][0]
        assert second.long_memory[term]["accepted"] >= state.long_memory[term]["accepted"]


class TestPersistence:
    def test_trace_roundtrip(self, episode_setup, tmp_path):
        agent_config, tools = episode_setup
        _, trace, state = run_episode(agent_config, tools, {})
        path = tmp_path / "agent_trace.jsonl"
        write_trace(trace, path)
        replayed = replay_trace([obj for _, obj in read_jsonl(path)], {})
        assert replayed.cursor == state.cursor == "validation"
        assert replayed.long_memory == state.long_memory
        assert [q.to_json() for q in replayed.emitted] == [q.to_json() for q in state.emitted]
        assert json.dumps(replayed.short_memory, sort_keys=True) == json.dumps(
            state.short_memory, sort_keys=True
        )

    def test_long_memory_roundtrip(self, tmp_path):
        memory = {"term": {"accepted": 2, "rejected": 0, "last_velocity": 1.0,
                           "patterns": ["{term} ideas"]}}
        path = tmp_path / "memory.json"
        save_long_memory(memory, path)
        assert load_long_memory(path) == memory

    def test_missing_long_memory_empty(self, tmp_path):
        assert load_long_memory(tmp_path / "absent.json") == {}

    @pytest.mark.parametrize("text", ['{"a": ', "[1, 2]", '{"a": 1}'])
    def test_bad_long_memory_names_file(self, tmp_path, text):
        path = tmp_path / "memory.json"
        path.write_text(text)
        with pytest.raises(AgentError, match="memory.json"):
            load_long_memory(path)
