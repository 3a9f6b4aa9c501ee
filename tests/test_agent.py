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
    VELOCITY_FLOOR,
    AgentError,
    AgentState,
    TrendSignal,
    default_tools,
    expand_query,
    load_long_memory,
    make_content_lookup,
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


OUTCOME = {"term": "fall nails", "query": "fall nails ideas", "pattern": "{term} ideas",
           "velocity": 1.5, "accepted": True}


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

    @pytest.mark.parametrize("action, observation", [("move", {}), ({"kind": "move"}, None)])
    def test_non_object_action_or_observation_rejected(self, action, observation):
        with pytest.raises(AgentError, match="^step 0: action and observation must be objects$"):
            transition(AgentState(), action, observation)

    def test_unhashable_tool_rejected(self):
        with pytest.raises(AgentError, match=r"^step 0: action \['plan'\] not permitted"):
            transition(AgentState(), {"kind": "tool", "tool": ["plan"]}, {})

    def test_original_state_untouched(self):
        state = AgentState()
        new = transition(state, {"kind": "tool", "tool": "plan"}, {"plan": {}})
        assert state.short_memory == [] and len(new.short_memory) == 1

    def test_validation_folds_into_long_memory(self):
        state = AgentState(cursor="validation")
        emitted = [{"text": "fall nails ideas", "category": "Description",
                    "language": "en", "embedding": None}]
        new = transition(
            state,
            {"kind": "tool", "tool": "validate"},
            {"outcomes": [OUTCOME], "emitted": emitted},
        )
        record = new.long_memory["fall nails"]
        assert record["accepted"] == 1
        assert record["patterns"] == ["{term} ideas"]
        assert [q.text for q in new.emitted] == ["fall nails ideas"]

    @pytest.mark.parametrize("observation, message", [
        ({"outcomes": [{k: v for k, v in OUTCOME.items() if k != "accepted"}], "emitted": []},
         "missing key 'accepted'"),
        ({"outcomes": [{**OUTCOME, "accepted": 1}], "emitted": []},
         "key 'accepted' has ill-typed value 1"),
        ({"outcomes": [{**OUTCOME, "velocity": "fast"}], "emitted": []},
         "key 'velocity' has ill-typed value 'fast'"),
        ({"outcomes": {}, "emitted": []}, "key 'outcomes' has ill-typed value {}"),
        ({"outcomes": []}, "missing key 'emitted'"),
        ({"outcomes": [], "emitted": [{"text": "x", "category": "Bogus"}]}, "category 'Bogus'"),
        ({"outcomes": [], "emitted": [{"text": 5, "category": "UseCase"}]},
         "key 'text' has ill-typed value 5"),
    ])
    def test_bad_validate_observation_names_the_step(self, observation, message):
        state = AgentState(cursor="validation", short_memory=[{}] * 7)
        with pytest.raises(AgentError, match=rf"^step 7: bad validate observation: .*{message}"):
            transition(state, {"kind": "tool", "tool": "validate"}, observation)

    @pytest.mark.parametrize("memory", [
        {"fall nails": {}},
        {"fall nails": {"accepted": "1", "rejected": 0, "last_velocity": 0.0, "patterns": []}},
        {"other": {"accepted": 0, "rejected": 0, "last_velocity": 0.0}},
    ])
    def test_bad_long_memory_names_the_step(self, memory):
        """A validate step folds only into long memory of MEMORY_KINDS records."""
        state = AgentState(cursor="validation", short_memory=[{}] * 7, long_memory=memory)
        with pytest.raises(AgentError, match=r"^step 7: bad long memory: "):
            transition(state, {"kind": "tool", "tool": "validate"},
                       {"outcomes": [OUTCOME], "emitted": []})


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
        variants = expand_query(TrendSignal(term="fall nails"), {}, 3)
        texts = [q.text for q, _ in variants]
        assert len(texts) == 3 and len(set(texts)) == 3

    def test_expand_query_prefers_remembered_patterns(self):
        memory = {"fall nails": {"patterns": ["{term} color palette"]}}
        variants = expand_query(TrendSignal(term="fall nails"), memory, 2)
        assert variants[0][1] == "{term} color palette"

    def test_expand_query_empty_taxonomy(self, small_synth, tmp_path):
        """`default_tools` refuses an empty taxonomy before it builds a tool:
        the trends file, which building `fetch_trends` would read, is absent."""
        corpus, _, config = small_synth
        encoder = EncoderModel(Mlp([(np.eye(config.d_t), np.zeros(config.d_t))]))
        with pytest.raises(AgentError, match="taxonomy is empty"):
            default_tools(
                corpus, hnsw.HnswIndex(dim=config.d_t), encoder, [],
                tmp_path / "absent.jsonl", 25,
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
            ({"term": 5}, r"key 'term' has ill-typed value 5"),
            ({"term": "aaa", "region": None}, r"key 'region' has ill-typed value None"),
            ({"term": "aaa", "velocity": "fast"}, r"key 'velocity' has ill-typed value 'fast'"),
            ({"term": "aaa", "velocity": True}, r"key 'velocity' has ill-typed value True"),
            ({"term": "aaa", "velocity": float("nan")}, r"key 'velocity' has ill-typed value nan"),
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
def episode_tools(request, tmp_path_factory):
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
    return default_tools(corpus, index, encoder, TAXONOMY, trends_path, 5)


class TestEpisode:
    def test_emits_only_validated_queries(self, episode_tools):
        emitted, trace, state = run_episode(episode_tools, {})
        assert emitted, "expected at least one validated query"
        outcomes = next(
            step["observation"]["outcomes"]
            for step in trace
            if step["action"].get("tool") == "validate"
        )
        accepted = [o["query"] for o in outcomes if o["accepted"]]
        assert [q.text for q in emitted] == accepted
        # the below-floor trend never produces an accepted outcome
        assert all(o["velocity"] >= VELOCITY_FLOOR
                   for o in outcomes if o["accepted"])

    def test_low_fit_never_reaches_expansion(self, episode_tools):
        _, trace, _ = run_episode(episode_tools, {})
        expanded = {
            step["action"]["term"]
            for step in trace
            if step["node"] == "expansion"
            and step["action"].get("tool") == "expand_query"
        }
        assert expanded.isdisjoint({"election results", "playoff scores"})

    def test_deterministic_and_replayable(self, episode_tools):
        emitted_a, trace_a, state_a = run_episode(episode_tools, {})
        emitted_b, trace_b, _ = run_episode(episode_tools, {})
        assert json.dumps(trace_a, sort_keys=True) == json.dumps(trace_b, sort_keys=True)
        replayed = replay_trace(trace_a, {})
        assert replayed.cursor == state_a.cursor
        assert replayed.long_memory == state_a.long_memory
        assert [q.to_json() for q in replayed.emitted] == [
            q.to_json() for q in state_a.emitted
        ]

    def test_replay_rejects_diverged_trace(self, episode_tools):
        _, trace, _ = run_episode(episode_tools, {})
        trace[0]["node"] = "validation"
        with pytest.raises(AgentError, match="diverges"):
            replay_trace(trace, {})

    @pytest.mark.parametrize("step, record, message", [
        (0, {"action": {}}, "missing key 'node'"),
        (0, "planning", "expected a JSON object, got str"),
        (1, {"node": "planning", "action": {"kind": "move", "to": "retrieval"}},
         "missing key 'observation'"),
        (1, {"node": 1, "action": {}, "observation": {}}, "key 'node' has ill-typed value 1"),
        (1, {"node": "planning", "action": [], "observation": {}},
         "key 'action' has ill-typed value \\[\\]"),
    ])
    def test_replay_rejects_damaged_record_naming_the_step(self, episode_tools, step, record, message):
        _, trace, _ = run_episode(episode_tools, {})
        trace[step] = record
        with pytest.raises(AgentError, match=rf"^step {step}: bad trace record: {message}$"):
            replay_trace(trace, {})

    def test_replay_rejects_damaged_validate_step(self, episode_tools):
        _, trace, _ = run_episode(episode_tools, {})
        del trace[-1]["observation"]["outcomes"][0]["accepted"]
        with pytest.raises(AgentError, match=rf"^step {len(trace) - 1}: .*missing key 'accepted'$"):
            replay_trace(trace, {})

    @pytest.mark.parametrize("tool, key", [
        ("fetch_trends", "region"),
        ("semantic_filter", "term"),
        ("expand_query", "term"),
        ("content_lookup", "query"),
    ])
    def test_failing_tool_is_recorded_and_the_episode_goes_on(self, episode_tools, tool, key):

        def broken(*args):
            raise RuntimeError(f"{tool} is down")

        _, trace, state = run_episode(dataclasses.replace(episode_tools, **{tool: broken}), {})
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

    def test_bad_long_memory_fails_the_episode_and_its_replay(self, episode_tools):
        _, trace, _ = run_episode(episode_tools, {})
        memory = {TAXONOMY[0][0]: {"accepted": 1}}
        with pytest.raises(AgentError, match=rf"^step {len(trace) - 1}: bad long memory: "):
            run_episode(episode_tools, memory)
        with pytest.raises(AgentError, match=rf"^step {len(trace) - 1}: bad long memory: "):
            replay_trace(trace, memory)

    def test_long_memory_feeds_next_episode(self, episode_tools):
        _, _, state = run_episode(episode_tools, {})
        _, _, second = run_episode(episode_tools, state.long_memory)
        term = TAXONOMY[0][0]
        assert second.long_memory[term]["accepted"] >= state.long_memory[term]["accepted"]


@pytest.fixture(scope="module")
def forty_pins():
    """A 40-pin corpus, the identity text encoder, and each pin's encoded
    text vector by signature."""
    corpus, _ = synth.generate_corpus(synth.SynthConfig(
        n_pins=40, n_clusters=4, d_v=8, d_t=8, queries_per_cluster=4, engagement_per_pin=1, seed=3))
    encoder = EncoderModel(Mlp([(np.eye(8), np.zeros(8))]))
    return corpus, encoder, {sig: encoder.encode(pin.text_embedding) for sig, pin in corpus.pins.items()}


class TestContentLookup:
    FOREIGN = 10**6  # added to a signature, an id no corpus pin has

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_index_of_other_ids_finds_nothing(self, forty_pins):
        """Hits on an index over other ids count as no hits: a finite
        (0, 0.0, min_count <= 0), never a mean over nothing."""
        corpus, encoder, vectors = forty_pins
        index = hnsw.build({sig + self.FOREIGN: v for sig, v in vectors.items()}, seed=1)
        assert not set(index.stored_vectors()[0]) & set(corpus.pins)
        text = corpus.queries[0].text
        assert make_content_lookup(corpus, index, encoder, 5)(text) == (0, 0.0, False)
        assert make_content_lookup(corpus, index, encoder, 0)(text) == (0, 0.0, True)

    def test_only_corpus_pins_count(self, forty_pins):
        """Adding other ids to the index changes no lookup."""
        corpus, encoder, vectors = forty_pins
        foreign = {sig + self.FOREIGN: v for sig, v in vectors.items()}
        own = make_content_lookup(corpus, hnsw.build(vectors, seed=1), encoder, 5)
        mixed = make_content_lookup(corpus, hnsw.build({**vectors, **foreign}, seed=1), encoder, 5)
        for query in corpus.queries:
            assert mixed(query.text) == own(query.text)
        assert any(own(query.text)[0] for query in corpus.queries)


class TestPersistence:
    def test_trace_roundtrip(self, episode_tools, tmp_path):
        _, trace, state = run_episode(episode_tools, {})
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

    @pytest.mark.parametrize("text", [
        '{"a": ', "[1, 2]", '{"a": 1}',
        '{"fall nails": {"accepted": "x", "rejected": 0, "last_velocity": 1.0, "patterns": []}}',
    ])
    def test_bad_long_memory_names_file(self, tmp_path, text):
        """A bad record names its term."""
        path = tmp_path / "memory.json"
        path.write_text(text)
        with pytest.raises(AgentError, match=r"memory\.json: (malformed JSON|expected a JSON "
                           r"object|key '(a|fall nails)' has ill-typed value)"):
            load_long_memory(path)
