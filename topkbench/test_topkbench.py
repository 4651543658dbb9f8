"""Self-test of the benchmark's checks and runner, at toy scale.

    PYTHONPATH=src python3 -m pytest topkbench -q

The checks must pass right answers and reject deliberately wrong ones;
every workload must run end to end in seconds, print every metric
``BENCHMARK.json`` declares, and repeat its per-layer counts exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
from common import BENCH_DIR, ROOT, WORKLOADS, ensure_src
from report import END_TO_END, PER_LAYER, is_count

ensure_src()

from repro.core.incremental import IncrementalTopK  # noqa: E402
from repro.core.rank_query import (  # noqa: E402
    thresholded_rank_query,
    topk_rank_query,
)
from repro.core.topk import topk_count_query  # noqa: E402
from repro.experiments.harness import citation_pipeline  # noqa: E402
from repro.experiments.storage_scale import (  # noqa: E402
    bench_levels,
    synthetic_events,
)
from repro.uncertainty.query import topk_interval_query  # noqa: E402

K = 5


@pytest.fixture(scope="module")
def toy():
    pipeline = citation_pipeline(n_records=300, seed=3)
    oracle = checks.Oracle(pipeline.store, pipeline.levels, pipeline.scorer)
    return pipeline, oracle


def _drop_member(groups):
    """Drop one member of the heaviest multi-record group."""
    index = max(
        (i for i, g in enumerate(groups) if len(g[0]) > 1),
        key=lambda i: groups[i][1],
    )
    members, weight, rep = groups[index]
    dropped = sorted(members - {rep})[0]
    return groups[:index] + [(members - {dropped}, weight, rep)] + groups[
        index + 1:
    ]


def _merge_pair(groups):
    """Merge the two heaviest groups into one."""
    ordered = sorted(groups, key=lambda g: -g[1])
    (m1, w1, r1), (m2, w2, _) = ordered[:2]
    return [(m1 | m2, w1 + w2, r1)] + ordered[2:]


def _perturb(groups, factor):
    ordered = sorted(groups, key=lambda g: -g[1])
    members, weight, rep = ordered[0]
    return [(members, weight * factor, rep)] + ordered[1:]


class TestCountCheck:
    def test_right_answer_passes(self, toy):
        pipeline, oracle = toy
        for r in (1, 3):
            result = topk_count_query(
                pipeline.store, K, pipeline.levels, pipeline.scorer, r=r
            )
            assert checks.check_count(
                checks.answers_of(result),
                checks.groups_of(result.pruning.groups),
                oracle, K, r,
            ) == []

    @pytest.mark.parametrize("mutate", ["drop", "merge", "weight"])
    def test_wrong_answer_fails(self, toy, mutate):
        pipeline, oracle = toy
        result = topk_count_query(
            pipeline.store, K, pipeline.levels, pipeline.scorer
        )
        answers = checks.answers_of(result)
        retained = checks.groups_of(result.pruning.groups)
        if mutate == "drop":
            answers = [_drop_member(answers[0])]
            retained = _drop_member(retained)
        elif mutate == "merge":
            answers = [_merge_pair(answers[0])]
            retained = _merge_pair(retained)
        else:
            answers = [_perturb(answers[0], 1 + 1e-6)]
            retained = _perturb(retained, 1 + 1e-6)
        assert checks.check_count(answers, retained, oracle, K, 1)
        assert checks.check_retention(retained, oracle, K)


class TestRankAndThresholdChecks:
    def test_rank(self, toy):
        pipeline, oracle = toy
        result = topk_rank_query(pipeline.store, K, pipeline.levels)
        ranking = checks.ranking_of(result)
        retained = checks.groups_of(result.groups)
        assert checks.check_rank(ranking, retained, oracle, K) == []
        wrong = [(rep, w * (1 + 1e-6)) for rep, w in ranking]
        assert checks.check_rank(wrong, retained, oracle, K)
        assert checks.check_rank(ranking, _drop_member(retained), oracle, K)

    def test_threshold(self, toy):
        pipeline, oracle = toy
        threshold = oracle.kth_weight(K)
        result = thresholded_rank_query(
            pipeline.store, threshold, pipeline.levels
        )
        retained = checks.groups_of(result.groups)
        assert checks.check_threshold(
            retained, result.certain, oracle, threshold
        ) == []
        for wrong in (_drop_member(retained), _merge_pair(retained)):
            assert checks.check_threshold(
                wrong, result.certain, oracle, threshold
            )


class TestIntervalCheck:
    def test_interval(self, toy):
        pipeline, oracle = toy
        result = topk_interval_query(
            pipeline.store, K, pipeline.levels, pipeline.scorer, r=8
        )
        entities = checks.intervals_of(result)
        retained = checks.groups_of(result.pruning.groups)
        args = (retained, oracle, K, 8, result.worlds_enumerated)
        assert checks.check_interval(entities, *args) == []
        inverted = [dict(e) for e in entities]
        inverted[0]["count_lo"] = inverted[0]["count_hi"] + 1.0
        assert checks.check_interval(inverted, *args)
        assert checks.check_interval(
            entities, _drop_member(retained), *args[1:]
        )


class TestServedCheck:
    def test_served(self):
        events = list(synthetic_events(300, seed=2))
        engine = IncrementalTopK(bench_levels())
        for fields, weight in events:
            engine.add(fields, weight)
        served = checks.top_groups(engine.query(K).groups, K)
        assert checks.check_served(served, [dict(g) for g in served]) == []
        for key, value in (
            ("weight", served[0]["weight"] * (1 + 1e-12)),
            ("size", served[0]["size"] - 1),
            ("representative_id", served[0]["representative_id"] + 1),
        ):
            wrong = [dict(g) for g in served]
            wrong[0][key] = value
            assert checks.check_served(wrong, served)


# -- runner ------------------------------------------------------------------


def _run(workload, trace, seed=7, cwd=ROOT):
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "3",
            "--trace", str(trace), "--scale", "0.1",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_report():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [
        name for name, _, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {name: unit for name, unit, _ in END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert first["correct"] and first["failed"] == 0
    assert {
        name: entry["unit"] for name, entry in first["metrics"].items()
    } == {name: unit for name, unit, _ in PER_LAYER}
    counts = [name for name, _, _ in PER_LAYER if is_count(name)]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
            "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_self_time_excludes_children():
    from tracing import layer_self_by_op

    spans = [
        {"id": 0, "op": 0, "name": "topk", "start": 0.0, "end": 10.0,
         "parent": None},
        {"id": 1, "op": 0, "name": "query", "start": 1.0, "end": 9.0,
         "parent": 0},
        {"id": 2, "op": 0, "name": "prune", "start": 2.0, "end": 6.0,
         "parent": 1},
        {"id": 3, "op": 0, "name": "segment_dp", "start": 6.0, "end": 8.0,
         "parent": 1},
    ]
    layers = layer_self_by_op(spans)[0]["layers"]
    assert layers == pytest.approx(
        {"other.self_s": 4.0, "prune.self_s": 4.0, "segment.self_s": 2.0}
    )

