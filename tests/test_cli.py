"""Tests for the CSV command-line interface."""

import csv

import pytest

from repro.cli import build_parser, generic_levels, generic_scorer, load_csv, main


@pytest.fixture
def mentions_csv(tmp_path):
    path = tmp_path / "mentions.csv"
    rows = [
        ("ann smith", "2"),
        ("ann smith", "3"),
        ("a smith", "1"),
        ("bob jones", "4"),
        ("bob jones", "1"),
        ("cara lee", "2"),
    ]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "count"])
        writer.writerows(rows)
    return str(path)


class TestLoadCsv:
    def test_loads_fields_and_weights(self, mentions_csv):
        store = load_csv(mentions_csv, "name", "count")
        assert len(store) == 6
        assert store[0]["name"] == "ann smith"
        assert store[3].weight == 4.0

    def test_default_weights(self, mentions_csv):
        store = load_csv(mentions_csv, "name", None)
        assert store.total_weight() == 6.0

    def test_missing_column(self, mentions_csv):
        with pytest.raises(ValueError):
            load_csv(mentions_csv, "nope", None)

    def test_missing_weight_column(self, mentions_csv):
        with pytest.raises(ValueError):
            load_csv(mentions_csv, "name", "nope")

    def test_bad_weight_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,w\nann,notanumber\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(str(path), "name", "w")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("name\n")
        with pytest.raises(ValueError):
            load_csv(str(path), "name", None)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        # float() happily parses these, but a nan/inf weight silently
        # poisons every weight sum and bound downstream.
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"name,w\nann,{bad}\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(str(path), "name", "w")

    def test_finite_weights_still_accepted(self, tmp_path):
        path = tmp_path / "fine.csv"
        path.write_text("name,w\nann,2.5\nbob,1e3\n")
        store = load_csv(str(path), "name", "w")
        assert store.total_weight() == 1002.5


class TestCommands:
    def test_topk(self, mentions_csv, capsys):
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--weight-field",
                "count",
                "--k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ann smith" in out
        assert "bob jones" in out
        assert "cara lee" not in out

    def test_topk_multiple_answers(self, mentions_csv, capsys):
        main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--weight-field",
                "count",
                "--k",
                "2",
                "--r",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "answer #1" in out
        assert "answer #2" in out

    def test_rank(self, mentions_csv, capsys):
        code = main(
            [
                "rank",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--weight-field",
                "count",
                "--k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "u<=" in out

    def test_threshold(self, mentions_csv, capsys):
        code = main(
            [
                "threshold",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--weight-field",
                "count",
                "--min-weight",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bob jones" in out
        assert "cara lee" not in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGenericComponents:
    def test_levels_shape(self):
        levels = generic_levels("name", 0.6)
        assert len(levels) == 1
        assert levels[0].sufficient.key_implies_match

    def test_scorer_signs(self):
        from repro.core.records import RecordStore

        scorer = generic_scorer("name", bias=-3.0)
        a, b, c = RecordStore.from_rows(
            [{"name": "ann smith"}, {"name": "ann smith"}, {"name": "zed qux"}]
        )
        assert scorer.score(a, b) > 0
        assert scorer.score(a, c) < 0


class TestGenerate:
    def test_generate_citations(self, tmp_path, capsys):
        out = tmp_path / "cite.csv"
        code = main(
            [
                "generate",
                "--kind",
                "citations",
                "--n",
                "100",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101
        header = lines[0].split(",")
        assert "author" in header
        assert "weight" in header
        assert "gold_entity" in header

    def test_generate_then_query_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "students.csv"
        main(
            [
                "generate",
                "--kind",
                "students",
                "--n",
                "150",
                "--seed",
                "2",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "topk",
                "--input",
                str(out),
                "--field",
                "name",
                "--weight-field",
                "weight",
                "--k",
                "3",
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) >= 3

    def test_generate_all_kinds(self, tmp_path):
        for kind in ("citations", "students", "addresses", "restaurants"):
            out = tmp_path / f"{kind}.csv"
            assert (
                main(
                    [
                        "generate",
                        "--kind",
                        kind,
                        "--n",
                        "60",
                        "--output",
                        str(out),
                    ]
                )
                == 0
            )
            assert out.exists()


class TestStatsFlag:
    def _args(self, command, mentions_csv, *extra):
        return [
            command,
            "--input",
            mentions_csv,
            "--field",
            "name",
            "--weight-field",
            "count",
            "--stats",
            *extra,
        ]

    def test_topk_stats_to_stderr(self, mentions_csv, capsys):
        code = main(self._args("topk", mentions_csv, "--k", "2"))
        assert code == 0
        captured = capsys.readouterr()
        assert "verification stats" in captured.err
        assert "evals=" in captured.err
        assert "builds=" in captured.err
        assert "lower_bound" in captured.err
        # The report must not pollute the answer on stdout.
        assert "verification stats" not in captured.out

    def test_rank_stats(self, mentions_csv, capsys):
        code = main(self._args("rank", mentions_csv, "--k", "2"))
        assert code == 0
        err = capsys.readouterr().err
        assert "verification stats" in err
        # One line per predicate level, as for topk.
        assert "  cli-generic  evals=" in err

    def test_threshold_stats(self, mentions_csv, capsys):
        code = main(self._args("threshold", mentions_csv, "--min-weight", "5"))
        assert code == 0
        err = capsys.readouterr().err
        assert "verification stats" in err
        assert "  cli-generic  evals=" in err

    def test_no_stats_by_default(self, mentions_csv, capsys):
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--k",
                "2",
            ]
        )
        assert code == 0
        assert "verification stats" not in capsys.readouterr().err


class TestErrorExitCodes:
    """Operator mistakes exit 2 with one ``error:`` line, no traceback."""

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["topk", "--input", str(tmp_path / "nope.csv"), "--field", "name"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_column(self, mentions_csv, capsys):
        code = main(["topk", "--input", mentions_csv, "--field", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope" in err

    def test_non_finite_weight(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("name,w\nann,1\nbob,inf\n")
        code = main(
            [
                "topk",
                "--input",
                str(path),
                "--field",
                "name",
                "--weight-field",
                "w",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "row 2" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_min_weight(self, mentions_csv, bad, capsys):
        code = main(
            [
                "threshold",
                "--input",
                mentions_csv,
                "--field",
                "name",
                f"--min-weight={bad}",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "must be finite" in captured.err
        assert captured.out == ""

    def test_checkpoint_every_requires_state_dir(self, mentions_csv, capsys):
        code = main(
            [
                "stream",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--checkpoint-every",
                "5",
            ]
        )
        assert code == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_restore_without_state(self, tmp_path, capsys):
        code = main(
            [
                "restore",
                "--state-dir",
                str(tmp_path / "void"),
                "--field",
                "name",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        ("spec", "key"),
        [
            ('{"worker_crash_rate": 0.1}', "worker_crash_rate"),
            ('{"bogus": 1}', "bogus"),
            ('{"error_rate": 0.1}', "error_rate"),
        ],
    )
    def test_fault_plane_unknown_key(self, spec, key, capsys, monkeypatch):
        # A stored spec naming a rate the plane no longer has (or never
        # had) must not crash `serve` with a TypeError traceback.
        # Predicate fault rates are wrap_levels arguments, and serve
        # never wraps its levels, so it refuses them too.
        monkeypatch.setenv("REPRO_FAULT_PLANE", spec)
        code = main(["serve", "--field", "name", "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert key in err


class TestInterrupt:
    """Ctrl-C exits with the conventional 128+SIGINT code, no traceback."""

    def test_keyboard_interrupt_exits_130(self, mentions_csv, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.run_topk", interrupted)
        code = main(["topk", "--input", mentions_csv, "--field", "name"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestStream:
    def _stream_args(self, mentions_csv, *extra):
        return [
            "stream",
            "--input",
            mentions_csv,
            "--field",
            "name",
            "--weight-field",
            "count",
            "--k",
            "2",
            *extra,
        ]

    def test_in_memory_stream(self, mentions_csv, capsys):
        code = main(self._stream_args(mentions_csv))
        assert code == 0
        out = capsys.readouterr().out
        assert "ann smith" in out
        assert "bob jones" in out
        assert "cara lee" not in out

    def test_durable_stream_resumes_across_runs(
        self, mentions_csv, tmp_path, capsys
    ):
        state = str(tmp_path / "state")
        code = main(
            self._stream_args(
                mentions_csv, "--state-dir", state, "--checkpoint-every", "4"
            )
        )
        assert code == 0
        assert "5.00" in capsys.readouterr().out
        # A second run restores the first run's state and doubles the
        # group weights by feeding the same CSV again.
        code = main(self._stream_args(mentions_csv, "--state-dir", state))
        assert code == 0
        captured = capsys.readouterr()
        assert "10.00" in captured.out
        assert "restored from" in captured.err

    def test_durable_stream_without_checkpoint_recovers_from_wal(
        self, mentions_csv, tmp_path, capsys
    ):
        state = str(tmp_path / "state")
        assert main(self._stream_args(mentions_csv, "--state-dir", state)) == 0
        capsys.readouterr()
        code = main(["restore", "--state-dir", state, "--field", "name"])
        assert code == 0
        captured = capsys.readouterr()
        assert "state ok" in captured.out
        assert "6 entries" in captured.out
        assert "no checkpoint" in captured.err

    def test_checkpoint_verb_snapshots_state(
        self, mentions_csv, tmp_path, capsys
    ):
        state = str(tmp_path / "state")
        assert main(self._stream_args(mentions_csv, "--state-dir", state)) == 0
        capsys.readouterr()
        code = main(["checkpoint", "--state-dir", state, "--field", "name"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("checkpoint")
        assert "6 entries" in out
        code = main(["restore", "--state-dir", state, "--field", "name"])
        assert code == 0
        captured = capsys.readouterr()
        assert "state ok" in captured.out
        assert "restored from checkpoint" in captured.err

    def test_stream_stats_flag(self, mentions_csv, capsys):
        code = main(self._stream_args(mentions_csv, "--stats"))
        assert code == 0
        captured = capsys.readouterr()
        assert "verification stats" in captured.err
        assert "verification stats" not in captured.out


class TestResilienceFlags:
    def _base(self, command, mentions_csv, *extra):
        return [
            command,
            "--input",
            mentions_csv,
            "--field",
            "name",
            "--weight-field",
            "count",
            *extra,
        ]

    def test_policy_from_args(self, mentions_csv):
        from repro.cli import policy_from_args

        args = build_parser().parse_args(
            self._base("rank", mentions_csv, "--k", "2")
        )
        assert policy_from_args(args) is None
        args = build_parser().parse_args(
            self._base("rank", mentions_csv, "--k", "2", "--deadline", "5.0")
        )
        policy = policy_from_args(args)
        assert policy.deadline_seconds == 5.0
        assert policy.on_error == "degrade"
        args = build_parser().parse_args(
            self._base(
                "rank", mentions_csv, "--k", "2", "--on-predicate-error", "raise"
            )
        )
        assert policy_from_args(args).on_error == "raise"

    def test_generous_deadline_leaves_answer_unchanged(self, mentions_csv, capsys):
        code = main(self._base("topk", mentions_csv, "--k", "2"))
        assert code == 0
        plain = capsys.readouterr().out
        code = main(
            self._base("topk", mentions_csv, "--k", "2", "--deadline", "60")
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "DEGRADED" not in captured.err

    def test_expired_deadline_warns_degraded(self, mentions_csv, capsys):
        code = main(
            self._base("topk", mentions_csv, "--k", "2", "--deadline", "0")
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.err
        assert "deadline" in captured.err
        # Still prints a (best-effort) answer on stdout.
        assert captured.out.strip()

    def test_rank_and_threshold_accept_deadline(self, mentions_csv, capsys):
        assert (
            main(
                self._base(
                    "rank", mentions_csv, "--k", "2", "--deadline", "0"
                )
            )
            == 0
        )
        assert "DEGRADED" in capsys.readouterr().err
        assert (
            main(
                self._base(
                    "threshold",
                    mentions_csv,
                    "--min-weight",
                    "5",
                    "--deadline",
                    "0",
                )
            )
            == 0
        )
        assert "DEGRADED" in capsys.readouterr().err


class TestObservabilityFlags:
    def run_topk(self, mentions_csv, *extra):
        return main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--k",
                "2",
                *extra,
            ]
        )

    def test_trace_out_writes_replayable_jsonl(self, mentions_csv, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert self.run_topk(mentions_csv, "--trace-out", str(trace_path)) == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "query"
        assert records[0]["parent"] is None
        assert records[0]["attributes"]["kind"] == "topk"
        names = {record["name"] for record in records}
        assert {"pruned_dedup", "level"} <= names
        from repro.observability import replay_counters

        replayed = replay_counters(lines)
        assert replayed["predicate_evaluations"] > 0

    def test_metrics_out_writes_prometheus_text(self, mentions_csv, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        assert (
            self.run_topk(mentions_csv, "--metrics-out", str(metrics_path))
            == 0
        )
        text = metrics_path.read_text()
        assert 'repro_queries_total{kind="topk"} 1' in text
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_pipeline_predicate_evaluations_total" in text

    def test_explain_prints_span_tree_to_stderr(self, mentions_csv, capsys):
        assert self.run_topk(mentions_csv, "--explain") == 0
        err = capsys.readouterr().err
        assert err.startswith("query")
        assert "pruned_dedup" in err
        assert "level" in err

    def test_flags_do_not_change_answers(self, mentions_csv, capsys, tmp_path):
        assert self.run_topk(mentions_csv) == 0
        plain = capsys.readouterr().out
        assert (
            self.run_topk(
                mentions_csv,
                "--trace-out",
                str(tmp_path / "t.jsonl"),
                "--metrics-out",
                str(tmp_path / "m.prom"),
                "--explain",
            )
            == 0
        )
        traced = capsys.readouterr().out
        assert traced == plain

    def test_rank_and_threshold_accept_flags(self, mentions_csv, tmp_path):
        rank_trace = tmp_path / "rank.jsonl"
        code = main(
            [
                "rank",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--k",
                "2",
                "--trace-out",
                str(rank_trace),
                "--metrics-out",
                str(tmp_path / "rank.prom"),
            ]
        )
        assert code == 0
        assert '"kind":"rank"' in rank_trace.read_text().splitlines()[0]
        assert 'kind="rank"' in (tmp_path / "rank.prom").read_text()

        threshold_trace = tmp_path / "threshold.jsonl"
        code = main(
            [
                "threshold",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--min-weight",
                "2",
                "--trace-out",
                str(threshold_trace),
            ]
        )
        assert code == 0
        assert '"kind":"threshold"' in threshold_trace.read_text().splitlines()[0]

    def test_stream_flags_cover_wal_metrics(self, mentions_csv, tmp_path):
        metrics_path = tmp_path / "stream.prom"
        code = main(
            [
                "stream",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--k",
                "2",
                "--state-dir",
                str(tmp_path / "state"),
                "--trace-out",
                str(tmp_path / "stream.jsonl"),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "repro_wal_appends_total 6" in text
        assert 'repro_queries_total{kind="stream"} 1' in text
        trace = (tmp_path / "stream.jsonl").read_text().splitlines()
        assert '"kind":"stream"' in trace[0]

    def test_no_flags_means_no_files(self, mentions_csv, capsys):
        assert self.run_topk(mentions_csv) == 0
        err = capsys.readouterr().err
        assert "query" not in err


class TestWalCorruptionExit:
    """Mid-log WAL damage exits 3 with a one-line remediation hint."""

    def _seed_state(self, mentions_csv, tmp_path):
        state = tmp_path / "state"
        code = main(
            [
                "stream",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--state-dir",
                str(state),
            ]
        )
        assert code == 0
        return state

    def _corrupt_first_entry(self, state):
        segment = sorted(state.glob("wal-*.log"))[0]
        blob = bytearray(segment.read_bytes())
        blob[6] ^= 0xFF  # inside the first frame: mid-log, not a torn tail
        segment.write_bytes(bytes(blob))
        return segment

    def test_restore_exits_3_with_hint(self, mentions_csv, tmp_path, capsys):
        state = self._seed_state(mentions_csv, tmp_path)
        capsys.readouterr()
        segment = self._corrupt_first_entry(state)
        code = main(["restore", "--state-dir", str(state), "--field", "name"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: WAL corrupt at")
        assert segment.name in err
        assert "restore from last checkpoint" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_stream_resume_exits_3(self, mentions_csv, tmp_path, capsys):
        state = self._seed_state(mentions_csv, tmp_path)
        capsys.readouterr()
        self._corrupt_first_entry(state)
        code = main(
            [
                "stream",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--state-dir",
                str(state),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: WAL corrupt at")


class TestHealthVerb:
    def test_health_without_state(self, capsys):
        code = main(["health"])
        assert code == 0
        out = capsys.readouterr().out
        assert "live=yes" in out
        assert "ready=yes" in out

    def test_health_state_dir_requires_field(self, tmp_path, capsys):
        code = main(["health", "--state-dir", str(tmp_path)])
        assert code == 2
        assert "--field" in capsys.readouterr().err

    def test_health_over_state_dir(self, mentions_csv, tmp_path, capsys):
        state = tmp_path / "state"
        assert (
            main(
                [
                    "stream",
                    "--input",
                    mentions_csv,
                    "--field",
                    "name",
                    "--state-dir",
                    str(state),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["health", "--state-dir", str(state), "--field", "name", "--audit"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "durability.journaling" in out
        assert "state.audit" in out
        assert "live=yes ready=yes" in out

    def test_health_metrics_out(self, mentions_csv, tmp_path, capsys):
        state = tmp_path / "state"
        assert (
            main(
                [
                    "stream",
                    "--input",
                    mentions_csv,
                    "--field",
                    "name",
                    "--state-dir",
                    str(state),
                ]
            )
            == 0
        )
        capsys.readouterr()
        metrics_path = tmp_path / "health.prom"
        code = main(
            [
                "health",
                "--state-dir",
                str(state),
                "--field",
                "name",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "repro_health_ready 1" in text
        assert "repro_health_degraded 0" in text
        assert "repro_breaker_state" in text


class TestIntervalSemantics:
    """``topk --semantics interval``: the uncertainty-aware round trip."""

    def test_interval_round_trip(self, mentions_csv, capsys):
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--weight-field",
                "count",
                "--k",
                "2",
                "--semantics",
                "interval",
                "--worlds",
                "8",
                "--ngram-threshold",
                "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "world(s) aggregated" in out
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert lines
        for line in lines:
            # "[        lo,         hi]  p=0.93  label"
            bounds, rest = line.split("]", 1)
            lo, hi = (float(part) for part in bounds.strip("[").split(","))
            assert lo <= hi
            probability = float(rest.split("p=")[1].split()[0])
            assert 0.0 <= probability <= 1.0
        assert "ann smith" in out

    def test_interval_validates_worlds(self, mentions_csv, capsys):
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--semantics",
                "interval",
                "--worlds",
                "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_interval_validates_min_probability(self, mentions_csv, capsys):
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--semantics",
                "interval",
                "--min-probability",
                "1.5",
            ]
        )
        assert code == 2
        assert "min_probability" in capsys.readouterr().err

    def test_interval_stats_and_metrics(self, mentions_csv, capsys, tmp_path):
        metrics_path = tmp_path / "interval.prom"
        code = main(
            [
                "topk",
                "--input",
                mentions_csv,
                "--field",
                "name",
                "--semantics",
                "interval",
                "--ngram-threshold",
                "0.3",
                "--stats",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "verification stats" in captured.err
        text = metrics_path.read_text()
        assert 'repro_queries_total{kind="interval"}' in text
        assert "repro_worlds_enumerated_total" in text
        assert "repro_interval_width" in text
