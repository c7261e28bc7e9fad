"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scan_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.scale == 20000
        assert args.seed == 7

    def test_campaign_weeks(self):
        args = build_parser().parse_args(["campaign", "--weeks", "3"])
        assert args.weeks == 3

    def test_classify_set(self):
        args = build_parser().parse_args(["classify", "--set", "Adult"])
        assert args.set == "Adult"

    def test_audit_requires_resolver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])

    def test_pipeline_shards_default(self):
        args = build_parser().parse_args(["classify"])
        assert args.pipeline_shards == 1

    def test_pipeline_shards_override(self):
        args = build_parser().parse_args(
            ["classify", "--pipeline-shards", "4"])
        assert args.pipeline_shards == 4


class TestKnobValidation:
    """Nonsensical knob values must die at the parser (or with a clear
    error), not as an arbitrary traceback mid-scan."""

    @pytest.mark.parametrize("flag,value", [
        ("--probe-batch", "0"),
        ("--probe-batch", "-5"),
        ("--probe-batch", "many"),
        ("--node-cache", "0"),
        ("--node-cache", "-1"),
        ("--shards", "0"),
        ("--shards", "-2"),
        ("--pipeline-shards", "0"),
    ])
    def test_nonpositive_knobs_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scan", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "is not an integer" in err

    def test_positive_knobs_accepted(self):
        args = build_parser().parse_args(
            ["scan", "--probe-batch", "128", "--node-cache", "16",
             "--shards", "3"])
        assert (args.probe_batch, args.node_cache, args.shards) \
            == (128, 16, 3)

    @pytest.mark.parametrize("flag,value", [
        ("--retries", "-3"),
        ("--retries", "1.5"),
        ("--retries", "lots"),
        ("--probe-timeout", "0"),
        ("--probe-timeout", "-1"),
        ("--probe-timeout", "nan"),
        ("--probe-timeout", "soon"),
        ("--backoff", "-2"),
        ("--backoff", "0"),
        ("--backoff", "0.5"),
        ("--backoff", "nan"),
        ("--backoff", "steep"),
        ("--max-pps", "0"),
        ("--max-pps", "-5"),
        ("--max-pps", "nan"),
    ])
    def test_nonsense_probe_knobs_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scan", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    def test_backoff_one_is_valid(self):
        # A factor of exactly 1 keeps every retry's timeout constant.
        args = build_parser().parse_args(["scan", "--backoff", "1"])
        assert args.backoff == 1.0

    @pytest.mark.parametrize("command", ["campaign", "fullstudy"])
    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_nonsense_weeks_rejected(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--weeks", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "is not an integer" in err

    def test_retries_zero_is_valid(self):
        # Zero retries is the single-probe fast path, not nonsense.
        args = build_parser().parse_args(
            ["scan", "--retries", "0", "--probe-timeout", "2.5"])
        assert (args.retries, args.probe_timeout) == (0, 2.5)

    @pytest.mark.parametrize("flag,value", [
        ("--audit-fraction", "0"),
        ("--audit-fraction", "1"),
        ("--audit-fraction", "1.5"),
        ("--audit-fraction", "-0.1"),
        ("--drift-budget", "0"),
        ("--drift-budget", "1"),
        ("--drift-budget", "nan"),
        ("--full-sweep-every", "0"),
        ("--full-sweep-every", "-4"),
    ])
    def test_nonsense_delta_knobs_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["campaign", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    def test_delta_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--delta", "--audit-fraction", "0.1",
             "--drift-budget", "0.25", "--full-sweep-every", "6"])
        assert args.delta is True
        assert (args.audit_fraction, args.drift_budget,
                args.full_sweep_every) == (0.1, 0.25, 6)

    def test_streaming_flags_parse(self):
        args = build_parser().parse_args(
            ["scan", "--stream-results", "--lazy-population"])
        assert args.stream_results and args.lazy_population

    def test_shards_beyond_targets_rejected(self, capsys):
        # A 1:10000000 world keeps only a couple of scan targets;
        # thousands of shards cannot possibly each get one.
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--scale", "10000000", "--shards", "100000"])
        message = str(exc.value)
        assert "exceeds" in message and "targets" in message


SMALL = ["--scale", "120000", "--seed", "3"]


class TestCommands:
    def test_scan(self, capsys):
        assert main(["scan"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "NOERROR" in out
        assert "probes sent" in out

    def test_campaign(self, capsys):
        assert main(["campaign", "--weeks", "2"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "decline ratio" in out
        assert "surviving" in out

    def test_campaign_delta(self, capsys):
        assert main(["campaign", "--weeks", "4", "--delta"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "decline ratio" in out
        assert "delta:" in out and "carried" in out

    def test_classify_rejects_unknown_set(self, capsys):
        assert main(["classify", "--set", "Nope"] + SMALL) == 2

    def test_classify(self, capsys):
        assert main(["classify", "--set", "Dating"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "legitimate" in out
        assert "classified" in out

    def test_classify_sharded_matches_sequential(self, capsys):
        assert main(["classify", "--set", "Dating"] + SMALL) == 0
        sequential = capsys.readouterr().out
        assert main(["classify", "--set", "Dating",
                     "--pipeline-shards", "2"] + SMALL) == 0
        assert capsys.readouterr().out == sequential
        # Streamed observations: the pipeline consumes domain-scan
        # batches in resolver order instead of one resident list.
        assert main(["classify", "--set", "Dating",
                     "--pipeline-shards", "3", "--shards", "2",
                     "--stream-results"] + SMALL) == 0
        assert capsys.readouterr().out == sequential

    def test_audit_falls_back_to_real_resolver(self, capsys):
        assert main(["audit", "203.0.113.7"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_snoop(self, capsys):
        assert main(["snoop", "--sample", "20", "--hours", "6"]
                    + SMALL) == 0
        out = capsys.readouterr().out
        assert "snooped resolvers" in out


class TestCheckpointCli:
    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint-dir", "/tmp/c", "--resume"])
        assert args.checkpoint_dir == "/tmp/c"
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--weeks", "1", "--resume"] + SMALL)

    def test_reopening_a_used_directory_without_resume_refused(
            self, tmp_path, capsys):
        from repro.checkpoint import CheckpointError
        ckpt = str(tmp_path / "ckpt")
        assert main(["campaign", "--weeks", "1",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        with pytest.raises(CheckpointError):
            main(["campaign", "--weeks", "1",
                  "--checkpoint-dir", ckpt] + SMALL)

    def test_campaign_crash_then_resume_matches_plain_run(
            self, tmp_path, capsys):
        import os
        from repro.faults import CRASH_EXIT_CODE
        assert main(["campaign", "--weeks", "2"] + SMALL) == 0
        plain = capsys.readouterr().out
        ckpt = str(tmp_path / "ckpt")
        faulted = SMALL + ["--faults", "none,crash=week:0"]
        assert main(["campaign", "--weeks", "2",
                     "--checkpoint-dir", ckpt] + faulted) == \
            CRASH_EXIT_CODE
        capsys.readouterr()
        assert main(["campaign", "--weeks", "2", "--checkpoint-dir",
                     ckpt, "--resume"] + faulted) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "[resume provenance]" in captured.err
        assert os.path.exists(os.path.join(ckpt, "provenance.json"))

    def test_fullstudy_crash_resume_writes_identical_report(
            self, tmp_path, capsys):
        import os
        from repro.faults import CRASH_EXIT_CODE
        args = ["fullstudy", "--weeks", "1", "--snoop-sample", "5"] + SMALL
        plain_out = str(tmp_path / "plain.md")
        # Baseline under the same (inert) fault profile: installing any
        # plan changes which salted draws the network makes, so the fair
        # comparison is crash+resume vs uninterrupted with equal faults.
        assert main(args + ["--faults", "none", "--out", plain_out]) == 0
        ckpt = str(tmp_path / "ckpt")
        resumed_out = str(tmp_path / "resumed.md")
        faulted = ["--faults", "none,crash=study:fingerprint",
                   "--checkpoint-dir", ckpt, "--out", resumed_out]
        assert main(args + faulted) == CRASH_EXIT_CODE
        # Atomic --out: the crashed run must not leave a torn report.
        assert not os.path.exists(resumed_out)
        assert main(args + faulted + ["--resume"]) == 0
        with open(plain_out) as handle:
            plain = handle.read()
        with open(resumed_out) as handle:
            resumed = handle.read()
        assert resumed == plain


class TestTraceCliErrors:
    """'repro trace' must die with one clear line — never a traceback —
    whatever is wrong with the file it was pointed at."""

    def test_missing_file_is_a_one_line_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid trace:")
        assert "Traceback" not in err

    def test_binary_garbage_is_a_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"\x93NUMPY\x01\x00\xff\xfe" * 64)
        assert main(["trace", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid trace:")
        assert "not a JSONL text file" in err

    def test_non_json_text_is_a_one_line_error(self, tmp_path, capsys):
        path = str(tmp_path / "notes.txt")
        with open(path, "w") as handle:
            handle.write("this is not a trace\n")
        assert main(["trace", path]) == 2
        assert "invalid trace" in capsys.readouterr().err


class TestObserveKnobValidation:
    """The observatory's knobs die at the parser like every other knob."""

    @pytest.mark.parametrize("flag,value", [
        ("--ingest-poll", "0"),
        ("--ingest-poll", "-2"),
        ("--ingest-poll", "nan"),
        ("--ingest-poll", "often"),
    ])
    def test_bad_ingest_poll_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "ingest", "--from", "/tmp/c",
                 "--store-dir", "/tmp/s", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "is not a" in err

    @pytest.mark.parametrize("value", [
        "8053",             # no host
        ":8053",            # empty host
        "127.0.0.1:zero",   # non-integer port
        "127.0.0.1:70000",  # out of range
        "127.0.0.1:-1",
    ])
    def test_bad_listen_endpoint_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "serve", "--store-dir", "/tmp/s",
                 "--listen", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "host:port" in err or "port" in err

    def test_bad_store_dir_rejected(self, tmp_path, capsys):
        plain_file = tmp_path / "file.txt"
        plain_file.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["observe", "stats", "--store-dir", str(plain_file)])
        assert exc.value.code == 2
        assert "not a directory" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["observe", "stats", "--store-dir", "  "])

    def test_good_knobs_parse(self):
        args = build_parser().parse_args(
            ["observe", "serve", "--store-dir", "/tmp/s",
             "--listen", "0.0.0.0:0", "--ingest-poll", "0.5"])
        assert args.listen == ("0.0.0.0", 0)
        assert args.ingest_poll == 0.5
        assert args.store_dir == "/tmp/s"

    def test_store_dir_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["observe", "stats"])
        assert exc.value.code == 2


class TestObserveCli:
    def test_ingest_then_query_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        store = str(tmp_path / "store")
        assert main(["campaign", "--weeks", "2",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        capsys.readouterr()
        assert main(["observe", "ingest", "--from", ckpt,
                     "--store-dir", store, "--no-geo"]) == 0
        captured = capsys.readouterr()
        assert "2 weeks" in captured.err
        assert main(["observe", "stats", "--store-dir", store]) == 0
        import json
        stats = json.loads(capsys.readouterr().out)
        assert stats["weeks"] == 2 and stats["resolvers"] > 0
        assert main(["observe", "survival", "--store-dir", store]) == 0
        assert "week  surviving" in capsys.readouterr().out
        # Second ingest pass: recognized no-op.
        assert main(["observe", "ingest", "--from", ckpt,
                     "--store-dir", store, "--no-geo"]) == 0
        assert "nothing new" in capsys.readouterr().err

    def test_lookup_unknown_resolver_fails(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        store = str(tmp_path / "store")
        assert main(["campaign", "--weeks", "1",
                     "--checkpoint-dir", ckpt] + SMALL) == 0
        assert main(["observe", "ingest", "--from", ckpt,
                     "--store-dir", store, "--no-geo"]) == 0
        capsys.readouterr()
        assert main(["observe", "lookup", "--store-dir", store,
                     "203.0.113.254"]) == 1
        assert "unknown resolver" in capsys.readouterr().err

    def test_query_before_ingest_is_a_clear_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["observe", "stats",
                  "--store-dir", str(tmp_path / "empty")])
        assert "repro observe ingest" in str(exc.value)

    def test_ingest_missing_checkpoint_is_a_clear_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["observe", "ingest",
                  "--from", str(tmp_path / "nothing"),
                  "--store-dir", str(tmp_path / "store")])
        assert "no checkpoint directory" in str(exc.value)
