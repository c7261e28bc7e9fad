"""Self-tests of the benchmark harness (not of the program it measures).

    python3 -m pytest perfbench -q

Repetitions run in this process over small workload shapes, so the
whole file takes well under a minute; ``test_fullstudy_defaults_digest``
reruns ``repro fullstudy`` at its CLI defaults (about a minute) and is
skipped unless ``PERFBENCH_SLOW=1``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(workloads.ROOT, "BENCHMARK.json")
SMALL = {"campaign": {"scale": 200000, "weeks": 2},
         "observatory": {"scale": 200000, "weeks": 2, "requests": 12,
                         "warmup": 2}}


@pytest.fixture
def small(monkeypatch):
    """Shrink the workload shapes and run repetitions in this process
    with the goldens the test supplies."""
    for name, overrides in SMALL.items():
        for key, value in overrides.items():
            monkeypatch.setitem(workloads.CONFIGS[name], key, value)
    goldens = {}

    def repetition(workload, seed, trace=False, setup_only=False,
                   trace_out=None):
        result = workloads.run_repetition(
            workload, seed, trace=trace, setup_only=setup_only,
            goldens=goldens, trace_out=trace_out)
        result = json.loads(json.dumps(result))
        result["elapsed_s"] = 0.0
        return result

    monkeypatch.setattr(run, "repetition", repetition)
    return goldens


def run_main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_wrappers_restored_after_traced_run(small):
    originals = []
    for hook in tracing.HOOKS:
        owner, attribute = tracing._resolve(hook.target)
        originals.append((owner, attribute, vars(owner)[attribute]))
    result = run.repetition("campaign", 7, trace=True)
    assert result["layers"]["scanner.campaign.week_p50_s"] > 0
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original, attribute


def test_printed_metric_names_equal_benchmark_json(small, capsys):
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    code, plain = run_main(capsys, "--workload", "campaign", "--seconds",
                           "0")
    assert code == 0 and plain["correct"]
    assert {name: value["unit"] for name, value in plain["metrics"].items()} \
        == {metric["name"]: metric["unit"]
            for metric in declared["end_to_end"]}
    code, traced = run_main(capsys, "--workload", "observatory",
                            "--trace", "1")
    assert code == 0 and traced["correct"]
    assert {name: value["unit"]
            for name, value in traced["metrics"].items()} \
        == {metric["name"]: metric["unit"]
            for metric in declared["per_layer"]}
    assert traced["metrics"]["http.samples"]["value"] == 12
    assert [workload["name"] for workload in declared["workloads"]] \
        == list(run.WORKLOADS)


def test_corrupted_golden_fails_the_run(small, capsys):
    small["campaign"] = {"config": dict(workloads.CAMPAIGN),
                         "seeds": {"7": ["0" * 64, "0" * 64]}}
    code, result = run_main(capsys, "--workload", "campaign", "--seconds",
                            "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] > 2


def test_matching_golden_passes(small, capsys):
    digests = run.repetition("campaign", 7)["digest"]
    small["campaign"] = {"config": dict(workloads.CAMPAIGN),
                         "seeds": {"7": digests}}
    code, result = run_main(capsys, "--workload", "campaign", "--seconds",
                            "0")
    assert code == 0 and result["correct"] and result["failed"] == 0


def test_wrong_http_body_fails_the_run(small, capsys, monkeypatch):
    answer = workloads.expected_body

    def tampered(observatory, path):
        body = answer(observatory, path)
        return body + b" " if path.startswith("/resolver/") else body

    monkeypatch.setattr(workloads, "expected_body", tampered)
    code, result = run_main(capsys, "--workload", "observatory",
                            "--seconds", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert process.returncode != 0
    assert process.stdout == ""


def test_identity_is_checked_within_each_world():
    assert run.world_seeds("fullstudy", 7) == [14, 15]
    assert run.world_seeds("campaign", 7) == [7]
    reps = [{"seed": 14, "digest": "a"}, {"seed": 15, "digest": "b"},
            {"seed": 14, "digest": "a"}, {"seed": 15, "digest": "c"}]
    assert run.identity_checks(reps) == 2
    assert run.identity_problems(reps) == [
        "repetition 3 output differs from repetition 1"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(999) == 95.0
    assert tracing.tail_percentile(120) == 90.0
    assert tracing.tail_percentile(50) == 50.0


def test_coverage_counts_direct_children_once():
    spans = [(0, "timed", 0.0, 10.0, None, 1),
             (1, "a", 0.0, 4.0, 0, 1),
             (2, "b", 3.0, 6.0, 0, 1),
             (3, "nested", 3.0, 5.0, 2, 1)]
    assert tracing.coverage(spans, "timed") == pytest.approx(0.6)


@pytest.mark.skipif(os.environ.get("PERFBENCH_SLOW") != "1",
                    reason="runs repro fullstudy at CLI defaults (~1 min)")
def test_fullstudy_defaults_digest(tmp_path):
    out = tmp_path / "study.md"
    env = dict(os.environ, PYTHONPATH=os.path.join(workloads.ROOT, "src"))
    subprocess.run([sys.executable, "-m", "repro.cli", "fullstudy",
                    "--out", str(out)], env=env, check=True, timeout=600,
                   capture_output=True)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest.startswith("967a043c4725")
