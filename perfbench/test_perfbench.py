"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from degen.cli import main as degen_main  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = {}
    for name in NAMES:
        w = workloads.generate(name, 0)
        d = str(tmp_path_factory.mktemp(name))
        workloads.write(w, d)
        out[name] = (w, d)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_generated_bundles_pass_validate(generated, name, capsys):
    w, d = generated[name]
    for path in w.files:
        assert degen_main(["validate", os.path.join(d, path)]) == 0, path
        assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_bundles(generated, name):
    again = workloads.generate(name, 0)
    assert again.files == generated[name][0].files
    assert again.jobs == generated[name][0].jobs
    assert workloads.generate(name, 1).files != again.files


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_every_command(generated, name):
    w, _ = generated[name]
    assert {j.command for j in w.jobs} == set(workloads.COMMANDS)
    assert len({j.name for j in w.jobs}) == len(w.jobs)


def _first_job_output(generated, name):
    w, d = generated[name]
    job = w.jobs[0]
    _, code, out, err = bench.run_job(job, d, bench._job_env())
    return w, d, job, code, out, err


def test_correct_output_is_accepted(generated):
    w, d, job, code, out, err = _first_job_output(generated, "curve-ngon")
    assert workloads.check_output(job, code, out, err, d) is None


def test_corrupted_report_and_wrong_exit_code_count_as_failures(generated):
    w, d, job, code, out, err = _first_job_output(generated, "curve-ngon")
    run = bench.Run(workloads, w, d)
    run.record(job, code, out, err)
    assert run.failures == []
    run.record(job, code, out.replace("PASS", "FAIL", 1), err)
    run.record(job, code, out.replace("checked=4", "checked=5"), err)
    run.record(job, 1, out, err)
    run.record(job, code, out, "Traceback (most recent call last):\n")
    run.record(job, None, "", "timeout")
    assert run.attempted == 6
    assert run.failed == len(run.failures) == 5
    assert "exit code 1" in run.failures[2]


def test_example_file_is_checked(generated, tmp_path):
    w, d = generated["global-lvalue"]
    job = next(j for j in w.jobs if j.command == "example")
    _, code, out, err = bench.run_job(job, str(tmp_path), bench._job_env())
    assert workloads.check_output(job, code, out, err, str(tmp_path)) is None
    path = tmp_path / job.argv[-1]
    path.write_text(path.read_text().replace('"weight_w": 1', '"weight_w": 2'))
    assert "differs" in workloads.check_output(job, code, out, err, str(tmp_path))


def test_traced_job_prints_what_the_plain_job_prints(generated, tmp_path):
    w, d = generated["global-lvalue"]
    env = bench._job_env()
    for job in w.jobs[:3]:
        _, code, out, err = bench.run_job(job, d, env)
        spans = str(tmp_path / "spans.json")
        _, tcode, tout, terr = bench.run_job(job, d, env, trace_to=spans)
        assert (tcode, tout) == (code, out)
        summary = layers.summarize([layers.load(spans)])
        assert set(summary) == {m for m, _, _ in layers.METRICS} - {"trace.overhead_s"}
        assert summary["cli.self_s"] > 0


def test_self_time_subtracts_children():
    spans = [["a.f", 0.0, 10.0, -1], ["b.g", 1.0, 4.0, 0], ["b.h", 5.0, 6.0, 1]]
    assert layers.self_times(spans) == [7.0, 2.0, 1.0]


@pytest.mark.parametrize("name", NAMES)
def test_pinned_report_digest_for_the_default_seed(generated, name):
    w, d = generated[name]
    run = bench.Run(workloads, w, d)
    run.timed_pass()
    assert run.failures == []
    assert run.digest() == bench._pinned()[name]["0"]


def test_benchmark_json_lists_the_metrics_the_runs_report(generated):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "setup_s", "peak_rss_mb"} | {f"{c}_s" for c in workloads.COMMANDS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
