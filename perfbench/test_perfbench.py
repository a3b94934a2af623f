"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs from any directory; the benchmark itself is pointed at the repository
root.  Each workload runs a handful of jobs untraced and traced; every
metric of BENCHMARK.json must print with its unit, no job may fail, one
seed must always give the same job list, and the hardware-independent
counts must repeat exactly across processes with different hash seeds.
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
TINY_JOBS = 4
COUNTS = ("treeset.nodes", "measures.scales", "covers.cylinders_checked",
          "ideals.blocks_checked", "treeset.calls", "words.calls",
          "hfun.gauges_built", "specio.bytes_out")


def tiny_run(monkeypatch, workload, trace, seed=3):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(wl.WORKLOADS, workload,
                        wl.WORKLOADS[workload]._replace(length=TINY_JOBS, traced=TINY_JOBS))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_metrics_print_with_units(monkeypatch, workload, trace):
    rc, lines, result = tiny_run(monkeypatch, workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY_JOBS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1])
    assert f"{workload:8s} {'fail_rate':26s} 0.0 ratio" in lines


def test_local_medians_centre_a_window():
    refs = [5.0, 1.0, 3.0, 9.0, 2.0]
    assert run.local_medians(refs, 1) == [3.0, 3.0, 3.0, 3.0, 5.5]
    assert run.local_medians(refs, 0) == refs


def test_reference_time_is_positive():
    assert 0 < run.time_reference() < 1


def test_design_does_not_depend_on_the_seed():
    first, second = wl.Design("scales"), wl.Design("scales")
    assert first.spread(8, 10, 17) == second.spread(8, 10, 17)
    assert sorted(first.spread(8, 10, 17)) == list(range(10, 18))
    assert first.pick(4, "ab") == second.pick(4, "ab")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.fixture(scope="module")
def modules():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    return run.import_package()


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_one_seed_one_job_list(modules, workload):
    def jobs(seed):
        return wl.job_list(workload, random.Random(f"{workload}:{seed}"), modules)

    assert jobs(5) == jobs(5)
    assert jobs(5)[0] != jobs(6)[0]
    kinds = {job.kind for job in jobs(5)[0][:wl.WORKLOADS[workload].traced]}
    assert kinds == set(wl.WORKLOADS[workload].weights)


def test_jobs_stay_below_depth_caps(modules):
    counting = ("ci_dims", "block_dims", "product_dims", "sumset_dims", "content_seq", "dbox")
    for seed in range(3):
        jobs, _ = wl.job_list("engine", random.Random(seed), modules)
        for job in jobs:
            if job.kind in counting:
                depth = job.params[-1] * (2 if job.kind == "product_dims" else 1)
                assert depth <= wl.MAX_TRACE_DEPTH
            if job.kind in ("sparse_sweep", "union_dp", "product_dp"):
                assert job.params[-1] <= wl.MAX_DP_DEPTH


def traced_counts(hashseed):
    # one traced pass over each workload's full traced prefix (every kind)
    code = ("import sys, json, io, contextlib; sys.path.insert(0, 'perfbench');"
            "import run, workloads as wl;"
            "out = {};\n"
            "for w in wl.WORKLOADS:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        run.main(['--workload', w, '--seed', '9', '--seconds', '0', '--trace', '1'])\n"
            "    out[w] = json.loads(buf.getvalue().splitlines()[-1])['metrics']\n"
            "print(json.dumps(out))")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])
    return {w: {k: m[k]["value"] for k in COUNTS} for w, m in metrics.items()}


def test_counts_repeat_exactly():
    first, second = traced_counts(1), traced_counts(2)
    assert first == second
    assert first["engine"]["treeset.nodes"] > 0
    assert first["engine"]["covers.cylinders_checked"] > 0
    assert first["engine"]["ideals.blocks_checked"] > 0
    assert first["cli"]["specio.bytes_out"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "engine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
