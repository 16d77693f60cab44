"""Self-test of the benchmark: a minimal run of every workload prints every
metric with its unit and a correct result; a corrupted reference entry is
counted as a failure; without the program's sources the benchmark fails.

    python3 -m pytest bench/tests -q     # about a minute
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(cwd, workload, trace=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc, metrics, kind):
    want = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {name: m["unit"] for name, m in metrics.items()} == want
    printed = proc.stdout.splitlines()
    for name, unit in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in printed), name


def copy_checkout(dst, with_sources=True):
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(BENCH, os.path.join(dst, "bench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=ignore)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(proc, result["metrics"], "end_to_end")
    assert "fail_ratio = 0.000000 ratio" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench(ROOT, "rank3", trace=1)
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert_metrics(proc, result["metrics"], "per_layer")
    assert result["metrics"]["spin.word_search.calls"]["value"] == 8


def _corrupt(ref):
    ref = json.loads(json.dumps(ref))
    if ref["kind"] == "word_search":
        ref["length"] += 1
    elif ref["argv"][0] == "growth":
        csv, meta = ref["stdout"].rstrip("\n").rsplit("\n", 1)
        meta = json.loads(meta)
        meta["slope"] += 1e-6
        ref["stdout"] = f"{csv}\n{json.dumps(meta)}\n"
    elif ref["argv"][0] == "appendix":
        out = json.loads(ref["stdout"])
        out["dirichlet"]["bounded"] = not out["dirichlet"]["bounded"]
        ref["stdout"] = json.dumps(out)
    else:
        ref["stdout"] += " "
    return ref


def _genuine_output(ref):
    return ref["word"] if ref["kind"] == "word_search" else ref["stdout"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_rejects_each_kind_of_corrupted_reference(workload):
    refs = workloads.load_references(workload)
    for ref in (refs[0], refs[-1]):
        out = _genuine_output(ref)
        assert workloads.check(ref, ref, ref["code"], out) is None
        assert workloads.check(ref, _corrupt(ref), ref["code"], out) is not None
        assert workloads.check(ref, ref, ref["code"] + 1, out) is not None


def test_path_recheck_rejects_a_wrong_gram_matrix():
    ref = next(r for r in workloads.load_references("census")
               if json.loads(r["stdout"])["path"])
    report = json.loads(ref["stdout"])
    assert workloads.check_certificate_path(report, ref["gram"]) is None
    gram = json.loads(json.dumps(ref["gram"]))
    gram["gram"][0][1] = str(int(gram["gram"][0][1]) + 1)
    gram["gram"][1][0] = gram["gram"][0][1]
    assert workloads.check_certificate_path(report, gram) is not None


def test_corrupted_reference_entry_counts_as_failed_op(tmp_path):
    copy_checkout(tmp_path)
    path = tmp_path / "bench" / "references" / "rank3.json"
    refs = json.loads(path.read_text())
    victim = next(r for r in refs["ops"] if r["kind"] == "word_search")
    victim["length"] += 1
    path.write_text(json.dumps(refs))
    result = result_of(run_bench(tmp_path, "rank3"))
    assert not result["correct"]
    passes = result["attempted"] // len(refs["ops"])
    assert result["failed"] == passes >= 1


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "rank3")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
