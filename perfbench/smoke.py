"""Smoke check of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

Asserts, for every workload, that a plain and a traced run print every
metric named in ``BENCHMARK.json`` with its unit and pass their checks;
that a deliberately corrupted output is counted as failed; that a
perturbed value fails the reference comparison; and that the benchmark
refuses to run in a directory holding only its own files.
"""

import copy
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "5",
           "--seconds", "1"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], sorted(doc)
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


def check_metrics(doc, wanted):
    names = [m["name"] for m in wanted]
    assert sorted(doc["metrics"]) == sorted(names), set(names) ^ set(doc["metrics"])
    for m in wanted:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]


def main():
    for workload in workloads.WORKLOADS:
        for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            doc = result(bench("--workload", workload, "--trace", trace, "--size", "tiny"))
            assert doc["correct"] and doc["failed"] == 0, (workload, trace, doc)
            check_metrics(doc, wanted)
        doc = result(bench("--workload", workload, "--trace", "0", "--size", "tiny",
                           "--inject-fault"))
        assert not doc["correct"] and doc["failed"] >= 1, (workload, doc)
        assert doc["metrics"]["ok_ratio"]["value"] < 1.0
        print("ok  %s: metrics, units, injected fault counted" % workload, flush=True)

    with gzip.open(checks.REF_PATH, "rt") as fh:
        ref = json.load(fh)["grid-sweep/gamma-sample"]
    bad = copy.deepcopy(ref)
    bad["samples"]["0"][1] *= 1 + 1e-8
    checks.compare_fingerprints(ref, ref)
    try:
        checks.compare_fingerprints(bad, ref)
    except checks.CheckError:
        print("ok  a value off by 1e-8 relative fails the reference comparison")
    else:
        raise AssertionError("perturbed value passed the reference comparison")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "jc-ladder", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok  without the library sources the benchmark exits %d" % proc.returncode)


if __name__ == "__main__":
    main()
