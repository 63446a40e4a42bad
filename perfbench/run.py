"""Benchmark of weyltriplets: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {grid-sweep,jc-ladder}
                             --seed N --seconds S --trace {0,1}
                             [--size {full,tiny}] [--inject-fault]

Run it from the root of a checkout: the library is imported from
``src/`` there, never from an installed copy.  Every process it starts
runs with one BLAS thread.  With ``--trace 0`` it measures the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs
the same op sequence with spans around every public entry point of the
library and reports the per-layer metrics instead.  Every op's output
is checked (see ``checks.py``).  The environment record, a table of
every metric with its unit, and finally one JSON line are printed.

Exit codes: 0 on a completed run (even with failed ops, which show in
``failed`` and ``correct``), 2 when the checkout holds no library.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# One BLAS thread in every process, set before anything imports numpy:
# the baseline is plain single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_REPEATS = 5
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, **kw):
    return subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(), **kw)


def wait(proc, what):
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s timed out" % what)


def measure_setup(workload, seed, size, work):
    """Median wall time of fresh interpreters importing the CLI and building inputs."""
    times, env = [], None
    for k in range(SETUP_REPEATS):
        sub = work / ("setup%d" % k)
        sub.mkdir()
        t0 = perf_counter()
        proc = spawn([str(WORKER), "setup", "--root", str(ROOT), "--workload", workload,
                      "--seed", str(seed), "--size", size, "--work", str(sub)],
                     stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        times.append(perf_counter() - t0)
        rest = proc.stdout.read()
        wait(proc, "set-up")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError("set-up worker failed (exit %s)" % proc.returncode)
        env = json.loads(rest.strip().splitlines()[-1])
    return statistics.median(times), env


def run_in_process(workload, seed, size, work, seconds, trace, use_refs, inject,
                   dump_refs=False):
    result = work / "result.json"
    sub = work / "run"
    sub.mkdir()
    args = [str(WORKER), "run", "--root", str(ROOT), "--workload", workload,
            "--seed", str(seed), "--size", size, "--work", str(sub),
            "--seconds", str(seconds), "--result", str(result)]
    args += ["--trace"] * trace + ["--refs"] * use_refs + ["--inject-fault"] * inject
    args += ["--dump-refs"] * dump_refs
    proc = spawn(args)
    wait(proc, "run worker")
    if proc.returncode != 0:
        raise RuntimeError("run worker failed (exit %s)" % proc.returncode)
    return json.loads(result.read_text())


def _child(args, **kw):
    """Run one child interpreter to completion (killed on timeout)."""
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, **kw)


def _wall(args):
    t0 = perf_counter()
    _child(args, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def _importtime(code):
    """(module -> (self us, cumulative us, top level)) from ``-X importtime``."""
    proc = _child(["-X", "importtime", "-c", code], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("import probe failed: %s" % proc.stderr[-500:])
    mods = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        mods[name.strip()] = (int(self_us), int(cum_us), not name[1:].startswith(" "))
    return mods


def import_probe():
    """import.* metrics from fresh interpreters, outside the library."""
    bare_walls = [_wall(["-c", "pass"]) for _ in range(PROBE_REPEATS)]
    startup = set(_importtime("pass"))
    totals, scipy_int, own = [], [], []
    for _ in range(PROBE_REPEATS):
        mods = _importtime("import weyltriplets.cli")
        totals.append(sum(cum for name, (_, cum, top) in mods.items()
                          if top and name not in startup))
        scipy_int.append(mods.get("scipy.integrate", (0, 0, False))[1])
        own.append(sum(s for name, (s, _, _) in mods.items()
                       if name.startswith("weyltriplets")))
    return {
        "import.bare_start_s": statistics.median(bare_walls),
        "import.total_s": statistics.median(totals) / 1e6,
        "import.scipy_integrate_s": statistics.median(scipy_int) / 1e6,
        "import.weyltriplets_s": statistics.median(own) / 1e6,
    }


def tail(latencies):
    """(value, percentile, count): the highest percentile with >= 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - 11 if n > 10 else n - 1
    return lat[k], 100.0 * (k + 1) / n, n


def end_to_end(result, setup_s, ops_per_cycle):
    """End-to-end metrics; op times in ``ref``, multiples of the reference
    computation timed right before and after each op (see reference.py)."""
    lat = result["latencies"]
    ratios = [2 * t / (before + after) for t, (before, after) in zip(lat, result["refs"])]
    attempted = result["attempted"]
    value, pct, n = tail(ratios)
    ok = (attempted - result["failed"]) / attempted
    metrics = {
        "setup_s": setup_s,
        # whole cycles of the mix over their time in ref (the benchmark's
        # own checks and reference runs between ops excluded)
        "ops_per_ref": n / sum(ratios),
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": value,
        "ok_ratio": ok,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    ref_s = statistics.median(x for pair in result["refs"] for x in pair)
    raw_tail, _, _ = tail(lat)
    notes = {"ops_per_ref": "%d ops in %d cycles; raw %.4g ops/s"
                            % (n, n // ops_per_cycle, n / sum(lat)),
             "op_p50_ref": "raw %.4g s; median reference %.4g s" % (statistics.median(lat), ref_s),
             "op_tail_ref": "p%.1f of %d ops; raw %.4g s" % (pct, n, raw_tail),
             "ok_ratio": "fail_ratio %d/%d = %.4g" % (result["failed"], attempted, 1 - ok)}
    return metrics, notes


def per_layer(result, cycles, ops_per_cycle):
    import tracing

    agg = tracing.Aggregate()
    agg.merge(result["agg"])
    metrics = agg.metrics()
    lat = result["latencies"]
    traced = statistics.median(
        sum(lat[c * ops_per_cycle:(c + 1) * ops_per_cycle]) for c in range(cycles)
    )
    untraced = statistics.median(result["untraced_cycles"])
    metrics["trace.traced_cycle_s"] = traced
    metrics["trace.untraced_cycle_s"] = untraced
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics.update(import_probe())
    notes = {"trace.overhead_ratio": "median cycle: traced %.4g s / untraced %.4g s"
             % (traced, untraced)}
    return metrics, notes


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weyltriplets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: smoke-check sizes")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first op's output before it is checked")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "weyltriplets" / "cli.py").is_file() or not spec_path.is_file():
        print("no weyltriplets sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, env = measure_setup(args.workload, args.seed, args.size, work)
        use_refs = args.seed == workloads.DEFAULT_SEED and args.size == "full"
        (work / "ops").mkdir()
        result = run_in_process(args.workload, args.seed, args.size, work / "ops",
                                args.seconds, bool(args.trace), use_refs, args.inject_fault)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"]
    ops_per_cycle = result["ops_per_cycle"]
    cycles = len(result["latencies"]) // ops_per_cycle
    if args.trace:
        metrics, notes = per_layer(result, cycles, ops_per_cycle)
    else:
        metrics, notes = end_to_end(result, setup_s, ops_per_cycle)

    env.update(workload=args.workload, seed=args.seed, size=args.size, cycles=cycles,
               ops_per_cycle=ops_per_cycle, trace=args.trace,
               git_commit=git_commit(), source_sha256=source_digest())
    print("environment: " + json.dumps(env, sort_keys=True))
    for reason in result["reasons"]:
        print("failed op: " + reason)
    out = {}
    for m in wanted:
        # a per-N metric of a rung the workload never runs reads 0
        value = metrics.pop(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print("%-32s %-16.6g %-8s %s" % (m["name"], value, m["unit"], note))
    if metrics:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % sorted(metrics))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
