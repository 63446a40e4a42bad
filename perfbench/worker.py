"""One fresh interpreter of the benchmark.

    worker.py setup  --workload W --seed S --size Z --work DIR
    worker.py run    --workload W --seed S --size Z --work DIR --seconds T
                     --result FILE [--trace] [--refs] [--inject-fault]
                     [--dump-refs]

``setup`` imports ``weyltriplets.cli`` and builds the workload's inputs,
prints ``READY`` (the parent times this as one set-up), then prints the
environment record as one JSON line.  ``run`` does the same set-up, runs
one untimed warm-up cycle of the op mix, then timed cycles until ``T``
seconds have passed (at least one; the last cycle is completed).  Each
timed op is bracketed by two timings of the reference computation
(``reference.py``).  Every op's output is checked, the warm-up's too.
"""

import weyltriplets.cli as cli  # first: importing it is part of the timed set-up

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import workloads
from weyltriplets import jcdot as jd


# a traced run interleaves one untraced cycle after every this many traced ones
UNTRACED_EVERY = 3
# the jacobi_reorder entries jc-run reports, plus the two permutations
JACOBI_KEYS = ("off_chain_max", "chain_block_diagonal", "fock_beyond_band_max",
               "fock_block_tridiagonal", "chain_permutation", "fock_permutation")


def build_inputs(workload, seed, size, work):
    """Config files for CLI ops, JCModel objects for the jc-ladder."""
    ops = workloads.ops_for(workload, seed, size)
    if workload != "jc-ladder":
        return workloads.write_configs(ops, work)
    for op in ops:
        op["model"] = jd.JCModel(
            op["v_l"], op["v_r"], jd.TwoLevelDot(op["alpha"], op["beta"], op["gamma"]),
            op["tau"], jd.FockTruncation(op["N"]),
        )
    return ops


def jc_pipeline(op):
    """The library calls of one jc-run at this rung (the timed part)."""
    model, z = op["model"], op["z"]
    ct = jd.build_tilde_CJC(model)
    return {
        "ct": ct,
        "jacobi": jd.jacobi_reorder(ct, model),
        "kernel_equivalence": jd.kernel_equivalence(model),
        "decoupling": jd.decoupling_report(model, z=z),
        "spectrum_CJC": jd.spectrum_report(jd.build_CJC(model)),
        "spectrum_tilde_CJC": jd.spectrum_report(ct),
        "weyl_S": jd.weyl_S(model, z),
        "correction": jd.dot_resolvent_correction(model, z, op["xs"]),
    }


def jc_document(op, res):
    """The pipeline results as a jc-run style JSON document (not timed)."""
    ct, corr = res["ct"], res["correction"]
    doc = {
        "N": op["N"],
        "rq_consistency": jd.rq_consistency(op["model"]),
        "tilde_hermiticity": float(np.abs(ct - ct.conj().T).max()),
        "jacobi": {k: res["jacobi"][k] for k in JACOBI_KEYS},
        "kernel_equivalence": res["kernel_equivalence"],
        "decoupling": res["decoupling"],
        "weyl_S_diag_re": np.diag(res["weyl_S"]).real.tolist(),
        "weyl_S_diag_im": np.diag(res["weyl_S"]).imag.tolist(),
        "correction": {"shape": list(corr.shape), "re": corr.real.ravel().tolist(),
                       "im": corr.imag.ravel().tolist()},
    }
    for name in ("spectrum_CJC", "spectrum_tilde_CJC"):
        doc[name] = {"eigenvalues": res[name]["eigenvalues"].tolist(),
                     "multiplicities": [int(m) for m in res[name]["multiplicities"]]}
    return json.dumps(doc, default=lambda x: x.tolist())


def run_op(workload, op):
    """Execute one op; return (latency seconds, exit code, output thunk).

    An exception counts as a failed op, like a non-zero exit code.
    """
    t0 = perf_counter()
    try:
        if workload == "jc-ladder":
            res = jc_pipeline(op)
            rc, output = 0, lambda: jc_document(op, res)
        else:
            rc = cli.main(op["argv"])
            output = op["out"].read_text
    except Exception as exc:
        rc, output = "exception %r" % exc, lambda: ""
    return perf_counter() - t0, rc, output


def environment():
    """Machine, BLAS and version record printed with every result."""
    import platform
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _check_source(root):
    """Refuse to measure a weyltriplets that is not the checkout's own."""
    src = (Path(root) / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit("weyltriplets imported from %s, not from %s" % (cli.__file__, src))


def cmd_setup(args):
    build_inputs(args.workload, args.seed, args.size, args.work)
    print("READY", flush=True)
    print(json.dumps(environment()), flush=True)


def cmd_run(args):
    import checks
    import tracing

    ops = build_inputs(args.workload, args.seed, args.size, args.work)
    checker = checks.Checker(args.workload, args.refs, args.inject_fault)
    tracer, agg = (tracing.Tracer(), tracing.Aggregate()) if args.trace else (None, None)

    def run_cycle(traced, lats, refs):
        """Run and check every op once; append its latency to ``lats`` and
        the reference times right before and after it to ``refs``."""
        if traced:
            tracer.install()
        for op in ops:
            before = reference.timed()
            if traced:
                tracer.active = True
            lat, rc, output = run_op(args.workload, op)
            if traced:
                tracer.active = False
            refs.append((before, reference.timed()))
            lats.append(lat)
            text = output()
            if traced:
                agg.fold(tracer.take(), op.get("N"))
                agg.out_bytes += len(text) if "argv" in op else 0
            checker.check(op, rc, text)
        if traced:
            tracer.uninstall()

    run_cycle(False, [], [])  # warm-up: first calls, lazy imports, caches
    latencies, refs, untraced = [], [], []
    deadline = perf_counter() + args.seconds
    cycle = 0
    while cycle == 0 or perf_counter() < deadline:
        run_cycle(args.trace, latencies, refs)
        if args.trace and cycle % UNTRACED_EVERY == 0:
            # interleaved untraced cycles are the base of the overhead ratio
            lats = []
            run_cycle(False, lats, [])
            untraced.append(sum(lats))
        cycle += 1
    result = {
        "latencies": latencies, "refs": refs, "ops_per_cycle": len(ops),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **checker.summary(),
    }
    if args.trace:
        result.update(untraced_cycles=untraced, agg=agg.to_dict())
    if args.dump_refs:
        result["fingerprints"] = checker.fingerprints
    Path(args.result).write_text(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", default=".")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--refs", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--dump-refs", action="store_true")
    args = parser.parse_args(argv)
    _check_source(args.root)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
