"""How the JC dot's correction and kernel-check stages scale in N and the grid,
what one jc-run rung costs on a fresh model, what Weyl-matrix evaluation
costs per z, and what validate's Gram quadrature costs.

    python3 bench/scaling.py [--size {full,tiny}] [--parent DIR] [--out FILE]

Times ``jcdot.dot_resolvent_correction`` and its kernel step
``KreinCorrection.kernel`` in one process at one BLAS thread, over the
Fock truncations N and x-grid sizes nx of ``SIZES`` that ``jc-run``'s
size guard admits (nx (N + 1) <= 2048), plus two points on the guard's
edge, (N, nx) = (60, 33) and (200, 10); and ``jcdot.kernel_equivalence``,
which takes no grid, once per N.  Each N uses one model whose cached
parts (C~_JC, the lead triplet) are built by untimed warm-up calls; the
size's repeats (5 full, 2 tiny) cycle over all points, so drift spreads
over them.  Reported per point: median and quartiles (inclusive method)
of each stage, and per nx (per N for the kernel check) the fitted
log-log slope of the median in the Fock dimension N + 1, over all N and
over the three largest.  Every timed correction call must make exactly
one guarded solve of C~_JC - M^S(z); any other count stops the harness
with a non-zero exit.

The rung stage times the calls of one ``jc-run`` rung that share that
solve, ``decoupling_report``, ``weyl_S`` and ``dot_resolvent_correction``
(x-grid [-1, 0.5], jc-run's default), at each N of ``RUNG_N``, on a new
``JCModel`` per sample whose C~_JC is built untimed first, as ``jc-run``
builds it before these calls.  Reported per N: median and quartiles, and
the guarded solves (``jcdot.solve_guarded`` calls) each sample made.

The Weyl-matrix evaluation stage times ``WeylFunction.grid`` alone, with
no rendering, for the ``WEYL_FAMILIES`` (default parameters) and the JC
lead at N = 20, on square z-grids of n x n points over Re z in [-3, 3],
Im z in [0.3, 2.3], as one complex array in ``weyl-sample``'s order.
Reported per function and grid: median and quartiles, and the median in
microseconds per z.

The rendering stage times ``cli._table_text``, csv and JSON, on seeded
synthetic tables of the four ``grid-sweep`` table shapes (``RENDER_SHAPES``):
jc-weyl's 256 x 3530 of mostly zeros, model-weyl's 16900 x 10,
krein-kernel's 67600 x 4 and gamma-sample's 20000 x 5, each block of the
renderer's 2**14 cells holding that shape's share of zero cells and of
distinct values (measured on the seed-0 tables), with magnitudes
log-uniform over [1e-4, 10] and random signs.  Reported per shape and
format: median and quartiles, and the median in ns per cell.

The Gram-quadrature stage times ``AnalyticKernel.gram`` on the 8 Gram pairs
of ``validate``'s two quadrature rows (``GRAM_PAIRS``): the Schrodinger
half-line at (z, zeta) = (i, 2 + i) and (-1 + 0.5i, 0.5 + 2i), and the six
atom images of its tensor triplet over levels 0..5 at (-1 + 0.5i, 0.5 + 2i),
after one untimed pass.  A sample is the 8 calls in turn.  Reported: median
and quartiles, and the median in ms per call.

With ``--parent DIR`` the checkout at DIR (its ``src/``) is measured too,
in child processes alternating with this one (parent, change, change,
parent), and the samples of each side are pooled.  ``--out`` writes the
document as JSON, with ``perfbench``'s environment record per child
process; the last line on stdout is always the whole document.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

ROOT = Path(__file__).resolve().parent.parent
SIZES = {
    "full": {"N": (10, 20, 40, 80, 160, 320), "nx": (2, 8, 32), "edges": ((60, 33), (200, 10)),
             "weyl_n": (16, 64, 130), "rung_N": (20, 40, 60, 80), "repeats": 5,
             "render_rows": {"jc-weyl": 256, "model-weyl": 16900, "krein-kernel": 67600,
                             "gamma-sample": 20000}},
    "tiny": {"N": (2, 4), "nx": (2,), "edges": (), "weyl_n": (4,), "rung_N": (2, 4),
             "repeats": 2, "render_rows": {"jc-weyl": 8, "model-weyl": 200, "krein-kernel": 800,
                                           "gamma-sample": 400}},
}
WEYL_FAMILIES = ("schrodinger-interval", "dirac-interval", "full-line-contact")
WEYL_JC_N = 20
# jc-run refuses x-grids whose estimate 512 (nx (N + 1))^2 bytes passes 2 GiB
GUARD = 2048
Z = -1.0 + 0.5j
STAGES = ("correction_s", "kernel_s")
# the stage that takes no x-grid, timed once per N
CHECK = "kernel_equivalence_s"
# the Weyl-matrix evaluation stage, timed per function and z-grid
WEYL = "weyl_s"
# the jc-run rung stage on fresh models, timed per N, its x-grid and samples per repeat
RUNG = "rung_s"
RUNG_XS = (-1.0, 0.5)
RUNG_SAMPLES = 3
# the rendering stage: per grid-sweep table, its columns, and the shares of
# zero cells and of distinct values in a block of 2**14 cells
RENDER = "render_s"
RENDER_SHAPES = {"jc-weyl": (3530, 0.976, 0.024), "model-weyl": (10, 0.40, 0.41),
                 "krein-kernel": (4, 0.0, 0.40), "gamma-sample": (5, 0.0, 1.0)}
RENDER_SAMPLES = 3
# the Gram-quadrature stage: validate's half-line (z, zeta) pairs, the tensor's
# pair and its levels, and samples per repeat
GRAM = "gram_s"
GRAM_PAIRS = {"halfline": ((1j, 2.0 + 1.0j), (-1.0 + 0.5j, 0.5 + 2.0j)),
              "tensor": ((-1.0 + 0.5j, 0.5 + 2.0j),)}
GRAM_LEVELS = 6
GRAM_SAMPLES = 3


def jc_model(jd, N):
    return jd.JCModel(0.5, 0.25, jd.TwoLevelDot(0.1, 0.9, 0.2 - 0.15j), 0.7,
                      jd.FockTruncation(N))


def render_table(rows, cols, zeros, share, seed):
    """A seeded table in which each block of 2**14 cells in row order (as the
    renderer takes it) has ``zeros`` of its cells 0.0 and ``share`` of them
    distinct values."""
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, rows * cols, 16384):
        cells = min(16384, rows * cols - start)
        n_nz = cells - round(zeros * cells)
        n_val = max(1, min(n_nz, round(share * cells) - (n_nz < cells)))
        vals = rng.choice([-1.0, 1.0], n_val) * 10.0 ** rng.uniform(-4, 1, n_val)
        block = np.zeros(cells)
        block[rng.permutation(cells)[:n_nz]] = np.resize(vals, n_nz)
        blocks.append(block)
    return np.concatenate(blocks).reshape(rows, cols)


def z_rect(n):
    """The n x n z-grid over [-3, 3] x [0.3, 2.3], built as ``cli._z_grid`` builds
    a rectangle: one complex array, re-major."""
    zs = np.empty(n * n, dtype=complex)
    zs.real = np.repeat(np.linspace(-3.0, 3.0, n), n)
    zs.imag = np.tile(np.linspace(0.3, 2.3, n), n)
    return zs


def points(size):
    spec = SIZES[size]
    grid = [(N, nx) for nx in spec["nx"] for N in spec["N"] if nx * (N + 1) <= GUARD]
    return grid + [p for p in spec["edges"] if p not in grid]


def measure(src, size):
    """Samples of every stage, with the library under ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from worker import environment
    from weyltriplets import cli
    from weyltriplets import jcdot as jd
    from weyltriplets import models1d as m1
    from weyltriplets.spectral import SpectralMeasurePP
    from weyltriplets.tensor import tensor_normalized
    from weyltriplets.triplets import BoundaryCondition, krein_correction

    solves = count_solves(jd)
    models, cases = {}, []
    for N, nx in points(size):
        model = models.setdefault(N, jc_model(jd, N))
        xs = np.linspace(-1.0, 1.0, nx)
        jd.dot_resolvent_correction(model, Z, xs)
        corr = krein_correction(model.lead_triplet,
                                BoundaryCondition.operator(model.tilde_CJC), Z)
        cases.append({"N": N, "nx": nx, "model": model, "xs": xs, "corr": corr,
                      "correction_s": [], "kernel_s": []})
    checks = [{"N": N, "model": models[N], CHECK: []} for N in SIZES[size]["N"]]
    for check in checks:
        jd.kernel_equivalence(check["model"])
    weyls = {name: m1.build_triplet(m1.FACTORIES[name]()).weyl for name in WEYL_FAMILIES}
    weyls["jc-lead-N%d" % WEYL_JC_N] = jc_model(jd, WEYL_JC_N).lead_weyl
    evals = [{"weyl": name, "n_z": n * n, "fn": w.grid, "zs": z_rect(n), WEYL: []}
             for name, w in weyls.items() for n in SIZES[size]["weyl_n"]]
    for ev in evals:
        ev["fn"](ev["zs"])
    rungs = [{"N": N, RUNG: [], "solves": []} for N in SIZES[size]["rung_N"]]
    renders = []
    for i, (name, rows) in enumerate(SIZES[size]["render_rows"].items()):
        cols, zeros, share = RENDER_SHAPES[name]
        table = render_table(rows, cols, zeros, share, seed=i)
        header = ["c%d" % j for j in range(cols)]
        for fmt in ("csv", "json"):
            cli._table_text(header, table, fmt)
            renders.append({"table": name, "format": fmt, "cells": table.size,
                            "header": header, "data": table, RENDER: []})
    right = m1.build_triplet(m1.schrodinger_right())
    tt = tensor_normalized(right, SpectralMeasurePP.from_levels(range(GRAM_LEVELS))).assembled
    grams = [(right.gamma(zeta), right.gamma(z)) for z, zeta in GRAM_PAIRS["halfline"]]
    grams += [pair for z, zeta in GRAM_PAIRS["tensor"]
              for pair in zip(tt.gamma(zeta).images, tt.gamma(z).images)]
    for A, B in grams:
        A.gram(B)
    gram = {"calls": len(grams), GRAM: []}
    for _ in range(SIZES[size]["repeats"]):
        for case in cases:
            before = solves[0]
            t0 = perf_counter()
            jd.dot_resolvent_correction(case["model"], Z, case["xs"])
            t1 = perf_counter()
            case["corr"].kernel(case["xs"], case["xs"])
            t2 = perf_counter()
            if solves[0] - before != 1:
                sys.exit("dot_resolvent_correction at N = %d, nx = %d made %d guarded "
                         "solves, not 1" % (case["N"], case["nx"], solves[0] - before))
            case["correction_s"].append(t1 - t0)
            case["kernel_s"].append(t2 - t1)
        for rung in rungs * RUNG_SAMPLES:
            model = jc_model(jd, rung["N"])
            model.tilde_CJC  # untimed: jc-run builds it before the rung
            before = solves[0]
            t0 = perf_counter()
            jd.decoupling_report(model, Z)
            jd.weyl_S(model, Z)
            jd.dot_resolvent_correction(model, Z, RUNG_XS)
            rung[RUNG].append(perf_counter() - t0)
            rung["solves"].append(solves[0] - before)
        for check in checks:
            t0 = perf_counter()
            jd.kernel_equivalence(check["model"])
            check[CHECK].append(perf_counter() - t0)
        for ev in evals:
            t0 = perf_counter()
            ev["fn"](ev["zs"])
            ev[WEYL].append(perf_counter() - t0)
        for r in renders * RENDER_SAMPLES:
            t0 = perf_counter()
            cli._table_text(r["header"], r["data"], r["format"])
            r[RENDER].append(perf_counter() - t0)
        for _ in range(GRAM_SAMPLES):
            t0 = perf_counter()
            for A, B in grams:
                A.gram(B)
            gram[GRAM].append(perf_counter() - t0)
    return {"environment": environment(),
            "points": [{k: c[k] for k in ("N", "nx") + STAGES} for c in cases],
            "checks": [{k: c[k] for k in ("N", CHECK)} for c in checks],
            "weyl": [{k: ev[k] for k in ("weyl", "n_z", WEYL)} for ev in evals],
            "rungs": rungs,
            "renders": [{k: r[k] for k in ("table", "format", "cells", RENDER)} for r in renders],
            "gram": gram}


def count_solves(module):
    """Wrap the module's ``solve_guarded`` with a counter, [calls]."""
    calls = [0]
    solve = module.solve_guarded

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)
    module.solve_guarded = counted
    return calls


def run_child(src, size):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(src),
           "--size", size]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
    if out.returncode != 0:
        sys.exit("child run on %s failed:\n%s" % (src, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


def fit_slopes(rows, stage):
    """Log-log slopes of the median in N + 1, over all rows and the last three."""
    fits = {}
    for name, sel in (("all", rows), ("top3", rows[-3:])):
        if len(sel) >= 2:
            dim = np.log([r["N"] + 1 for r in sel])
            t = np.log([r[stage]["median"] for r in sel])
            fits[name] = float(np.polyfit(dim, t, 1)[0])
    return fits


def side_report(runs, size):
    """Pool the samples of one side's child runs; summaries and slopes."""
    pooled, pooled_checks, pooled_weyl, pooled_rungs, pooled_renders = {}, {}, {}, {}, {}
    pooled_gram = [s for run in runs for s in run["gram"][GRAM]]
    calls = runs[0]["gram"]["calls"]
    for run in runs:
        for p in run["points"]:
            slot = pooled.setdefault((p["N"], p["nx"]), {s: [] for s in STAGES})
            for s in STAGES:
                slot[s].extend(p[s])
        for c in run["checks"]:
            pooled_checks.setdefault(c["N"], []).extend(c[CHECK])
        for w in run["weyl"]:
            pooled_weyl.setdefault((w["weyl"], w["n_z"]), []).extend(w[WEYL])
        for r in run["rungs"]:
            slot = pooled_rungs.setdefault(r["N"], {RUNG: [], "solves": []})
            slot[RUNG].extend(r[RUNG])
            slot["solves"].extend(r["solves"])
        for r in run["renders"]:
            pooled_renders.setdefault((r["table"], r["format"], r["cells"]), []).extend(r[RENDER])
    table = [dict(N=N, nx=nx, **{s: summary(v[s]) for s in STAGES})
             for (N, nx), v in pooled.items()]
    checks = [{"N": N, CHECK: summary(v)} for N, v in pooled_checks.items()]
    weyl = [{"weyl": name, "n_z": n_z, WEYL: summary(v),
             "us_per_z": 1e6 * statistics.median(v) / n_z}
            for (name, n_z), v in pooled_weyl.items()]
    rungs = [{"N": N, RUNG: summary(v[RUNG]), "solves_per_sample": sorted(set(v["solves"]))}
             for N, v in pooled_rungs.items()]
    renders = [{"table": name, "format": fmt, "cells": cells, RENDER: summary(v),
                "ns_per_cell": 1e9 * statistics.median(v) / cells}
               for (name, fmt, cells), v in pooled_renders.items()]
    grid_N = SIZES[size]["N"]
    slopes = {s: {str(nx): fit_slopes([r for r in table if r["nx"] == nx and r["N"] in grid_N], s)
                  for nx in SIZES[size]["nx"]} for s in STAGES}
    slopes[CHECK] = fit_slopes(checks, CHECK)
    return {"environments": [r["environment"] for r in runs], "points": table,
            "checks": checks, "slopes": slopes, "weyl": weyl, "rungs": rungs,
            "renders": renders,
            "gram": {"calls": calls, GRAM: summary(pooled_gram),
                     "ms_per_call": 1e3 * statistics.median(pooled_gram) / calls}}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/scaling.py")
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--parent", type=Path, default=None,
                        help="a checkout to measure against this one")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.size)))
        return 0

    sides = {"change": ROOT / "src"}
    order = ["change"]
    if args.parent is not None:
        sides["parent"] = args.parent.resolve() / "src"
        order = ["parent", "change", "change", "parent"]
    runs = {name: [] for name in sides}
    for name in order:
        runs[name].append(run_child(sides[name], args.size))
    doc = {
        "what": "dot_resolvent_correction and its KreinCorrection.kernel step, "
                "z = %r, kernel_equivalence, WeylFunction.grid per z-grid, and one "
                "jc-run rung (decoupling_report, weyl_S, dot_resolvent_correction) "
                "on fresh models, cli._table_text on the grid-sweep table shapes, and "
                "AnalyticKernel.gram on validate's 8 Gram pairs, one BLAS thread" % Z,
        # the parent checkout's path is a local detail, left out
        "command": "python3 bench/scaling.py --size %s%s"
                   % (args.size, " --parent PARENT" if args.parent else ""),
        "size": args.size,
        "repeats_per_child": SIZES[args.size]["repeats"],
        "rung_samples_per_repeat": RUNG_SAMPLES,
        "render_samples_per_repeat": RENDER_SAMPLES,
        "gram_samples_per_repeat": GRAM_SAMPLES,
        "order": order,
        "sides": {name: side_report(runs[name], args.size) for name in sides},
    }
    text = json.dumps(doc, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    for name, rep in doc["sides"].items():
        for r in rep["points"]:
            print("%-7s N=%-4d nx=%-3d correction %.4g s  kernel %.4g s"
                  % (name, r["N"], r["nx"], r["correction_s"]["median"],
                     r["kernel_s"]["median"]))
        for r in rep["checks"]:
            print("%-7s N=%-4d kernel_equivalence %.4g s"
                  % (name, r["N"], r[CHECK]["median"]))
        print("%-7s slopes in N+1: %s" % (name, json.dumps(rep["slopes"])))
        for r in rep["weyl"]:
            print("%-7s %-20s n_z=%-6d weyl grid %.4g s  %.3g us/z"
                  % (name, r["weyl"], r["n_z"], r[WEYL]["median"], r["us_per_z"]))
        for r in rep["rungs"]:
            print("%-7s N=%-4d jc-run rung %.4g s  solves per sample %s"
                  % (name, r["N"], r[RUNG]["median"], r["solves_per_sample"]))
        for r in rep["renders"]:
            print("%-7s render %-12s %-4s %8d cells %.4g s [%.4g, %.4g]  %.1f ns/cell"
                  % (name, r["table"], r["format"], r["cells"], r[RENDER]["median"],
                     r[RENDER]["q1"], r[RENDER]["q3"], r["ns_per_cell"]))
        g = rep["gram"]
        print("%-7s gram quadrature, validate's %d calls %.4g s [%.4g, %.4g]  %.3g ms/call"
              % (name, g["calls"], g[GRAM]["median"], g[GRAM]["q1"], g[GRAM]["q3"],
                 g["ms_per_call"]))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
