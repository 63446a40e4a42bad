"""Seeded inputs of the two benchmark workloads.

Everything here is stdlib only.  The seed changes
parameter values (potentials, couplings, grid offsets), never sizes,
families or the op mix, so the cost of a run does not depend on it.

An op is a dict with a ``key`` (unique within the workload; repeated
ops with the same key have byte-identical outputs) and either the CLI
arguments of one ``weyl-triplets`` call or the parameters of one
``jc-ladder`` pipeline call, plus the header and row count every
correct output must have.
"""

import random
from pathlib import Path

WORKLOADS = ("grid-sweep", "jc-ladder")
# outputs on this seed at full size are also compared with refs/
DEFAULT_SEED = 0

# A run is one untimed warm-up cycle of the op mix, then whole timed
# cycles until the run's seconds have passed.  The host's speed drifts
# by tens of percent over seconds, and the median of a short op's
# latencies jumps between its fast and slow levels (in seconds, and less
# so in ``ref``, see reference.py), so every op that can sit at the
# median or the tail takes 0.2-1.2 s (2-CPU Xeon, one BLAS thread) and
# averages over that drift.  A 50 s run holds about 20 samples of each
# op type.  The median falls inside the samples of the middle op
# type(s) and the tail (ten ops beyond it) near the middle of the
# slowest type's, never on the edge between two types: hence the odd
# number of types per cycle and the slowest type well apart.

# dot_resolvent_correction is sampled on the jc-run default x-grid.
JC_LADDER_XS = (-1.0, 0.5)

SIZES = {
    "full": {
        "jc_grid": (20, 16), "model_grid": 130, "krein_n": 260,
        "gamma_n": 20000, "ladder": (40, 50, 60),
    },
    "tiny": {
        "jc_grid": (2, 3), "model_grid": 4, "krein_n": 5,
        "gamma_n": 12, "ladder": (40, 50),
    },
}


def _cfg(pairs):
    return "".join("%s = %s\n" % (k, v) for k, v in pairs)


def _r(rng, lo, hi):
    """A seeded real, rounded so configs stay short and exact."""
    return round(rng.uniform(lo, hi), 6)


def _jc_params(rng):
    return {
        "alpha": _r(rng, -0.5, 0.5), "beta": _r(rng, 0.8, 2.0),
        "gamma": complex(_r(rng, -0.2, 0.2), _r(rng, -0.2, 0.2)),
        "tau": _r(rng, 0.5, 1.5), "v_l": _r(rng, 0.5, 3.0),
        "v_r": _r(rng, 0.0, 0.5), "z": complex(_r(rng, -2.0, 1.0), _r(rng, 0.3, 1.0)),
    }


def _jc_keys(p, N):
    return [
        ("jc.alpha", p["alpha"]), ("jc.beta", p["beta"]),
        ("jc.gamma_re", p["gamma"].real), ("jc.gamma_im", p["gamma"].imag),
        ("jc.tau", p["tau"]), ("jc.N", N), ("jc.v_l", p["v_l"]), ("jc.v_r", p["v_r"]),
    ]


def _weyl_header(dim):
    header = ["re_z", "im_z"]
    for i in range(dim):
        for j in range(dim):
            header += ["re_m_%d_%d" % (i, j), "im_m_%d_%d" % (i, j)]
    return header


def _rect(rng, n_re, n_im):
    re0 = _r(rng, -3.5, -2.5)
    im0 = _r(rng, 0.2, 0.4)
    return [
        ("grid.re_min", re0), ("grid.re_max", round(re0 + 6.0, 6)), ("grid.re_n", n_re),
        ("grid.im_min", im0), ("grid.im_max", round(im0 + 2.0, 6)), ("grid.im_n", n_im),
    ]


def _hermitian_entries(rng):
    a, d = _r(rng, 0.5, 2.0), _r(rng, -2.0, -0.5)
    b = complex(_r(rng, -0.5, 0.5), _r(rng, -0.5, 0.5))
    return ",".join(repr(complex(v)).strip("()") for v in (a, b, b.conjugate(), d))


def _op(key, task, pairs, header, rows, extra=()):
    return {
        "key": key, "task": task, "config": _cfg(pairs),
        "extra": list(extra), "header": header, "rows": rows,
    }


def grid_sweep_ops(seed, size="full"):
    """Four large grids (a jc block, a model family, a Krein kernel, gamma
    samples) and the built-in invariant suite, the one op that runs the
    ``oracle`` and ``spectral`` layers and Gram quadrature."""
    rng = random.Random(seed)
    s = SIZES[size]
    N, n_jc = s["jc_grid"]
    n_m, n_k, n_g = s["model_grid"], s["krein_n"], s["gamma_n"]
    jc = _jc_params(rng)
    return [
        _op("jc-weyl", "weyl-sample", _jc_keys(jc, N) + _rect(rng, n_jc, n_jc),
            _weyl_header(2 * (N + 1)), n_jc * n_jc),
        _op("model-weyl", "weyl-sample",
            [("model.family", "schrodinger-interval"), ("model.v", _r(rng, -1.0, 1.0)),
             ("model.a", _r(rng, -1.5, -0.5)), ("model.b", _r(rng, 0.5, 1.5))]
            + _rect(rng, n_m, n_m),
            _weyl_header(2), n_m * n_m),
        _op("validate", "validate", [], ["check", "residual", "tolerance", "status"], None,
            extra=["--format", "csv", "--seed", str(seed)]),
        _op("krein-kernel", "krein-kernel",
            [("model.family", "full-line-contact"), ("model.v_l", _r(rng, 0.0, 2.0)),
             ("model.v_r", _r(rng, 0.0, 2.0)),
             ("krein.z", repr(complex(_r(rng, -2.0, 1.0), _r(rng, 0.3, 1.5))).strip("()")),
             ("krein.variant", "operator"), ("krein.entries", _hermitian_entries(rng)),
             ("grid.x_min", -4.0), ("grid.x_max", 4.0), ("grid.x_n", n_k)],
            ["x", "y", "re_K", "im_K"], n_k * n_k),
        _op("gamma-sample", "gamma-sample",
            [("model.family", "schrodinger-interval"), ("model.v", _r(rng, -1.0, 1.0)),
             ("model.a", -1.0), ("model.b", 1.0),
             ("gamma.z", repr(complex(_r(rng, -2.0, 2.0), _r(rng, 0.3, 1.5))).strip("()")),
             ("grid.x_min", -1.0), ("grid.x_max", 1.0), ("grid.x_n", n_g)],
            ["x", "re_g0", "im_g0", "re_g1", "im_g1"], n_g),
    ]


def jc_ladder_ops(seed, size="full"):
    """One jc-run pipeline per rung of the Fock ladder, shared dot and lead parameters."""
    p = _jc_params(random.Random(seed))
    return [dict(p, key="N%d" % N, N=N, xs=JC_LADDER_XS) for N in SIZES[size]["ladder"]]


def write_configs(ops, work):
    """Write each CLI op's config under ``work``; add its argv and output path."""
    for op in ops:
        cfg = Path(work) / ("%s.cfg" % op["key"])
        cfg.write_text(op["config"])
        op["out"] = Path(work) / ("%s.out" % op["key"])
        op["argv"] = [op["task"], "--config", str(cfg), "--out", str(op["out"])] + op["extra"]
    return ops


def ops_for(workload, seed, size="full"):
    return {"grid-sweep": grid_sweep_ops, "jc-ladder": jc_ladder_ops}[workload](seed, size)
