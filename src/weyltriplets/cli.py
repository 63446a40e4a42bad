"""Command-line driver: config files in, deterministic tables out.

Usage::

    weyl-triplets <task> --config <path> [--out <path>] [--format csv|json]
                  [--seed <int>] [--jobs <n>]

with task one of ``weyl-sample``, ``gamma-sample``, ``spectrum``,
``krein-kernel``, ``validate``, ``jc-run``.

Config files are flat ``key = value`` text with dotted section prefixes
(``model.family = schrodinger-right``, ``jc.N = 20``); ``#`` starts a
comment.  A file ending in ``.json`` is read as a JSON object instead
(nested objects are flattened with dots, so both mirrors of the same
config are accepted).  Complex numbers are Python literals without
spaces (``-1+0.5j``); in JSON a two-element ``[re, im]`` array also
works.

Key reference by task (model.* selects a one-dimensional family from
``models1d``, jc.* a Jaynes-Cummings dot model from ``jcdot``):

==============  =====================================================
weyl-sample     model.* or jc.*;  grid.z_list, or the rectangle keys
                grid.re_min/re_max/re_n/im_min/im_max/im_n
gamma-sample    model.*;  gamma.z;  grid.x_min/x_max/x_n;
                optional gamma.xi (comma-separated boundary vector)
spectrum        jc.*;  optional spectrum.which = cjc | tilde
krein-kernel    model.* (scalar-kernel family);  krein.z;
                krein.variant = theta0 | theta1 | operator with
                krein.theta (d = 1 shortcut) or krein.entries
                (row-major, comma-separated);  grid.x_min/x_max/x_n
validate        no required keys (runs the built-in invariant suite)
jc-run          jc.*;  optional jc.z;  optional grid.x_min/x_max/x_n
==============  =====================================================

Every numeric is emitted with 17 significant digits so that a written
value round-trips to the same double.  Outputs are byte-identical for
the same config, seed, BLAS build and BLAS thread count (the thread
count can change the rounding of dense solves and SVDs); ``--jobs``
only fans independent grid points over a thread pool (results keep
input order).  Exit codes: 0 ok, 1 validation failure, 2 config error,
3 numeric failure.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import herglotz as hg
from . import jcdot as jd
from ._linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    hermitian_funcm,
)
from .models1d import (
    FAMILIES,
    ModelSpec,
    build_triplet,
    dirac_interval,
    dirac_right,
    eval_gamma_on_grid,
    full_line_contact,
    gamma_boundary_data,
    schrodinger_interval,
    schrodinger_left,
    schrodinger_right,
    verify_defect_equation,
)
from .oracle import FDGrid, fd_m_function, fd_resolvent_difference, make_dense_toy
from .spectral import (
    MomentDivergenceError,
    OperatorFunctionOnR,
    RefinementError,
    SpectralMeasurePP,
    integral_pp,
    integral_riemann,
    truncation_plan,
)
from .tensor import (
    friedrichs_krein_tensor_check,
    tensor_normalized,
    weight_growth_certificates,
)
from .triplets import (
    BoundaryCondition,
    DomainError,
    GapViolationError,
    QuadratureError,
    herglotz_identity_residual,
    krein_correction,
)

__all__ = ["main", "ConfigError", "DEFAULT_SEED", "TASKS"]

DEFAULT_SEED = 20250814
TASKS = (
    "weyl-sample",
    "gamma-sample",
    "spectrum",
    "krein-kernel",
    "validate",
    "jc-run",
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    hg.BranchCutError,
    hg.PoleError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    GapViolationError,
    MomentDivergenceError,
    RefinementError,
    QuadratureError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Config parse or compatibility failure (CLI exit code 2)."""


_KNOWN_KEYS = frozenset(
    [
        "model.family", "model.v", "model.c", "model.a", "model.b",
        "model.v_l", "model.v_r",
        "jc.alpha", "jc.beta", "jc.gamma_re", "jc.gamma_im", "jc.tau",
        "jc.N", "jc.v_l", "jc.v_r", "jc.z",
        "grid.z_list", "grid.re_min", "grid.re_max", "grid.re_n",
        "grid.im_min", "grid.im_max", "grid.im_n",
        "grid.x_min", "grid.x_max", "grid.x_n",
        "gamma.z", "gamma.xi",
        "krein.z", "krein.variant", "krein.theta", "krein.entries",
        "spectrum.which",
    ]
)


def _fmt(x):
    """Round-trip-safe decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


class Config:
    """Parsed config: string values plus the source line of every key."""

    def __init__(self, values, lines, path):
        self.values = values
        self.lines = lines
        self.path = path

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config %r: %s" % (path, exc))
        if path.endswith(".json"):
            return cls._from_json(text, path)
        return cls._from_text(text, path)

    @classmethod
    def _from_text(cls, text, path):
        values, lines = {}, {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    "%s:%d: expected 'key = value', got %r" % (path, lineno, raw.strip())
                )
            key, val = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError("%s:%d: empty key" % (path, lineno))
            if key in values:
                raise ConfigError(
                    "%s:%d: duplicate key %r (first set on line %d)"
                    % (path, lineno, key, lines[key])
                )
            if key not in _KNOWN_KEYS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            values[key] = val
            lines[key] = lineno
        return cls(values, lines, path)

    @classmethod
    def _from_json(cls, text, path):
        def unique(pairs):
            obj = {}
            for key, val in pairs:
                if key in obj:
                    raise ConfigError("%s: duplicate key %r in one JSON object" % (path, key))
                obj[key] = val
            return obj

        try:
            obj = json.loads(text, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                "%s:%d:%d: invalid JSON: %s" % (path, exc.lineno, exc.colno, exc.msg)
            )
        if not isinstance(obj, dict):
            raise ConfigError("%s: top level must be a JSON object" % path)
        values = {}

        def flatten(prefix, node):
            for key, val in node.items():
                full = "%s.%s" % (prefix, key) if prefix else str(key)
                if isinstance(val, dict):
                    flatten(full, val)
                    continue
                if full not in _KNOWN_KEYS:
                    raise ConfigError("%s: unknown key %r" % (path, full))
                if full in values:
                    raise ConfigError(
                        "%s: duplicate key %r (set both nested and dotted)" % (path, full)
                    )
                if isinstance(val, list):
                    if len(val) == 2 and all(
                        isinstance(x, (int, float)) for x in val
                    ):
                        values[full] = repr(complex(val[0], val[1]))
                    else:
                        values[full] = ",".join(str(x) for x in val)
                elif isinstance(val, bool):
                    values[full] = "1" if val else "0"
                else:
                    values[full] = str(val)

        flatten("", obj)
        return cls(values, {k: 0 for k in values}, path)

    # -- typed getters ------------------------------------------------

    def _finite(self, key, val, raw):
        if not np.isfinite(val):
            raise ConfigError(
                "%s: key %r: non-finite value %r" % (self._where(key), key, raw)
            )
        return val

    def _where(self, key):
        line = self.lines.get(key, 0)
        return "%s:%d" % (self.path, line) if line else self.path

    def has(self, key):
        return key in self.values

    def require(self, key, task):
        if key not in self.values:
            raise ConfigError(
                "%s: task %r needs key %r" % (self.path, task, key)
            )

    def str(self, key, default=None, choices=None):
        val = self.values.get(key, default)
        if val is None:
            raise ConfigError("%s: missing key %r" % (self.path, key))
        if choices is not None and val not in choices:
            raise ConfigError(
                "%s: key %r must be one of %s, got %r"
                % (self._where(key), key, "/".join(choices), val)
            )
        return val

    def float(self, key, default=None):
        if key not in self.values:
            if default is None:
                raise ConfigError("%s: missing key %r" % (self.path, key))
            return float(default)
        try:
            val = float(self.values[key])
        except ValueError:
            raise ConfigError(
                "%s: key %r: invalid real number %r"
                % (self._where(key), key, self.values[key])
            )
        return self._finite(key, val, self.values[key])

    def int(self, key, default=None):
        if key not in self.values:
            if default is None:
                raise ConfigError("%s: missing key %r" % (self.path, key))
            return int(default)
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(
                "%s: key %r: invalid integer %r"
                % (self._where(key), key, self.values[key])
            )

    def complex(self, key, default=None):
        if key not in self.values:
            if default is None:
                raise ConfigError("%s: missing key %r" % (self.path, key))
            return complex(default)
        raw = self.values[key].replace(" ", "")
        try:
            val = complex(raw)
        except ValueError:
            raise ConfigError(
                "%s: key %r: invalid complex literal %r"
                % (self._where(key), key, self.values[key])
            )
        return self._finite(key, val, self.values[key])

    def complex_list(self, key):
        raw = self.values.get(key, "")
        out = []
        for part in raw.split(","):
            part = part.strip().replace(" ", "")
            if not part:
                continue
            try:
                val = complex(part)
            except ValueError:
                raise ConfigError(
                    "%s: key %r: invalid complex literal %r"
                    % (self._where(key), key, part)
                )
            out.append(self._finite(key, val, part))
        if not out:
            raise ConfigError(
                "%s: key %r: expected a comma-separated list" % (self._where(key), key)
            )
        return out


# -- model builders ----------------------------------------------------


def _build_model(cfg, task):
    cfg.require("model.family", task)
    family = cfg.str("model.family", choices=FAMILIES)
    kwargs = {}
    if family.startswith("schrodinger"):
        kwargs["v"] = cfg.float("model.v", 0.0)
    if family.startswith("dirac"):
        kwargs["c"] = cfg.float("model.c", 1.0)
    if family.endswith("interval"):
        kwargs["a"] = cfg.float("model.a", -1.0)
        kwargs["b"] = cfg.float("model.b", 1.0)
    elif family.endswith("right"):
        kwargs["b"] = cfg.float("model.b", 0.0)
    elif family.endswith("left"):
        kwargs["a"] = cfg.float("model.a", 0.0)
    elif family == "full-line-contact":
        kwargs["v_l"] = cfg.float("model.v_l", 0.0)
        kwargs["v_r"] = cfg.float("model.v_r", 0.0)
    try:
        return ModelSpec(family=family, **kwargs)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (cfg.path, exc))


def _build_jc(cfg, task):
    for key in ("jc.alpha", "jc.beta", "jc.tau", "jc.N"):
        cfg.require(key, task)
    dot = jd.TwoLevelDot(
        alpha=cfg.float("jc.alpha"),
        beta=cfg.float("jc.beta"),
        gamma=complex(cfg.float("jc.gamma_re", 0.0), cfg.float("jc.gamma_im", 0.0)),
    )
    v_l = cfg.float("jc.v_l", 0.0)
    v_r = cfg.float("jc.v_r", 0.0)
    tau = cfg.float("jc.tau")
    N = cfg.int("jc.N")
    try:
        return jd.JCModel(
            v_l=v_l, v_r=v_r, dot=dot, tau=tau, fock=jd.FockTruncation(N)
        )
    except ValueError as exc:
        raise ConfigError("%s: %s" % (cfg.path, exc))


def _grid_count(cfg, key):
    n = cfg.int(key)
    if n < 1:
        raise ConfigError("%s: %s must be >= 1" % (cfg._where(key), key))
    return n


def _z_grid(cfg, task):
    rect_keys = (
        "grid.re_min", "grid.re_max", "grid.re_n",
        "grid.im_min", "grid.im_max", "grid.im_n",
    )
    has_rect = any(cfg.has(k) for k in rect_keys)
    if cfg.has("grid.z_list") and has_rect:
        raise ConfigError(
            "%s: grid.z_list and the grid rectangle keys are mutually exclusive"
            % cfg.path
        )
    if cfg.has("grid.z_list"):
        return cfg.complex_list("grid.z_list")
    if has_rect:
        for key in rect_keys:
            cfg.require(key, task)
        res = np.linspace(cfg.float("grid.re_min"), cfg.float("grid.re_max"),
                          _grid_count(cfg, "grid.re_n"))
        ims = np.linspace(cfg.float("grid.im_min"), cfg.float("grid.im_max"),
                          _grid_count(cfg, "grid.im_n"))
        return [complex(re, im) for re in res for im in ims]
    raise ConfigError(
        "%s: task %r needs grid.z_list or the grid rectangle keys"
        % (cfg.path, task)
    )


def _x_grid(cfg, task, default=None):
    keys = ("grid.x_min", "grid.x_max", "grid.x_n")
    if not any(cfg.has(k) for k in keys):
        if default is not None:
            return np.asarray(default, dtype=float)
        raise ConfigError("%s: task %r needs grid.x_min/x_max/x_n" % (cfg.path, task))
    for key in keys:
        cfg.require(key, task)
    n = _grid_count(cfg, "grid.x_n")
    return np.linspace(cfg.float("grid.x_min"), cfg.float("grid.x_max"), n)


def _sample_x_grid(cfg, xs, sample):
    """Run ``sample()``; an x-grid point outside the kernel domain is a config error."""
    try:
        return sample()
    except DomainError as exc:
        key = "grid.x_min" if exc.x == xs[0] else "grid.x_max"
        raise ConfigError("%s: key %r: %s" % (cfg._where(key), key, exc))


def _fan_out(fn, items, jobs):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# -- tabular tasks ------------------------------------------------------


def _task_weyl_sample(cfg, args):
    has_model = cfg.has("model.family")
    has_jc = any(cfg.has(k) for k in ("jc.alpha", "jc.beta", "jc.tau", "jc.N"))
    if has_model == has_jc:
        raise ConfigError(
            "%s: weyl-sample needs exactly one of model.family or the jc.* block"
            % cfg.path
        )
    if has_model:
        weyl = build_triplet(_build_model(cfg, "weyl-sample")).weyl
        evaluate = weyl
        dim = weyl.dim
    else:
        model = _build_jc(cfg, "weyl-sample")
        evaluate = jd.lead_weyl(model)
        dim = model.boundary_dim
    zs = _z_grid(cfg, "weyl-sample")
    mats = _fan_out(evaluate, zs, args.jobs)
    header = ["re_z", "im_z"]
    for i in range(dim):
        for j in range(dim):
            header.extend(["re_m_%d_%d" % (i, j), "im_m_%d_%d" % (i, j)])
    rows = []
    for z, mat in zip(zs, mats):
        row = [z.real, z.imag]
        for entry in np.asarray(mat).ravel():
            row.extend([entry.real, entry.imag])
        rows.append(row)
    return header, rows


def _task_gamma_sample(cfg, args):
    spec = _build_model(cfg, "gamma-sample")
    cfg.require("gamma.z", "gamma-sample")
    z = cfg.complex("gamma.z")
    xs = _x_grid(cfg, "gamma-sample")
    triplet = build_triplet(spec)
    d = triplet.dim
    if cfg.has("gamma.xi"):
        xi = np.array(cfg.complex_list("gamma.xi"))
        if len(xi) != d:
            raise ConfigError(
                "%s: gamma.xi has %d entries; family %r has boundary dimension %d"
                % (cfg._where("gamma.xi"), len(xi), spec.family, d)
            )
        columns = {"g": xi}
    else:
        columns = {"g%d" % j: np.eye(d)[:, j] for j in range(d)}
    samples = _sample_x_grid(cfg, xs, lambda: {
        name: np.atleast_2d(eval_gamma_on_grid(triplet, z, xi, xs).T).T
        for name, xi in columns.items()
    })
    header = ["x"]
    for name, vals in samples.items():
        comps = vals.shape[1]
        for c in range(comps):
            suffix = name if comps == 1 else "%s_c%d" % (name, c)
            header.extend(["re_%s" % suffix, "im_%s" % suffix])
    rows = []
    for k, x in enumerate(xs):
        row = [x]
        for vals in samples.values():
            for c in range(vals.shape[1]):
                row.extend([vals[k, c].real, vals[k, c].imag])
        rows.append(row)
    return header, rows


def _task_spectrum(cfg, args):
    model = _build_jc(cfg, "spectrum")
    which = cfg.str("spectrum.which", default="cjc", choices=("cjc", "tilde"))
    mat = jd.build_CJC(model) if which == "cjc" else jd.build_tilde_CJC(model)
    rep = jd.spectrum_report(mat)
    mults = np.repeat(rep["multiplicities"], rep["multiplicities"])
    header = ["index", "eigenvalue", "multiplicity"]
    rows = [
        [k, rep["eigenvalues"][k], int(mults[k])]
        for k in range(len(rep["eigenvalues"]))
    ]
    return header, rows


def _task_krein_kernel(cfg, args):
    spec = _build_model(cfg, "krein-kernel")
    if spec.family.startswith("dirac"):
        raise ConfigError(
            "%s: krein-kernel emits the scalar x,y,re_K,im_K schema; "
            "model.family %r has a spinor-valued kernel" % (cfg.path, spec.family)
        )
    cfg.require("krein.z", "krein-kernel")
    z = cfg.complex("krein.z")
    xs = _x_grid(cfg, "krein-kernel")
    triplet = build_triplet(spec)
    d = triplet.dim
    variant = cfg.str("krein.variant", default="operator",
                      choices=("theta0", "theta1", "operator"))
    if variant == "operator":
        if cfg.has("krein.theta"):
            if d != 1:
                raise ConfigError(
                    "%s: krein.theta is the d = 1 shortcut; family %r has "
                    "boundary dimension %d (use krein.entries)"
                    % (cfg._where("krein.theta"), spec.family, d)
                )
            B = np.array([[cfg.float("krein.theta")]])
        elif cfg.has("krein.entries"):
            entries = cfg.complex_list("krein.entries")
            if len(entries) != d * d:
                raise ConfigError(
                    "%s: krein.entries needs %d row-major entries for "
                    "boundary dimension %d, got %d"
                    % (cfg._where("krein.entries"), d * d, d, len(entries))
                )
            B = np.array(entries).reshape(d, d)
        else:
            raise ConfigError(
                "%s: krein.variant = operator needs krein.theta or krein.entries"
                % cfg.path
            )
        try:
            bc = BoundaryCondition.operator(B)
        except ValueError as exc:
            raise ConfigError("%s: krein.entries: %s" % (cfg.path, exc))
    else:
        bc = BoundaryCondition(variant)
    corr = krein_correction(triplet, bc, z)
    K = _sample_x_grid(cfg, xs, lambda: corr.kernel(xs, xs))
    K = np.asarray(K).reshape(len(xs), len(xs))
    header = ["x", "y", "re_K", "im_K"]
    rows = [
        [x, y, K[ix, iy].real, K[ix, iy].imag]
        for ix, x in enumerate(xs)
        for iy, y in enumerate(xs)
    ]
    return header, rows


# -- jc-run ---------------------------------------------------------------


def _complex_pair(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _task_jc_run(cfg, args):
    model = _build_jc(cfg, "jc-run")
    z = cfg.complex("jc.z", default=-1.0 + 0.5j)
    xs = _x_grid(cfg, "jc-run", default=[-1.0, 0.5])
    ct = jd.build_tilde_CJC(model)
    jac = jd.jacobi_reorder(ct, model)
    ke = jd.kernel_equivalence(model)
    dec = jd.decoupling_report(model, z=z)
    spec_c = jd.spectrum_report(jd.build_CJC(model))
    spec_t = jd.spectrum_tilde_CJC(model)
    corr = jd.dot_resolvent_correction(model, z, xs)
    doc = {
        "model": {
            "v_l": model.v_l, "v_r": model.v_r,
            "alpha": model.dot.alpha, "beta": model.dot.beta,
            "gamma_re": complex(model.dot.gamma).real,
            "gamma_im": complex(model.dot.gamma).imag,
            "tau": model.tau, "N": model.fock.N,
        },
        "z": _complex_pair(z),
        "seed": args.seed,
        "rq_consistency": jd.rq_consistency(model),
        "tilde_hermiticity": float(np.abs(ct - ct.conj().T).max()),
        "tilde_T_floor": float(np.min(np.real(np.diag(jd.tilde_T_part(model))))),
        "jacobi": {
            "off_chain_max": jac["off_chain_max"],
            "chain_block_diagonal": jac["chain_block_diagonal"],
            "fock_beyond_band_max": jac["fock_beyond_band_max"],
            "fock_block_tridiagonal": jac["fock_block_tridiagonal"],
        },
        "kernel_equivalence": ke,
        "decoupling": dec,
        "spectrum_CJC": {
            "eigenvalues": [float(v) for v in spec_c["eigenvalues"]],
            "multiplicities": [int(m) for m in spec_c["multiplicities"]],
        },
        "spectrum_tilde_CJC": {
            "eigenvalues": [float(v) for v in spec_t["eigenvalues"]],
            "multiplicities": [int(m) for m in spec_t["multiplicities"]],
        },
        "weyl_S_diag": [_complex_pair(v) for v in np.diag(jd.weyl_S(model, z))],
        "correction": {
            "x": [float(x) for x in xs],
            "shape": list(corr.shape),
            "re": [float(v) for v in corr.real.ravel()],
            "im": [float(v) for v in corr.imag.ravel()],
        },
    }
    return doc


# -- validate --------------------------------------------------------------


def _validate_checks(seed):
    """The built-in invariant suite: list of (name, residual, tolerance).

    A check passes when residual <= tolerance; verdict-style checks
    encode failure as residual 1 against tolerance 0.  Everything is
    deterministic given the seed.
    """
    checks = []

    def add(name, residual, tol):
        checks.append((name, float(residual), float(tol)))

    def add_flag(name, ok):
        checks.append((name, 0.0 if ok else 1.0, 0.0))

    # scalar coefficient catalogue: conjugate symmetry and positivity
    fns = hg.catalogue()
    res_grid = np.linspace(-5, 5, 12)
    im_grid = np.linspace(0.1, 5, 12)
    worst_sym = 0.0
    min_im = np.inf
    for fn in fns:
        for re in res_grid:
            for im in im_grid:
                z = complex(re, im)
                worst_sym = max(worst_sym, abs(fn(z) - np.conj(fn(np.conj(z)))))
                min_im = min(min_im, fn(z).imag)
    add("herglotz-conjugate-symmetry", worst_sym, 1e-12)
    add("herglotz-imag-positive", -min_im, 0.0)
    add("herglotz-anchor-value",
        abs(hg.m_schrodinger_halfline(1j) - complex(-1, 1) / np.sqrt(2)), 1e-15)
    add("dirac-k1-gap-value",
        abs(hg.dirac_k1(0.25, 1.0) - 0.5773502691896257j), 1e-15)
    add("dirac-interval-branch2-at-s",
        abs(hg.m_dirac(0.5, 1.0, "interval", 1.0, 2) + 1.0), 1e-12)

    # finite-difference oracle: m-function value and h^2 convergence
    m_h = fd_m_function(FDGrid(2e-3, 40.0), -1.0)
    m_h2 = fd_m_function(FDGrid(1e-3, 40.0), -1.0)
    add("fd-m-function-value", abs(m_h + 1.0), 1e-4)
    add("fd-m-convergence-ratio", abs(abs(m_h + 1.0) / abs(m_h2 + 1.0) - 4.0), 0.5)

    # Krein correction against the FD resolvent difference (Robin theta = 1)
    xs = np.array([0.4, 1.0, 2.2])
    K_fd = fd_resolvent_difference(FDGrid(5e-3, 30.0), 1.0, -1.0, xs, xs)
    right = build_triplet(schrodinger_right())
    K_an = krein_correction(
        right, BoundaryCondition.operator(np.array([[1.0]])), -1.0
    ).kernel(xs, xs)
    add("krein-vs-fd-kernel", np.abs(K_fd - K_an).max() / np.abs(K_an).max(), 1e-2)

    # analytic closed form of the same correction
    z0 = 2.0 + 1.0j
    w = hg.sqrt_cut(z0)
    K_pkg = krein_correction(
        right, BoundaryCondition.operator(np.array([[0.7]])), z0
    ).kernel(xs, xs)
    K_closed = np.exp(1j * w * np.add.outer(xs, xs)) / (0.7 - 1j * w)
    add("krein-closed-form-kernel", np.abs(K_pkg - K_closed).max(), 1e-12)

    # dense brute-force toys
    worst_green = worst_krein = worst_ml = 0.0
    rng = np.random.default_rng(seed)
    for k in range(3):
        toy = make_dense_toy(6, 2, seed + k)
        worst_green = max(worst_green, toy.green_identity_residual())
        B = toy.Q0 + np.eye(2)
        trip = toy.as_triplet()
        for z in (1j, -2.0 + 0.5j, 1.5 + 2.0j):
            corr = krein_correction(trip, BoundaryCondition.operator(B), z).dense()
            direct = toy.direct_resolvent_difference(B, z)
            worst_krein = max(worst_krein, np.abs(corr - direct).max())
        pairs = rng.standard_normal((5, 4))
        for re1, im1, re2, im2 in pairs:
            worst_ml = max(
                worst_ml,
                herglotz_identity_residual(
                    trip, complex(re1, 1 + abs(im1)), complex(re2, 1 + abs(im2))
                ),
            )
    add("dense-toy-green-identity", worst_green, 1e-11)
    add("dense-toy-krein-equivalence", worst_krein, 1e-10)
    add("dense-toy-mlambda-identity", worst_ml, 1e-12)

    # half-line quadrature route for the same identity
    worst = 0.0
    for z, zeta in ((1j, 2.0 + 1.0j), (-1.0 + 0.5j, 0.5 + 2.0j)):
        worst = max(worst, herglotz_identity_residual(right, z, zeta))
    add("halfline-mlambda-quadrature", worst, 1e-8)

    # model catalogue: boundary data reproduces (I, M(z)); defect equations
    worst = 0.0
    for spec in (schrodinger_right(), schrodinger_left(), schrodinger_interval(),
                 dirac_right(), dirac_interval(), full_line_contact()):
        G0, G1 = gamma_boundary_data(spec, z0)
        M = build_triplet(spec).weyl(z0)
        dim = M.shape[0]
        worst = max(worst, np.abs(G0 - np.eye(dim)).max(), np.abs(G1 - M).max())
    add("gamma-boundary-data-identity", worst, 1e-12)
    add("defect-equation-schrodinger",
        verify_defect_equation(schrodinger_interval(), z0,
                               np.linspace(-0.9, 0.9, 1801)), 1e-5)
    add("defect-equation-dirac",
        verify_defect_equation(dirac_right(), z0,
                               np.linspace(0.0, 2.0, 2001)), 1e-5)

    # tensor constructions
    base = right
    meas = SpectralMeasurePP.from_levels(range(6))
    tt = tensor_normalized(base, meas)
    add("tensor-normalized-anchor",
        np.abs(tt.assembled.weyl(1j) - 1j * np.eye(6)).max(), 1e-12)
    renorm = tensor_normalized(tt.assembled, SpectralMeasurePP.from_levels([0]))
    add("normalize-idempotence",
        np.abs(renorm.assembled.weyl(z0) - tt.assembled.weyl(z0)).max(), 1e-10)
    add("tensor-mlambda-identity",
        herglotz_identity_residual(tt.assembled, -1.0 + 0.5j, 0.5 + 2.0j), 1e-8)
    single = tensor_normalized(base, SpectralMeasurePP.from_levels([0]))
    Mi_b = base.weyl(1j)
    Wb = 1.0 / np.sqrt(Mi_b[0, 0].imag)
    m_direct = Wb * (base.weyl(z0)[0, 0] - Mi_b[0, 0].real) * Wb
    add("tensor-single-atom-reduction",
        abs(single.assembled.weyl(z0)[0, 0] - m_direct), 1e-13)

    # growth certificates of the normalization weights
    certs = weight_growth_certificates(lambda z: hg.m_schrodinger_halfline(z))
    add("growth-exponent-inv-sqrt",
        abs(certs["im_inv_sqrt"]["fitted_exponent"] - 1.0), 0.1)
    add("growth-exponent-l-kernel", abs(certs["l_kernel"]["fitted_exponent"]), 0.1)
    add_flag("growth-certificates-dominate",
             certs["im_sqrt"]["dominates"] and certs["im_inv_sqrt"]["dominates"]
             and certs["l_kernel"]["dominates"])

    # Friedrichs / Krein / lower-semibounded probes
    probe = friedrichs_krein_tensor_check(
        base, SpectralMeasurePP.from_levels([0, 1, 2]), seed=seed
    )
    add_flag("friedrichs-verdict", probe["friedrichs"])
    add_flag("krein-verdict-false", not probe["krein"])
    add_flag("lsb-windows-found",
             all(lev["found"] and lev["x_N"] <= -lev["N"] ** 2
                 for lev in probe["lsb"]))

    # spectral integrals: functional calculus, multiplicativity, tail plan
    meas_fc = SpectralMeasurePP(atoms=((0.25, 1), (1.0, 2), (4.0, 1)))
    T_full = np.diag(np.repeat([lam for lam, _ in meas_fc.atoms],
                               [dk for _, dk in meas_fc.atoms])).astype(complex)
    worst = 0.0
    for name, fn in (("square", lambda x: x * x),
                     ("sqrt", np.sqrt),
                     ("inv-sqrt", lambda x: 1.0 / np.sqrt(x))):
        omega = OperatorFunctionOnR(1, lambda lam, f=fn: np.array([[f(lam)]]))
        lhs = integral_pp(omega, meas_fc)
        rhs = hermitian_funcm(T_full, fn, what="functional calculus (%s)" % name)
        worst = max(worst, np.abs(lhs - rhs).max())
    add("spectral-functional-calculus", worst, 1e-10)
    om1 = OperatorFunctionOnR(1, lambda lam: np.array([[lam + 1.0]]))
    om2 = OperatorFunctionOnR(1, lambda lam: np.array([[1.0 / (lam + 1.0)]]))
    om12 = OperatorFunctionOnR(1, lambda lam: om1(lam) @ om2(lam))
    add("spectral-multiplicativity",
        np.abs(integral_pp(om12, meas_fc)
               - integral_pp(om1, meas_fc) @ integral_pp(om2, meas_fc)).max(),
        1e-12)
    add("spectral-riemann-vs-pp",
        np.abs(integral_riemann(om1, meas_fc) - integral_pp(om1, meas_fc)).max(),
        1e-10)
    omega_lin = OperatorFunctionOnR(
        1, lambda lam: np.array([[1.0 + lam]]), C0=1.0, alpha=1.0
    )
    plan = truncation_plan(omega_lin, range(2000), lambda k: 2.0 ** -k, tol=1e-8)
    lo, hi = plan["window"]
    tail = sum((1.0 + k) ** 2 * 2.0 ** -k
               for k in range(2000) if not (lo <= k <= hi))
    add("truncation-plan-tail",
        max(tail - plan["tail_bound"], plan["tail_bound"] - 1e-16), 1e-18)

    # Jaynes-Cummings dot model
    worst = 0.0
    for v_l, v_r in ((0.0, 0.0), (0.0, 2.0), (1.0, 3.0)):
        worst = max(worst, jd.rq_consistency(jd.JCModel(
            v_l, v_r, jd.TwoLevelDot(0.0, 1.0), 1.0, jd.FockTruncation(20))))
    add("jc-rq-consistency", worst, 1e-12)
    model = jd.JCModel(1.0, 3.0, jd.TwoLevelDot(0.2, 1.4, 0.1j), 1.2,
                       jd.FockTruncation(20))
    ct = jd.build_tilde_CJC(model)
    add("jc-tilde-hermiticity", np.abs(ct - ct.conj().T).max(), 1e-12)
    add("jc-tilde-T-floor",
        1.0 - 1e-12 - np.min(np.real(np.diag(jd.tilde_T_part(model)))), 0.0)
    jac = jd.jacobi_reorder(ct, model)
    add("jc-chain-off-diagonal", jd.jacobi_reorder(jd.build_CJC(model), model)["off_chain_max"], 0.0)
    add("jc-fock-beyond-band", jac["fock_beyond_band_max"], 1e-14)
    resonant = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.0, 1.0), 1.0,
                          jd.FockTruncation(1))
    add("jc-resonant-spectrum",
        np.abs(jd.spectrum_report(jd.build_CJC(resonant))["eigenvalues"]
               - [0.0, 0.0, 2.0, 2.0]).max(), 1e-12)
    ke = jd.kernel_equivalence(model)
    add("jc-kernel-equivalence", ke["max_principal_angle"], 1e-10)
    add("jc-weyl-anchor",
        np.abs(jd.weyl_S(model, 1j) - 1j * np.eye(model.boundary_dim)).max(), 0.0)
    small = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.1, 0.9, 0.2), 0.7,
                       jd.FockTruncation(0))
    xs_c = np.array([-0.6, 0.4])
    zc = -1.0 + 0.5j
    K_dot = jd.dot_resolvent_correction(small, zc, xs_c)[:, :, 0, 0]
    fl = build_triplet(full_line_contact())
    Mi = fl.weyl(1j)
    Wn = np.diag(1.0 / np.sqrt(np.diag(Mi).imag))
    Mt = Wn @ (fl.weyl(zc) - np.diag(np.diag(Mi).real)) @ Wn
    A = np.linalg.solve(jd.build_tilde_CJC(small) - Mt, np.eye(2))
    cz = np.stack([eval_gamma_on_grid(fl, zc, np.eye(2)[:, j], xs_c)
                   for j in range(2)], axis=1)
    czb = np.stack([eval_gamma_on_grid(fl, np.conj(zc), np.eye(2)[:, j], xs_c)
                    for j in range(2)], axis=1)
    K_hand = np.einsum("xj,jk,yk->xy", cz @ Wn, A, np.conj(czb @ Wn))
    add("jc-correction-rank-one-reduction", np.abs(K_dot - K_hand).max(), 1e-12)
    return checks


def _validate_text(checks, fmt):
    """Render the checks as csv or as an aligned table; returns (text, n_fail)."""
    rows = [("check", "residual", "tolerance", "status")] + [
        (name, _fmt(residual), _fmt(tol), "ok" if residual <= tol else "FAIL")
        for name, residual, tol in checks
    ]
    n_fail = sum(row[3] == "FAIL" for row in rows)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n", n_fail
    width = max(len(name) for name, _, _ in checks) + 2
    lines = ["%-*s %-26s %-26s %s" % (width, *row) for row in rows]
    lines.append("%d checks, %d passed, %d failed"
                 % (len(checks), len(checks) - n_fail, n_fail))
    return "\n".join(lines) + "\n", n_fail


# -- output plumbing --------------------------------------------------------


def _render_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            '%s  %s: %s' % (pad, json.dumps(str(k)), _render_json(v, indent + 1))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n%s}" % pad
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ["%s  %s" % (pad, _render_json(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(items) + "\n%s]" % pad
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError("cannot render %r" % type(obj))


def _table_text(header, rows, fmt):
    if fmt == "json":
        return _render_json({"columns": list(header), "rows": rows}) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(int(cell)) if isinstance(cell, (int, np.integer)) else _fmt(cell)
            for cell in row
        ))
    return "\n".join(lines) + "\n"


def _write_out(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    # newline='' keeps the emitted bytes platform-independent
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


# -- entry point --------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="weyl-triplets",
        description="Weyl functions, Krein corrections and the "
        "Jaynes-Cummings dot model from config files.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="key = value or .json config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="table format (default csv; jc-run is always json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for grid fan-out")
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = Config.from_file(args.config)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.task == "validate":
            text, n_fail = _validate_text(_validate_checks(args.seed), args.format)
            _write_out(text, args.out)
            return EXIT_OK if n_fail == 0 else EXIT_VALIDATION
        if args.task == "jc-run":
            if args.format == "csv":
                raise ConfigError("jc-run emits a JSON document; csv is not available")
            doc = _task_jc_run(cfg, args)
            _write_out(_render_json(doc) + "\n", args.out)
            return EXIT_OK
        task_fn = {
            "weyl-sample": _task_weyl_sample,
            "gamma-sample": _task_gamma_sample,
            "spectrum": _task_spectrum,
            "krein-kernel": _task_krein_kernel,
        }[args.task]
        header, rows = task_fn(cfg, args)
        _write_out(_table_text(header, rows, args.format or "csv"), args.out)
        return EXIT_OK
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print("numeric failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
