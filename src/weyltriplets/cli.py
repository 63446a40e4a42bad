"""Command-line driver: config files in, deterministic tables out.

Usage::

    weyl-triplets <task> --config <path> [--out <path>] [--format csv|json]
                  [--seed <int>]

with task one of ``weyl-sample``, ``gamma-sample``, ``spectrum``,
``krein-kernel``, ``validate``, ``jc-run``.

Config files are flat ``key = value`` text with dotted section prefixes
(``model.family = schrodinger-right``, ``jc.N = 20``); ``#`` starts a
comment.  A file ending in ``.json`` is read as a JSON object instead
(nested objects are flattened with dots, so both mirrors of the same
config are accepted).  Complex numbers are Python literals without
spaces (``-1+0.5j``); in JSON a two-number ``[re, im]`` array also
works.  In JSON the list keys ``grid.z_list``, ``gamma.xi`` and
``krein.entries`` take an array whose items are numbers, literals or
``[re, im]`` pairs.

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
count can change the rounding of dense solves and SVDs).  Exit codes:
0 ok, 1 validation failure, 2 config error, 3 numeric failure (including
a non-finite number in the output of a data task: each table is checked
once before anything is written, and the message names its first
non-finite value in row order).
"""

import argparse
import inspect
import json
import sys
from math import isfinite

import numpy as np

from . import herglotz as hg
from . import jcdot as jd
from ._linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    hermitian_funcm,
)
from .models1d import (
    FACTORIES,
    FAMILIES,
    FAMILY_TABLE,
    build_triplet,
    dirac_right,
    eval_gamma_on_grid,
    full_line_contact,
    gamma_boundary_data,
    schrodinger_interval,
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


# The most memory a task may be estimated to need; the estimate is made
# before the task allocates.  The estimates of a grid task are about twice
# the peak measured (tracemalloc) per grid point, cell or header name:
# 64 bytes a weyl-sample cell and 80 a header name, 1024 a gamma-sample x,
# 512 a krein-kernel (x, y) pair and a jc-run (x, y, Fock, Fock) entry.
_MAX_BYTES = 2 ** 31


# keys whose JSON value may be an array of items, each a number, a string
# or an [re, im] pair
_LIST_KEYS = frozenset(["grid.z_list", "gamma.xi", "krein.entries"])

_KNOWN_KEYS = frozenset(
    ["model." + p for factory in FACTORIES.values() for p in inspect.signature(factory).parameters]
    + [
        "model.family",
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
    """Round-trip-safe decimal rendering (17 significant digits) of a finite number."""
    x = float(x)
    if not isfinite(x):
        raise ArithmeticError("non-finite result %r" % x)
    return format(x, ".17g")


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

        def item(key, val):
            """One value of ``key`` as config text; two numbers are complex [re, im]."""
            if isinstance(val, list) and len(val) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
            ):
                try:
                    return repr(complex(val[0], val[1]))
                except OverflowError:
                    raise ConfigError("%s: key %r: number out of range in %r" % (path, key, val))
            return str(val)

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
                if full in _LIST_KEYS and isinstance(val, list):
                    values[full] = ",".join(item(full, x) for x in val)
                else:
                    values[full] = item(full, val)

        flatten("", obj)
        return cls(values, {k: 0 for k in values}, path)

    # -- typed getters ------------------------------------------------

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

    def _parse(self, key, raw, kind, convert):
        """``convert(raw)``; a ConfigError naming the key if it fails or is not finite."""
        try:
            val = convert(raw)
        except ValueError:
            raise ConfigError(
                "%s: key %r: invalid %s %r" % (self._where(key), key, kind, raw)
            )
        # an int is always finite, and np.isfinite rejects one beyond int64
        if not isinstance(val, int) and not np.isfinite(val):
            raise ConfigError(
                "%s: key %r: non-finite value %r" % (self._where(key), key, raw)
            )
        return val

    def _get(self, key, default, kind, convert):
        if key in self.values:
            return self._parse(key, self.values[key], kind, convert)
        if default is None:
            raise ConfigError("%s: missing key %r" % (self.path, key))
        return default

    def float(self, key, default=None):
        return self._get(key, default, "real number", float)

    def int(self, key, default=None):
        return self._get(key, default, "integer", int)

    def complex(self, key, default=None):
        return self._get(key, default, "complex literal",
                         lambda raw: complex(raw.replace(" ", "")))

    def complex_list(self, key):
        parts = [part.strip().replace(" ", "") for part in self.values.get(key, "").split(",")]
        out = [self._parse(key, part, "complex literal", complex) for part in parts if part]
        if not out:
            raise ConfigError(
                "%s: key %r: expected a comma-separated list" % (self._where(key), key)
            )
        return out


# -- model builders ----------------------------------------------------


def _build_model(cfg, task):
    cfg.require("model.family", task)
    family = cfg.str("model.family", choices=FAMILIES)
    params = inspect.signature(FACTORIES[family]).parameters
    for key in cfg.values:
        if key.startswith("model.") and key[len("model."):] not in ("family", *params):
            raise ConfigError("%s: key %r: family %r takes only model.%s"
                              % (cfg._where(key), key, family, ", model.".join(params)))
    kwargs = {name: cfg.float("model." + name, p.default) for name, p in params.items()}
    try:
        return FACTORIES[family](**kwargs)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (cfg.path, exc))


def _build_jc(cfg, task, matrices):
    """The dot model; the task holds about ``matrices`` dense complex m x m
    matrices at its peak (m = 2 (N + 1)), which bounds jc.N."""
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
        model = jd.JCModel(
            v_l=v_l, v_r=v_r, dot=dot, tau=tau, fock=jd.FockTruncation(N)
        )
    except ValueError as exc:
        raise ConfigError("%s: %s" % (cfg.path, exc))
    # the model allocates lazily, on first use
    _check_size(cfg, "jc.N", 16 * matrices * model.boundary_dim ** 2)
    return model


def _check_size(cfg, key, nbytes):
    """A ConfigError naming ``key`` if a task would need more than _MAX_BYTES."""
    if nbytes > _MAX_BYTES:
        raise ConfigError("%s: key %r: the task would need about %.3g GB (at most %.3g GB)"
                          % (cfg._where(key), key, nbytes / 1e9, _MAX_BYTES / 1e9))


def _grid_count(cfg, key):
    n = cfg.int(key)
    if n < 1:
        raise ConfigError("%s: %s must be >= 1" % (cfg._where(key), key))
    return n


def _z_grid(cfg, task, nbytes):
    """The z-grid; ``nbytes(rows)`` estimates what the task needs for that many points."""
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
        zs = cfg.complex_list("grid.z_list")
        _check_size(cfg, "grid.z_list", nbytes(len(zs)))
        return zs
    if has_rect:
        for key in rect_keys:
            cfg.require(key, task)
        re_lo, re_hi, re_n = (cfg.float("grid.re_min"), cfg.float("grid.re_max"),
                              _grid_count(cfg, "grid.re_n"))
        im_lo, im_hi, im_n = (cfg.float("grid.im_min"), cfg.float("grid.im_max"),
                              _grid_count(cfg, "grid.im_n"))
        _check_size(cfg, "grid.re_n" if re_n >= im_n else "grid.im_n", nbytes(re_n * im_n))
        res, ims = np.linspace(re_lo, re_hi, re_n), np.linspace(im_lo, im_hi, im_n)
        return [complex(re, im) for re in res for im in ims]
    raise ConfigError(
        "%s: task %r needs grid.z_list or the grid rectangle keys"
        % (cfg.path, task)
    )


def _x_grid(cfg, task, nbytes, default=None):
    """The x-grid; ``nbytes(n)`` estimates what the task needs for n points."""
    keys = ("grid.x_min", "grid.x_max", "grid.x_n")
    if not any(cfg.has(k) for k in keys):
        if default is not None:
            return np.asarray(default, dtype=float)
        raise ConfigError("%s: task %r needs grid.x_min/x_max/x_n" % (cfg.path, task))
    for key in keys:
        cfg.require(key, task)
    n = _grid_count(cfg, "grid.x_n")
    _check_size(cfg, "grid.x_n", nbytes(n))
    return np.linspace(cfg.float("grid.x_min"), cfg.float("grid.x_max"), n)


def _sample_x_grid(cfg, xs, sample):
    """Run ``sample()``; an x-grid point outside the kernel domain is a config error."""
    try:
        return sample()
    except DomainError as exc:
        key = "grid.x_min" if exc.x == xs[0] else "grid.x_max"
        raise ConfigError("%s: key %r: %s" % (cfg._where(key), key, exc))


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
    else:
        weyl = _build_jc(cfg, "weyl-sample", matrices=1).lead_weyl
    zs = _z_grid(cfg, "weyl-sample", lambda rows: (64 * rows + 80) * (2 + 2 * weyl.dim ** 2))
    header = ["re_z", "im_z"] + ["%s_m_%d_%d" % (part, i, j) for i in range(weyl.dim)
                                 for j in range(weyl.dim) for part in ("re", "im")]
    # one scalar evaluation per Python complex z: numpy and cmath round differently
    ms = np.array([weyl(z) for z in zs], dtype=complex).reshape(len(zs), -1)
    return header, np.column_stack([np.real(zs), np.imag(zs), ms.view(float)])


def _task_gamma_sample(cfg, args):
    spec = _build_model(cfg, "gamma-sample")
    cfg.require("gamma.z", "gamma-sample")
    z = cfg.complex("gamma.z")
    xs = _x_grid(cfg, "gamma-sample", lambda n: 1024 * n)
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
    # each sample as (len(xs), 2 * components) reals: re, im per component
    samples = _sample_x_grid(cfg, xs, lambda: {
        name: np.ascontiguousarray(eval_gamma_on_grid(triplet, z, xi, xs), dtype=complex)
        .reshape(len(xs), -1).view(float)
        for name, xi in columns.items()
    })
    header = ["x"]
    for name, vals in samples.items():
        comps = vals.shape[1] // 2
        for c in range(comps):
            suffix = name if comps == 1 else "%s_c%d" % (name, c)
            header.extend(["re_%s" % suffix, "im_%s" % suffix])
    return header, np.column_stack([xs, *samples.values()])


def _task_spectrum(cfg, args):
    model = _build_jc(cfg, "spectrum", matrices=4)  # 3 measured at N = 100 and 200
    which = cfg.str("spectrum.which", default="cjc", choices=("cjc", "tilde"))
    mat = jd.build_CJC(model) if which == "cjc" else jd.build_tilde_CJC(model)
    rep = jd.spectrum_report(mat)
    vals = rep["eigenvalues"]
    mults = np.repeat(rep["multiplicities"], rep["multiplicities"])
    return ["index", "eigenvalue", "multiplicity"], np.column_stack(
        [np.arange(len(vals)), vals, mults])


def _task_krein_kernel(cfg, args):
    spec = _build_model(cfg, "krein-kernel")
    if FAMILY_TABLE[spec.family].value_dim != 1:
        raise ConfigError(
            "%s: krein-kernel emits the scalar x,y,re_K,im_K schema; "
            "model.family %r has a spinor-valued kernel" % (cfg.path, spec.family)
        )
    cfg.require("krein.z", "krein-kernel")
    z = cfg.complex("krein.z")
    xs = _x_grid(cfg, "krein-kernel", lambda n: 512 * n * n)
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
    n = len(xs)
    K = np.asarray(_sample_x_grid(cfg, xs, lambda: corr.kernel(xs, xs))).reshape(n, n)
    return ["x", "y", "re_K", "im_K"], np.column_stack(
        [np.repeat(xs, n), np.tile(xs, n), K.real.ravel(), K.imag.ravel()])


# -- jc-run ---------------------------------------------------------------


def _complex_pair(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _spectrum_doc(rep):
    return {"eigenvalues": [float(v) for v in rep["eigenvalues"]],
            "multiplicities": [int(m) for m in rep["multiplicities"]]}


def _task_jc_run(cfg, args):
    model = _build_jc(cfg, "jc-run", matrices=32)  # 26 measured at N = 100 and 200
    z = cfg.complex("jc.z", default=-1.0 + 0.5j)
    xs = _x_grid(cfg, "jc-run", lambda n: 512 * (n * model.fock.dim) ** 2, default=[-1.0, 0.5])
    ct = jd.build_tilde_CJC(model)
    jac = jd.jacobi_reorder(ct, model)
    ke = jd.kernel_equivalence(model)
    dec = jd.decoupling_report(model, z=z)
    corr = jd.dot_resolvent_correction(model, z, xs)
    return {
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
        "spectrum_CJC": _spectrum_doc(jd.spectrum_report(jd.build_CJC(model))),
        "spectrum_tilde_CJC": _spectrum_doc(jd.spectrum_report(model.tilde_CJC)),
        "weyl_S_diag": [_complex_pair(v) for v in np.diag(jd.weyl_S(model, z))],
        "correction": {
            "x": [float(x) for x in xs],
            "shape": list(corr.shape),
            "re": [float(v) for v in corr.real.ravel()],
            "im": [float(v) for v in corr.imag.ravel()],
        },
    }


# -- validate --------------------------------------------------------------


def _catalogue_residuals():
    """Worst conjugate-symmetry defect and least Im m(z) over the scalar catalogue."""
    worst_sym, min_im = 0.0, np.inf
    for fn in hg.catalogue():
        for re in np.linspace(-5, 5, 12):
            for im in np.linspace(0.1, 5, 12):
                z = complex(re, im)
                m = fn(z)
                worst_sym = max(worst_sym, abs(m - np.conj(fn(np.conj(z)))))
                min_im = min(min_im, m.imag)
    return worst_sym, min_im


def _dense_toy_residuals(seed):
    """Worst Green identity, Krein-vs-direct and M-Lambda residuals of three dense toys."""
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
        for re1, im1, re2, im2 in rng.standard_normal((5, 4)):
            worst_ml = max(
                worst_ml,
                herglotz_identity_residual(
                    trip, complex(re1, 1 + abs(im1)), complex(re2, 1 + abs(im2))
                ),
            )
    return worst_green, worst_krein, worst_ml


def _jc_rank_one_residual():
    """Dot correction kernel at N = 0 against its hand-built rank-one form."""
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
    cz, czb = (np.stack([eval_gamma_on_grid(fl, w, np.eye(2)[:, j], xs_c)
                         for j in range(2)], axis=1) for w in (zc, np.conj(zc)))
    K_hand = np.einsum("xj,jk,yk->xy", cz @ Wn, A, np.conj(czb @ Wn))
    return np.abs(K_dot - K_hand).max()


def _validate_checks(seed):
    """The built-in invariant suite: list of (name, residual, tolerance).

    A check passes when residual <= tolerance; a verdict is float(not ok)
    against tolerance 0.  Everything is deterministic given the seed.
    """
    right = build_triplet(schrodinger_right())
    xs = np.array([0.4, 1.0, 2.2])
    z0 = 2.0 + 1.0j
    sym, min_im = _catalogue_residuals()
    m_h, m_h2 = (fd_m_function(FDGrid(h, 40.0), -1.0) for h in (2e-3, 1e-3))
    K_fd = fd_resolvent_difference(FDGrid(5e-3, 30.0), 1.0, -1.0, xs, xs)
    K_an = krein_correction(
        right, BoundaryCondition.operator(np.array([[1.0]])), -1.0
    ).kernel(xs, xs)
    w = hg.sqrt_cut(z0)
    K_pkg = krein_correction(
        right, BoundaryCondition.operator(np.array([[0.7]])), z0
    ).kernel(xs, xs)
    K_closed = np.exp(1j * w * np.add.outer(xs, xs)) / (0.7 - 1j * w)
    green, krein, ml = _dense_toy_residuals(seed)
    specs = [factory() for factory in FACTORIES.values()]
    boundary_data = [(gamma_boundary_data(spec, z0), build_triplet(spec).weyl(z0))
                     for spec in specs]
    tt = tensor_normalized(right, SpectralMeasurePP.from_levels(range(6)))
    renorm = tensor_normalized(tt.assembled, SpectralMeasurePP.from_levels([0]))
    single = tensor_normalized(right, SpectralMeasurePP.from_levels([0]))
    Mi_b = right.weyl(1j)
    Wb = 1.0 / np.sqrt(Mi_b[0, 0].imag)
    m_direct = Wb * (right.weyl(z0)[0, 0] - Mi_b[0, 0].real) * Wb
    certs = weight_growth_certificates(lambda z: hg.m_schrodinger_halfline(z))
    probe = friedrichs_krein_tensor_check(
        right, SpectralMeasurePP.from_levels([0, 1, 2]), seed=seed
    )
    meas_fc = SpectralMeasurePP(atoms=((0.25, 1), (1.0, 2), (4.0, 1)))
    T_full = np.diag(np.repeat([lam for lam, _ in meas_fc.atoms],
                               [dk for _, dk in meas_fc.atoms])).astype(complex)
    funcm = 0.0
    for name, fn in (("square", lambda x: x * x),
                     ("sqrt", np.sqrt),
                     ("inv-sqrt", lambda x: 1.0 / np.sqrt(x))):
        omega = OperatorFunctionOnR(1, lambda lam, f=fn: np.array([[f(lam)]]))
        rhs = hermitian_funcm(T_full, fn, what="functional calculus (%s)" % name)
        funcm = max(funcm, np.abs(integral_pp(omega, meas_fc) - rhs).max())
    om1 = OperatorFunctionOnR(1, lambda lam: np.array([[lam + 1.0]]))
    om2 = OperatorFunctionOnR(1, lambda lam: np.array([[1.0 / (lam + 1.0)]]))
    om12 = OperatorFunctionOnR(1, lambda lam: om1(lam) @ om2(lam))
    omega_lin = OperatorFunctionOnR(
        1, lambda lam: np.array([[1.0 + lam]]), C0=1.0, alpha=1.0
    )
    plan = truncation_plan(omega_lin, range(2000), lambda k: 2.0 ** -k, tol=1e-8)
    lo, hi = plan["window"]
    tail = sum((1.0 + k) ** 2 * 2.0 ** -k for k in range(2000) if not (lo <= k <= hi))
    model = jd.JCModel(1.0, 3.0, jd.TwoLevelDot(0.2, 1.4, 0.1j), 1.2,
                       jd.FockTruncation(20))
    ct = jd.build_tilde_CJC(model)
    resonant = jd.JCModel(0.0, 0.0, jd.TwoLevelDot(0.0, 1.0), 1.0,
                          jd.FockTruncation(1))
    checks = [
        ("herglotz-conjugate-symmetry", sym, 1e-12),
        ("herglotz-imag-positive", -min_im, 0.0),
        ("herglotz-anchor-value",
         abs(hg.m_schrodinger_halfline(1j) - complex(-1, 1) / np.sqrt(2)), 1e-15),
        ("dirac-k1-gap-value", abs(hg.dirac_k1(0.25, 1.0) - 0.5773502691896257j), 1e-15),
        ("dirac-interval-branch2-at-s",
         abs(hg.m_dirac(0.5, 1.0, "interval", 1.0, 2) + 1.0), 1e-12),
        ("fd-m-function-value", abs(m_h + 1.0), 1e-4),
        ("fd-m-convergence-ratio", abs(abs(m_h + 1.0) / abs(m_h2 + 1.0) - 4.0), 0.5),
        ("krein-vs-fd-kernel", np.abs(K_fd - K_an).max() / np.abs(K_an).max(), 1e-2),
        ("krein-closed-form-kernel", np.abs(K_pkg - K_closed).max(), 1e-12),
        ("dense-toy-green-identity", green, 1e-11),
        ("dense-toy-krein-equivalence", krein, 1e-10),
        ("dense-toy-mlambda-identity", ml, 1e-12),
        ("halfline-mlambda-quadrature",
         max(herglotz_identity_residual(right, z, zeta)
             for z, zeta in ((1j, 2.0 + 1.0j), (-1.0 + 0.5j, 0.5 + 2.0j))), 1e-8),
        ("gamma-boundary-data-identity",
         max(max(np.abs(G0 - np.eye(M.shape[0])).max(), np.abs(G1 - M).max())
             for (G0, G1), M in boundary_data), 1e-12),
        ("defect-equation-schrodinger",
         verify_defect_equation(schrodinger_interval(), z0,
                                np.linspace(-0.9, 0.9, 1801)), 1e-5),
        ("defect-equation-dirac",
         verify_defect_equation(dirac_right(), z0, np.linspace(0.0, 2.0, 2001)), 1e-5),
        ("tensor-normalized-anchor",
         np.abs(tt.assembled.weyl(1j) - 1j * np.eye(6)).max(), 1e-12),
        ("normalize-idempotence",
         np.abs(renorm.assembled.weyl(z0) - tt.assembled.weyl(z0)).max(), 1e-10),
        ("tensor-mlambda-identity",
         herglotz_identity_residual(tt.assembled, -1.0 + 0.5j, 0.5 + 2.0j), 1e-8),
        ("tensor-single-atom-reduction",
         abs(single.assembled.weyl(z0)[0, 0] - m_direct), 1e-13),
        ("growth-exponent-inv-sqrt",
         abs(certs["im_inv_sqrt"]["fitted_exponent"] - 1.0), 0.1),
        ("growth-exponent-l-kernel", abs(certs["l_kernel"]["fitted_exponent"]), 0.1),
        ("growth-certificates-dominate",
         not (certs["im_sqrt"]["dominates"] and certs["im_inv_sqrt"]["dominates"]
              and certs["l_kernel"]["dominates"]), 0.0),
        ("friedrichs-verdict", not probe["friedrichs"], 0.0),
        ("krein-verdict-false", bool(probe["krein"]), 0.0),
        ("lsb-windows-found",
         not all(lev["found"] and lev["x_N"] <= -lev["N"] ** 2 for lev in probe["lsb"]),
         0.0),
        ("spectral-functional-calculus", funcm, 1e-10),
        ("spectral-multiplicativity",
         np.abs(integral_pp(om12, meas_fc)
                - integral_pp(om1, meas_fc) @ integral_pp(om2, meas_fc)).max(), 1e-12),
        ("spectral-riemann-vs-pp",
         np.abs(integral_riemann(om1, meas_fc) - integral_pp(om1, meas_fc)).max(), 1e-10),
        ("truncation-plan-tail",
         max(tail - plan["tail_bound"], plan["tail_bound"] - 1e-16), 1e-18),
        ("jc-rq-consistency",
         max(jd.rq_consistency(jd.JCModel(v_l, v_r, jd.TwoLevelDot(0.0, 1.0), 1.0,
                                          jd.FockTruncation(20)))
             for v_l, v_r in ((0.0, 0.0), (0.0, 2.0), (1.0, 3.0))), 1e-12),
        ("jc-tilde-hermiticity", np.abs(ct - ct.conj().T).max(), 1e-12),
        ("jc-tilde-T-floor",
         1.0 - 1e-12 - np.min(np.real(np.diag(jd.tilde_T_part(model)))), 0.0),
        ("jc-chain-off-diagonal",
         jd.jacobi_reorder(jd.build_CJC(model), model)["off_chain_max"], 0.0),
        ("jc-fock-beyond-band", jd.jacobi_reorder(ct, model)["fock_beyond_band_max"], 1e-14),
        ("jc-resonant-spectrum",
         np.abs(jd.spectrum_report(jd.build_CJC(resonant))["eigenvalues"]
                - [0.0, 0.0, 2.0, 2.0]).max(), 1e-12),
        ("jc-kernel-equivalence",
         jd.kernel_equivalence(model)["max_principal_angle"], 1e-10),
        ("jc-weyl-anchor",
         np.abs(jd.weyl_S(model, 1j) - 1j * np.eye(model.boundary_dim)).max(), 0.0),
        ("jc-correction-rank-one-reduction", _jc_rank_one_residual(), 1e-12),
    ]
    return [(name, float(residual), float(tol)) for name, residual, tol in checks]


def _validate_text(checks, fmt):
    """Render the checks as csv or as an aligned table; returns (text, n_fail).

    A NaN or infinite residual is printed as is and fails its check."""
    rows = [("check", "residual", "tolerance", "status")] + [
        (name, format(residual, ".17g"), format(tol, ".17g"),
         "ok" if residual <= tol else "FAIL")
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


def _table_text(header, table, fmt):
    """Render a 2-D float64 array as csv or JSON, every cell as ``%.17g``.

    Finiteness is checked once; the error names the first non-finite value in
    row order.  Each distinct bit pattern (-0.0 is not 0.0) of a block of 2**14
    cells (larger blocks raised the peak memory) is formatted once."""
    finite = np.isfinite(table)
    if not finite.all():
        raise ArithmeticError("non-finite result %r" % float(table[~finite][0]))
    if fmt == "json":
        # the bytes of _render_json({"columns": header, "rows": rows})
        head = '{\n  "columns": %s,\n  "rows": [\n' % _render_json(list(header), 1)
        cell, row_open, row_close, row_sep, tail = (
            ",\n      ", "    [\n      ", "\n    ]", ",\n", "\n  ]\n}\n")
    else:
        head, cell, row_open, row_close, row_sep, tail = (
            ",".join(header) + "\n", ",", "", "", "\n", "\n")
    ncols, between, parts = table.shape[1], row_close + row_sep + row_open, [head]
    step = max(1, 16384 // ncols)
    for start in range(0, len(table), step):
        bits, inv = np.unique(table[start:start + step].view(np.int64), return_inverse=True)
        vals = tuple(bits.view(float).tolist())
        # one % operation formats them all; no number's text holds "\0"
        texts = ("\0".join(["%.17g"] * len(vals)) % vals).split("\0")
        rows = np.array(texts, dtype=object)[inv.reshape(-1, ncols)].tolist()
        parts += [between if start else row_open, between.join(map(cell.join, rows))]
    return "".join(parts + ([row_close, tail] if len(table) else [tail]))


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
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = Config.from_file(args.config)
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
        header, table = task_fn(cfg, args)
        _write_out(_table_text(header, table, args.format or "csv"), args.out)
        return EXIT_OK
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print("numeric failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
