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
``models1d``, jc.* but jc.z a Jaynes-Cummings dot model from ``jcdot``);
a key the task does not read is a config error naming the task:

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
validate        no keys (runs the built-in invariant suite); an
                aligned text table, or csv with --format csv
jc-run          jc.*;  optional jc.z;  optional grid.x_min/x_max/x_n
==============  =====================================================

A grid axis (re, im or x) needs all three keys grid.<axis>_min/_max/_n,
with n >= 1 and a finite difference max - min; a missing key is reported
by its name.

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
import cmath
import functools
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

_MODEL_KEYS = {"model.family", *("model." + p for factory in FACTORIES.values()
                                  for p in inspect.signature(factory).parameters)}
_JC_KEYS = {"jc." + k for k in ("alpha", "beta", "gamma_re", "gamma_im", "tau", "N", "v_l", "v_r")}
_AXIS_KEYS = {axis: {"grid.%s_%s" % (axis, end) for end in ("min", "max", "n")}
              for axis in ("re", "im", "x")}
# the keys each task reads; TASKS lists the tasks in this order
_TASK_KEYS = {
    "weyl-sample": _MODEL_KEYS | _JC_KEYS | {"grid.z_list"} | _AXIS_KEYS["re"] | _AXIS_KEYS["im"],
    "gamma-sample": _MODEL_KEYS | _AXIS_KEYS["x"] | {"gamma.z", "gamma.xi"},
    "spectrum": _JC_KEYS | {"spectrum.which"},
    "krein-kernel": _MODEL_KEYS | _AXIS_KEYS["x"] | {
        "krein.z", "krein.variant", "krein.theta", "krein.entries"},
    "validate": set(),
    "jc-run": _JC_KEYS | _AXIS_KEYS["x"] | {"jc.z"},
}
TASKS = tuple(_TASK_KEYS)
_KNOWN_KEYS = frozenset().union(*_TASK_KEYS.values())


class _Config:
    """Parsed config for one task: string values plus the source line of every key."""

    def __init__(self, values, lines, path, task):
        self.values = values
        self.lines = lines
        self.path = path
        self.task = task

    @classmethod
    def from_file(cls, path, task):
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config %r: %s" % (path, exc))
        parse = cls._from_json if path.endswith(".json") else cls._from_text
        cfg = cls(*parse(text, path), path, task)
        for key in cfg.values:
            if key not in _TASK_KEYS[task]:
                raise ConfigError("%s: key %r is not read by task %r"
                                  % (cfg._where(key), key, task))
        return cfg

    @staticmethod
    def _from_text(text, path):
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
        return values, lines

    @staticmethod
    def _from_json(text, path):
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
        return values, {k: 0 for k in values}

    # -- typed getters ------------------------------------------------

    def _where(self, key):
        line = self.lines.get(key, 0)
        return "%s:%d" % (self.path, line) if line else self.path

    def has(self, key):
        return key in self.values

    def require(self, key):
        """The text of ``key``; a ConfigError naming the task if the config lacks it."""
        if key not in self.values:
            raise ConfigError("%s: task %r needs key %r" % (self.path, self.task, key))
        return self.values[key]

    def str(self, key, default=None, choices=None):
        val = self.require(key) if default is None else self.values.get(key, default)
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
        if default is not None and key not in self.values:
            return default
        return self._parse(key, self.require(key), kind, convert)

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


def _build_model(cfg):
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
        # the Dirac messages concern the speed c, the others the endpoints
        key = ("model.c" if str(exc).startswith("Dirac")
               else "model.b" if cfg.has("model.b") else "model.a")
        raise ConfigError("%s: key %r: %s" % (cfg._where(key), key, exc))


def _build_jc(cfg, matrices):
    """The dot model; the task holds about ``matrices`` dense complex m x m
    matrices at its peak (m = 2 (N + 1)), which bounds jc.N."""
    dot = jd.TwoLevelDot(
        alpha=cfg.float("jc.alpha"),
        beta=cfg.float("jc.beta"),
        gamma=complex(cfg.float("jc.gamma_re", 0.0), cfg.float("jc.gamma_im", 0.0)),
    )
    v_l = cfg.float("jc.v_l", 0.0)
    v_r = cfg.float("jc.v_r", 0.0)
    tau = cfg.float("jc.tau")
    N = cfg.int("jc.N")
    # the truncation is checked first, then the lead potentials
    key = "jc.N" if N < 0 else "jc.v_l" if v_l < 0 else "jc.v_r"
    try:
        model = jd.JCModel(
            v_l=v_l, v_r=v_r, dot=dot, tau=tau, fock=jd.FockTruncation(N)
        )
    except ValueError as exc:
        raise ConfigError("%s: key %r: %s" % (cfg._where(key), key, exc))
    # the model allocates lazily, on first use
    _check_size(cfg, "jc.N", 16 * matrices * model.boundary_dim ** 2)
    return model


def _check_size(cfg, key, nbytes):
    """A ConfigError naming ``key`` if a task would need more than _MAX_BYTES."""
    if nbytes > _MAX_BYTES:
        raise ConfigError("%s: key %r: the task would need about %.3g GB (at most %.3g GB)"
                          % (cfg._where(key), key, nbytes / 1e9, _MAX_BYTES / 1e9))


def _grid_axis(cfg, axis):
    """(min, max, n) of the keys grid.<axis>_min/_max/_n, with n >= 1 and a
    finite max - min, so that np.linspace(min, max, n) is finite."""
    lo_key, hi_key, n_key = ("grid.%s_%s" % (axis, end) for end in ("min", "max", "n"))
    lo, hi, n = cfg.float(lo_key), cfg.float(hi_key), cfg.int(n_key)
    if n < 1:
        raise ConfigError("%s: %s must be >= 1" % (cfg._where(n_key), n_key))
    if not isfinite(hi - lo):
        raise ConfigError("%s: key %r: the span %s - %s overflows"
                          % (cfg._where(hi_key), hi_key, hi_key, lo_key))
    return lo, hi, n


def _z_grid(cfg, nbytes):
    """The z-grid; ``nbytes(rows)`` estimates what the task needs for that many points."""
    has_rect = any(k.startswith(("grid.re_", "grid.im_")) for k in cfg.values)
    if cfg.has("grid.z_list") and has_rect:
        raise ConfigError(
            "%s: grid.z_list and the grid rectangle keys are mutually exclusive"
            % cfg.path
        )
    if cfg.has("grid.z_list"):
        zs = cfg.complex_list("grid.z_list")
        _check_size(cfg, "grid.z_list", nbytes(len(zs)))
        return zs
    if not has_rect:
        raise ConfigError("%s: task %r needs grid.z_list or the grid rectangle keys"
                          % (cfg.path, cfg.task))
    re_axis, im_axis = _grid_axis(cfg, "re"), _grid_axis(cfg, "im")
    _check_size(cfg, "grid.re_n" if re_axis[2] >= im_axis[2] else "grid.im_n",
                nbytes(re_axis[2] * im_axis[2]))
    res, ims = np.linspace(*re_axis), np.linspace(*im_axis)
    zs = np.empty(len(res) * len(ims), dtype=complex)  # re-major
    zs.real, zs.imag = np.repeat(res, len(ims)), np.tile(ims, len(res))
    return zs


def _x_grid(cfg, nbytes, default=None):
    """The x-grid; ``nbytes(n)`` estimates what the task needs for n points."""
    if default is not None and not any(k.startswith("grid.x_") for k in cfg.values):
        return np.asarray(default, dtype=float)
    x_axis = _grid_axis(cfg, "x")
    _check_size(cfg, "grid.x_n", nbytes(x_axis[2]))
    return np.linspace(*x_axis)


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
        weyl = build_triplet(_build_model(cfg)).weyl
    else:
        weyl = _build_jc(cfg, matrices=1).lead_weyl
    zs = _z_grid(cfg, lambda rows: (64 * rows + 80) * (2 + 2 * weyl.dim ** 2))
    header = ["re_z", "im_z"] + ["%s_m_%d_%d" % (part, i, j) for i in range(weyl.dim)
                                 for j in range(weyl.dim) for part in ("re", "im")]
    # one array evaluation, bit for bit the scalar one (a Dirac family: one per z)
    ms = weyl.grid(zs).reshape(len(zs), -1)
    return header, np.column_stack([np.real(zs), np.imag(zs), ms.view(float)])


def _task_gamma_sample(cfg, args):
    spec = _build_model(cfg)
    z = cfg.complex("gamma.z")
    xs = _x_grid(cfg, lambda n: 1024 * n)
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
    img = triplet.gamma(z)
    samples = _sample_x_grid(cfg, xs, lambda: {
        name: img.values(xs, xi).reshape(len(xs), -1).view(float)
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
    model = _build_jc(cfg, matrices=4)  # 3 measured at N = 100 and 200
    which = cfg.str("spectrum.which", default="cjc", choices=("cjc", "tilde"))
    mat = jd.build_CJC(model) if which == "cjc" else jd.build_tilde_CJC(model)
    rep = jd.spectrum_report(mat)
    vals = rep["eigenvalues"]
    mults = np.repeat(rep["multiplicities"], rep["multiplicities"])
    return ["index", "eigenvalue", "multiplicity"], np.column_stack(
        [np.arange(len(vals)), vals, mults])


def _task_krein_kernel(cfg, args):
    spec = _build_model(cfg)
    if FAMILY_TABLE[spec.family].value_dim != 1:
        raise ConfigError(
            "%s: krein-kernel emits the scalar x,y,re_K,im_K schema; "
            "model.family %r has a spinor-valued kernel" % (cfg.path, spec.family)
        )
    z = cfg.complex("krein.z")
    xs = _x_grid(cfg, lambda n: 512 * n * n)
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
            raise ConfigError("%s: key 'krein.entries': %s" % (cfg._where("krein.entries"), exc))
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
    model = _build_jc(cfg, matrices=32)  # 26 measured at N = 100 and 200
    z = cfg.complex("jc.z", default=-1.0 + 0.5j)
    xs = _x_grid(cfg, lambda n: 512 * (n * model.fock.dim) ** 2, default=[-1.0, 0.5])
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
        "tilde_T_floor": float(jd.tilde_T_part(model).min()),
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


def _herglotz_residuals(weyls):
    """Worst conjugate-symmetry defect and least Im m(z) of the diagonal Weyl
    scalars of ``weyls`` over a 12 x 12 grid in the upper half-plane."""
    zs = np.array([complex(re, im) for re in np.linspace(-5, 5, 12)
                   for im in np.linspace(0.1, 5, 12)])
    worst_sym, min_im = 0.0, np.inf
    for weyl in weyls:
        m, mc = (np.diagonal(weyl.grid(w), axis1=1, axis2=2) for w in (zs, zs.conj()))
        worst_sym = max(worst_sym, np.abs(m - mc.conj()).max())
        min_im = min(min_im, m.imag.min())
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
    cz, czb = (np.stack([fl.gamma(w).values(xs_c, np.eye(2)[:, j])[:, 0]
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
    m_h, m_h2 = (fd_m_function(FDGrid(h, 40.0), -1.0) for h in (2e-3, 1e-3))
    K_fd = fd_resolvent_difference(FDGrid(5e-3, 30.0), 1.0, -1.0, xs, xs)
    K_an = krein_correction(
        right, BoundaryCondition.operator(np.array([[1.0]])), -1.0
    ).kernel(xs, xs)
    w = cmath.sqrt(z0)  # the principal root is the cut root in the upper half-plane
    K_pkg = krein_correction(
        right, BoundaryCondition.operator(np.array([[0.7]])), z0
    ).kernel(xs, xs)
    K_closed = np.exp(1j * w * np.add.outer(xs, xs)) / (0.7 - 1j * w)
    green, krein, ml = _dense_toy_residuals(seed)
    specs = [factory() for factory in FACTORIES.values()]
    weyls = [build_triplet(spec).weyl for spec in specs]
    sym, min_im = _herglotz_residuals(weyls)
    boundary_data = [(gamma_boundary_data(spec, z0), weyl(z0))
                     for spec, weyl in zip(specs, weyls)]
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
         abs(hg.m_dirac_interval(0.5, 1.0, 1.0)[1] + 1.0), 1e-12),
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
         1.0 - 1e-12 - jd.tilde_T_part(model).min(), 0.0),
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
        if not isfinite(obj):
            raise ArithmeticError("non-finite result %r" % float(obj))
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError("cannot render %r" % type(obj))


@functools.cache
def _g17_tables():
    """5^p (p = 0..27), the texts "0000".."9999" as uint32, and a row of 24 positions per (exponent
    -11..16, kept digits 1..17) into a buffer: sign or NUL, 17 digits, ".e-0123456789", NUL."""
    rows = []
    for X in range(-11, 17):
        for keep in range(1, 18):
            frac = lambda lo: [18, *range(lo + 1, keep + 1)] if keep > lo else []
            body = ([1, *frac(1), 19, 20, 21 + -X // 10, 21 + -X % 10] if X < -4
                    else [*range(1, X + 2), *frac(X + 1)] if X >= 0
                    else [21, 18] + [21] * (-X - 1) + [*range(1, keep + 1)])
            rows.append([0] + body + [31] * (23 - len(body)))
    quads = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    return 5 ** np.arange(28, dtype=np.uint64), quads.view(np.uint32)[:, 0], np.array(rows)


def _scaled(m, e, p, pow5):
    """floor(m 5^p 2^(e+p)) as uint64, and whether it rounds up, half to even."""
    f, sh = pow5.take(p), e + p
    m1, m0, f1, f0 = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    mid, low = m1 * f0 + m0 * f1, m0 * f0
    lo = low + (mid << 32)
    hi = m1 * f1 + (mid >> 32) + (lo < low)
    r, s = np.maximum(-sh, 0).astype(np.uint64), np.maximum(sh, 0).astype(np.uint64)
    q = ((hi << (64 - r)) | (lo >> r)) << s
    return q, lo << (64 - r) > 2 ** 63 - (q & 1)


def _g17(vals):
    """``"%.17g" % x`` for each float64 x of ``vals``: a uint8 row of 24 bytes per x,
    the text padded with NUL (the widest texts, such as ``-2.2250738585072014e-308``, fill it).

    Exact integer arithmetic where 1e-11 < |x| < 1e17 (the double 1e-11 is below 10^-11),
    else one ``%`` operation.  With x = m 2^e (m < 2^53) and 10^k <= |x| < 10^(k+1),
    p = 16 - k is in [0, 27]: 5^p < 2^63, and m 5^p < 2^116 is formed in two uint64 limbs
    from 32-bit halves (partial products and the middle sum < 2^64).  Shifted by e + p its
    floor lies in [10^16, 10^17), so a right shift r is at most 62 (63 while k is off by
    one) and a left shift (at most 5) has a product below 2^64; it rounds half to even, up
    iff rem 2^(64-r) > 2^63 - (q & 1), never to 10^17 (no double lies within 5e-18 below
    a power of ten there).  k, the floor of np.log10, is off by at most one; comparing the
    floor with 10^16 and 10^17 corrects it.  A row per (k, kept digits) lays out %g's text."""
    pow5, quads, rows = _g17_tables()
    a = np.abs(vals)
    ok = (a > 1e-11) & (a < 1e17)
    out, x, a = np.empty((len(vals), 24), np.uint8), vals[ok], a[ok]
    out[~ok] = np.strings.mod("%.17g", vals[~ok]).astype("S24").view(np.uint8).reshape(-1, 24)
    m = a.view(np.uint64) & (2 ** 52 - 1) | 2 ** 52
    e = (a.view(np.uint64) >> 52).astype(np.int64) - 1075
    k = np.minimum(np.maximum(np.floor(np.log10(a)), -11), 16).astype(np.int64)
    q, up = _scaled(m, e, 16 - k, pow5)
    fix = np.flatnonzero((q < 10 ** 16) | (q >= 10 ** 17))
    if len(fix):
        k[fix] += np.where(q[fix] < 10 ** 16, -1, 1)
        q[fix], up[fix] = _scaled(m[fix], e[fix], 16 - k[fix], pow5)
    buf = np.empty((len(q), 32), np.uint8)
    buf[:, 18:] = np.frombuffer(b".e-0123456789\0", np.uint8)
    lead, rest = np.divmod(q + up, 10 ** 16)
    buf[:, 0], buf[:, 1] = (x < 0) * 45, lead + 48
    # the other 16 digits: two halves of 8, then two quads of each
    h, quad = np.empty((len(q), 2), np.uint32), np.empty((len(q), 2, 2), np.uint32)
    h[:, 0], h[:, 1] = np.divmod(rest, 10 ** 8)
    np.divmod(h, 10 ** 4, out=(quad[:, :, 0], quad[:, :, 1]))
    buf[:, 2:18].view(np.uint32)[:] = quads.take(quad.reshape(-1, 4))
    at = rows.take((k + 11) * 17 + 16 - np.argmax(buf[:, 17:0:-1] != 48, axis=1), axis=0)
    at += np.arange(0, buf.size, 32)[:, None]
    out[ok] = buf.take(at)
    return out


def _table_text(header, table, fmt):
    """Render a 2-D float64 array as csv or JSON, every cell as ``%.17g``.

    Finiteness is checked once; the error names the first non-finite value in row
    order.  The cells, in row order, are rendered by blocks of 2**14 (larger blocks
    raise the peak memory) into one uint8 buffer: a 24-byte slot per cell and a slot for
    the separator after it (within a row, after a row or after the table), both padded
    with NUL, which ``buf[buf != 0]`` drops.  A cell whose bits are 0 is written as "0";
    each other distinct bit pattern of the block (-0.0 is not 0.0) is formatted once by
    ``_g17``."""
    finite = np.isfinite(table)
    if not finite.all():
        raise ArithmeticError("non-finite result %r" % float(table[~finite][0]))
    if fmt == "json":
        # the bytes of _render_json({"columns": header, "rows": rows}); json.dumps'
        # indent=4 list is _render_json(list(header), 1) up to the close
        head = '{\n  "columns": %s  ],\n  "rows": [\n' % json.dumps(list(header), indent=4)[:-1]
        tail, row_open = "\n  ]\n}\n", "    [\n      "
        seps = [",\n      ", "\n    ],\n" + row_open, "\n    ]" + tail]
    else:
        head, tail, row_open, seps = ",".join(header) + "\n", "\n", "", [",", "\n", "\n"]
    if not len(table):
        return head + tail
    w = max(map(len, seps))
    seps = np.frombuffer("".join(s.ljust(w, "\0") for s in seps).encode(), np.uint8).reshape(3, w)
    ncols, parts = table.shape[1], [head + row_open]
    flat = np.ascontiguousarray(table).reshape(-1).view(np.uint64)
    for s in range(0, len(flat), 16384):
        bits = flat[s:s + 16384]
        nz = np.flatnonzero(bits)
        u, inv = np.unique(bits[nz], return_inverse=True)
        # a row per distinct text, then "0", each followed by the separator within a row
        texts = np.zeros((len(u) + 1, 24 + w), np.uint8)
        texts[:-1, :24], texts[-1, 0], texts[:, 24:] = _g17(u.view(float)), 48, seps[0]
        at = np.full(len(bits), len(u))
        at[nz] = inv
        buf = texts.take(at, axis=0)
        buf[(ncols - 1 - s) % ncols::ncols, 24:] = seps[1]
        buf[len(flat) - 1 - s:, 24:] = seps[2]  # empty unless the table ends in this block
        parts.append(buf[buf != 0].tobytes().decode("ascii"))
    return "".join(parts)


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
                        help="table format (default csv; validate: default an aligned "
                        "table, or csv; jc-run: json only)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _Config.from_file(args.config, args.task)
        if args.task == "validate":
            if args.format == "json":
                raise ConfigError("validate emits a table; json is not available")
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
