"""Command-line interface: configs, schemas, determinism, exit codes."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyltriplets import cli
from weyltriplets import herglotz as hg
from weyltriplets.models1d import FACTORIES, FAMILIES


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


WS_CFG = "model.family = schrodinger-right\ngrid.z_list = 1j, -1+0.5j\n"


def test_weyl_sample_frozen_rows(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    rc, out, _ = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "re_z,im_z,re_m_0_0,im_m_0_0"
    assert lines[1] == "0,1,-0.70710678118654746,0.70710678118654757"
    assert lines[2].startswith("-1,0.5,")


def test_weyl_sample_17_digit_roundtrip(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    _, out, _ = run(capsys, ["weyl-sample", "--config", cfg])
    row = out.splitlines()[1].split(",")
    m = hg.m_schrodinger_halfline(1j)
    assert float(row[2]) == m.real
    assert float(row[3]) == m.imag


def test_weyl_sample_rectangle_grid_re_major(tmp_path, capsys):
    cfg = write(tmp_path, "rect.cfg", (
        "model.family = schrodinger-right\n"
        "grid.re_min = -1\ngrid.re_max = 1\ngrid.re_n = 2\n"
        "grid.im_min = 0.5\ngrid.im_max = 1\ngrid.im_n = 2\n"
    ))
    rc, out, _ = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 0
    zs = [tuple(map(float, ln.split(",")[:2])) for ln in out.splitlines()[1:]]
    assert zs == [(-1, 0.5), (-1, 1), (1, 0.5), (1, 1)]


def test_json_config_mirror_byte_identical(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    jcfg = write(tmp_path, "ws.json", json.dumps({
        "model": {"family": "schrodinger-right"},
        "grid": {"z_list": ["1j", "-1+0.5j"]},
    }))
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["weyl-sample", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["weyl-sample", "--config", jcfg, "--out", out_b]) == 0
    capsys.readouterr()
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()


GS_CFG = ("model.family = full-line-contact\ngamma.z = 1j\n"
          "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n")


@pytest.mark.parametrize("task,text,doc", [
    # a two-number array under a list key is two items, not one complex number
    ("weyl-sample", "model.family = schrodinger-right\ngrid.z_list = -0.5, -2.0\n",
     {"model": {"family": "schrodinger-right"}, "grid": {"z_list": [-0.5, -2.0]}}),
    ("gamma-sample", GS_CFG + "gamma.xi = 1.0, 0.0\n",
     {"model": {"family": "full-line-contact"}, "gamma": {"z": [0, 1], "xi": [1.0, 0.0]},
      "grid": {"x_min": -1, "x_max": 1, "x_n": 3}}),
    # and each item may be an [re, im] pair
    ("weyl-sample", WS_CFG,
     {"model": {"family": "schrodinger-right"}, "grid": {"z_list": [[0, 1], [-1, 0.5]]}}),
], ids=["z-list-reals", "xi-reals", "z-list-pairs"])
def test_json_list_keys_mirror_text(tmp_path, capsys, task, text, doc):
    outs = []
    for name, body in (("a.cfg", text), ("b.json", json.dumps(doc))):
        out = str(tmp_path / (name + ".csv"))
        assert cli.main([task, "--config", write(tmp_path, name, body), "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("section,key,val", [
    ("model", "v", [1.0]),  # an array is a list only under a list key
    ("gamma", "z", [1, 10 ** 400]),  # an integer beyond every double
], ids=["array-under-scalar-key", "huge-integer-pair"])
def test_json_arrays_outside_list_rules_rejected(tmp_path, capsys, section, key, val):
    doc = {"model": {"family": "schrodinger-right"}, "gamma": {"z": "1j"},
           "grid": {"x_min": 0, "x_max": 1, "x_n": 2}}
    doc[section][key] = val
    cfg = write(tmp_path, "bad.json", json.dumps(doc))
    rc, _, err = run(capsys, ["gamma-sample", "--config", cfg])
    assert rc == 2 and "bad.json" in err and "key '%s.%s'" % (section, key) in err, err


def test_repeat_runs_byte_identical(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = str(tmp_path / name)
        assert cli.main(["weyl-sample", "--config", cfg, "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_table_json_format(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    rc, out, _ = run(capsys, ["weyl-sample", "--config", cfg,
                              "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["columns"] == ["re_z", "im_z", "re_m_0_0", "im_m_0_0"]
    assert doc["rows"][0][:2] == [0, 1]


def _per_cell_table_text(header, table, fmt):
    """Oracle: the per-cell renderer the array path replaced."""
    ints = [name in ("index", "multiplicity") for name in header]
    rows = [[int(x) if is_int else x for x, is_int in zip(row, ints)]
            for row in table.tolist()]
    if fmt == "json":
        return cli._render_json({"columns": header, "rows": rows}) + "\n"
    return "\n".join([",".join(header)] + [
        ",".join(str(x) if isinstance(x, int) else format(x, ".17g") for x in row)
        for row in rows]) + "\n"


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                1.7976931348623157e308, -1.7976931348623157e308,
                3.0, -7.0, 1e16, 2.0 ** 53, 0.1, -2.5e-17]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header", [
    ["re_z", "im_z", "re_m_0_0", "im_m_0_0", "re_m_0_1", "im_m_0_1"],
    ["index", "eigenvalue", "multiplicity"],
], ids=["reals", "spectrum"])
def test_table_text_matches_per_cell_renderer(header, fmt):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((40, len(header))) * 10.0 ** rng.integers(-20, 20, (40, 1))
    edge = np.tile(np.array(_EDGE_VALUES)[:, None], (1, len(header)))
    table = np.vstack([edge, edge[::-1], table])
    for col, name in enumerate(header):
        if name in ("index", "multiplicity"):
            table[:, col] = np.arange(len(table)) * (1 + col)
    assert cli._table_text(header, table, fmt) == _per_cell_table_text(header, table, fmt)


def _assert_renders_per_cell(header, table, fmt):
    """The renderer's text equals the oracle's; a mismatch reports its first
    difference (a full diff of megabytes of text would take minutes)."""
    got, want = cli._table_text(header, table, fmt), _per_cell_table_text(header, table, fmt)
    if got != want:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail("texts differ first at character %d: %r != %r"
                    % (k, got[max(0, k - 40):k + 40], want[max(0, k - 40):k + 40]))


def _pool_table(rng, rows, cols):
    """Random cells drawn from the edge values and a few hundred random ones."""
    randoms = rng.standard_normal(300) * 10.0 ** rng.integers(-20, 20, 300)
    pool = np.concatenate([_EDGE_VALUES, randoms])
    return pool[rng.integers(0, len(pool), (rows, cols))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_text_matches_per_cell_renderer_across_blocks(fmt):
    rng = np.random.default_rng(5)
    header = ["c%d" % j for j in range(6)]
    step = 16384 // len(header)  # rows per block of the renderer
    table = _pool_table(rng, 3 * step + 7, len(header))
    zeros = table == 0.0
    # block 0 holds -0.0 and 0.0, block 1 only -0.0, block 2 only 0.0
    table[step:2 * step][zeros[step:2 * step]] = -0.0
    table[2 * step:][zeros[2 * step:]] = 0.0
    table[1, :] = [-0.0, 0.0, -0.0, 0.0, 5e-324, -5e-324]
    table[step + 1, :] = -0.0
    table[2 * step + 1, :] = 0.0
    assert np.signbit(table[step:2 * step][table[step:2 * step] == 0]).all()
    assert not np.signbit(table[2 * step:][table[2 * step:] == 0]).any()
    _assert_renders_per_cell(header, table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows, cols", [(3, 70000), (1, 9), (20000, 1)],
                         ids=["wide", "one-row", "one-column"])
def test_table_text_matches_per_cell_renderer_on_edge_shapes(fmt, rows, cols):
    # more than 2**14 columns: blocks end inside a row; one column: every cell ends a row
    rng = np.random.default_rng(rows)
    table = _pool_table(rng, rows, cols)
    table.flat[:2] = -0.0, 0.0
    header = ["c%d" % j for j in range(cols)]
    _assert_renders_per_cell(header, table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_text_matches_per_cell_renderer_on_a_zero_heavy_table(fmt):
    # shaped like jc-weyl: z, then a flattened dim x dim Weyl matrix that is diagonal,
    # so nearly every cell is +0.0; 2**14 cells per block end in mid-row
    rng = np.random.default_rng(31)
    dim, rows = 12, 150
    m = np.zeros((rows, dim, dim, 2))
    m[:, np.arange(dim), np.arange(dim)] = rng.standard_normal((rows, dim, 2))
    table = np.hstack([rng.standard_normal((rows, 2)), m.reshape(rows, -1)])
    header = ["re_z", "im_z"] + ["%s_m_%d_%d" % (p, i, j) for i in range(dim)
                                 for j in range(dim) for p in ("re", "im")]
    flat = table.reshape(-1)
    for edge in (16384, 32768):
        # -0.0, 5e-324, 0.0 next to -0.0, and nonzero cells on each side of a block edge
        flat[edge - 3:edge + 3] = [-0.0, 0.0, 5e-324, -0.0, 0.0, 2.5]
        flat[edge + 7:edge + 10] = [-5e-324, 1e300, -0.0]
    assert len(flat) > 2 * 16384 and len(flat) % 16384 and 16384 % table.shape[1]
    assert (flat == 0).mean() > 0.9 and np.signbit(flat[flat == 0]).any()
    _assert_renders_per_cell(header, table, fmt)


def test_table_text_zero_rows():
    # the bytes the renderer always gave, not those of _render_json's "[]"
    empty = np.empty((0, 2))
    assert cli._table_text(["a", "b"], empty, "csv") == "a,b\n\n"
    assert cli._table_text(["a", "b"], empty, "json") == (
        '{\n  "columns": [\n    "a",\n    "b"\n  ],\n  "rows": [\n\n  ]\n}\n')


def test_table_text_names_first_non_finite_value_in_row_order():
    table = np.ones((3, 4))
    table[1, 0] = np.nan
    table[0, 3] = np.inf
    for fmt in ("csv", "json"):
        with pytest.raises(ArithmeticError) as exc:
            cli._table_text(["a", "b", "c", "d"], table, fmt)
        assert str(exc.value) == "non-finite result inf"


# The renderer's 17 digits against CPython's dtoa, which shares no code with the
# integer kernel of cli._g17.


def _g17_texts(rows):
    """The texts in rows of ``cli._g17``: each row's bytes without their NUL padding."""
    lines = np.hstack([rows, np.full((len(rows), 1), ord("\n"), np.uint8)])
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def _assert_g17_matches_percent(vals):
    """``cli._g17`` gives a row of 24 bytes for each x, the bytes of ``"%.17g" % x``
    padded with NUL, in blocks of 2**14."""
    vals = np.concatenate([vals, -vals])
    for start in range(0, len(vals), 16384):
        block = vals[start:start + 16384]
        want = ("\0".join(["%.17g"] * len(block)) % tuple(block.tolist())).split("\0")
        rows = cli._g17(block)
        assert rows.dtype == np.uint8 and rows.shape == (len(block), 24)
        got = _g17_texts(rows)
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail("%r: %r != %r" % (float(block[i]), got[i], want[i]))


def test_g17_matches_percent_on_log_uniform_values():
    # 2**20 values, half of each sign, log-uniform over [1e-12, 1e18]
    rng = np.random.default_rng(28)
    _assert_g17_matches_percent(10.0 ** rng.uniform(-12, 18, 2 ** 19))


def test_g17_matches_percent_on_exact_ties():
    # x = o / 2^(P+1), o odd: x 10^P = o 5^P / 2 is a half-integer, so rounding x
    # to 17 digits is a tie when o 5^P / 2 lies in [1e16, 1e17); o < 2^53 (x exact)
    # needs P >= 1, and o 5^P < 2e17 needs P <= 24
    rng = np.random.default_rng(280)
    ties, lasts = [], set()
    for P in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** P), min(2 * 10 ** 17 // 5 ** P, 2 ** 53)
        for o in {int(o) | 1 for o in rng.integers(lo, hi, 60)} - {hi}:
            ties.append(o / 2 ** (P + 1))
            assert Fraction(ties[-1]) * 10 ** P == Fraction(o * 5 ** P, 2)
            lasts.add(o * 5 ** P // 2 % 2)
    # both rounding directions: the digit below the tie is even or odd
    assert len(ties) > 1000 and lasts == {0, 1}
    _assert_g17_matches_percent(np.array(ties))


def test_g17_matches_percent_around_powers_of_ten_and_edges():
    vals = []
    for k in range(-12, 19):
        ten = Fraction(10) ** k
        for toward in (0.0, math.inf):
            x = float("1e%d" % k)  # the double nearest 10^k, then 3 neighbours
            for _ in range(4):
                vals.append(x)
                # no double below 10^k rounds up to it at 17 digits: _g17 has no carry
                assert Fraction(x) >= ten or Fraction("%.17g" % x) < ten
                x = math.nextafter(x, toward)
    # the edges of the kernel's range (1e-11, 1e17), each with its neighbours
    for edge in (1e-11, 1e17):
        vals += [math.nextafter(edge, 0), edge, math.nextafter(edge, math.inf)]
    # zeros, subnormals, the smallest normal and the largest float
    vals += [0.0, 5e-324, 1.5e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308]
    _assert_g17_matches_percent(np.array(vals))


def test_g17_widest_texts_fill_the_slot():
    # sign, 17 digits, a point and a three-digit exponent: 24 bytes, no padding
    for x in (-2.2250738585072014e-308, -1.7976931348623157e308):
        assert cli._g17(np.array([x]))[0].tobytes() == ("%.17g" % x).encode()
        assert cli._table_text(["x"], np.array([[x, x]]), "csv") == "x\n%.17g,%.17g\n" % (x, x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_table_text_one_cell_matches_percent(x):
    table = np.array([[x]])
    assert cli._table_text(["x"], table, "csv") == "x\n%s\n" % ("%.17g" % x)


def test_spectrum_resonant_pair(tmp_path, capsys):
    cfg = write(tmp_path, "sp.cfg", (
        "jc.alpha = 0\njc.beta = 1\njc.tau = 1\njc.N = 1\n"
        "spectrum.which = cjc\n"
    ))
    rc, out, _ = run(capsys, ["spectrum", "--config", cfg])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["0", "0", "2", "2"]
    assert [r[2] for r in rows] == ["2", "2", "2", "2"]


def test_krein_kernel_closed_form_value(tmp_path, capsys):
    cfg = write(tmp_path, "kk.cfg", (
        "model.family = schrodinger-right\n"
        "krein.z = -1\nkrein.variant = operator\nkrein.theta = 0\n"
        "grid.x_min = 0.5\ngrid.x_max = 0.5\ngrid.x_n = 1\n"
    ))
    rc, out, _ = run(capsys, ["krein-kernel", "--config", cfg])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[:2] == ["0.5", "0.5"]
    assert float(row[2]) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_krein_kernel_two_sided_frozen_row(tmp_path, capsys):
    # full-line contact (d = 2) with a non-diagonal boundary operator:
    # the cross-side row is pinned to its 17-digit bytes
    cfg = write(tmp_path, "kk2.cfg", (
        "model.family = full-line-contact\n"
        "model.v_l = 1\nmodel.v_r = 0.5\n"
        "krein.z = -1+0.5j\nkrein.variant = operator\n"
        "krein.entries = 1.5, 0.25+0.5j, 0.25-0.5j, -1\n"
        "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 2\n"
    ))
    rc, out, _ = run(capsys, ["krein-kernel", "--config", cfg])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[2] == "-1,1,0.04412622819993247,-0.030328376526034647"


def test_gamma_sample_two_sided(tmp_path, capsys):
    cfg = write(tmp_path, "gs.cfg", (
        "model.family = full-line-contact\n"
        "model.v_l = 1\nmodel.v_r = 0\n"
        "gamma.z = 2+1j\n"
        "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
    ))
    rc, out, _ = run(capsys, ["gamma-sample", "--config", cfg])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,re_g0,im_g0,re_g1,im_g1"
    # each side's defect element is supported on its own half line
    left = lines[1].split(",")
    assert float(left[3]) == 0.0 and float(left[4]) == 0.0
    right = lines[3].split(",")
    assert float(right[1]) == 0.0 and float(right[2]) == 0.0


def test_unknown_key_reports_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg",
                "model.family = schrodinger-right\nmodel.bogus = 3\n")
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "bad.cfg:2" in err and "model.bogus" in err


_GRID_X = "grid.x_min = 0\ngrid.x_max = 1\ngrid.x_n = 2\n"


@pytest.mark.parametrize("task, name, text, key, line", [
    ("weyl-sample", "w.cfg", "model.family = schrodinger-right\ngrid.z_list = 1j\n"
     "grid.x_n = 5\ngamma.z = 2j\n", "grid.x_n", 3),
    ("gamma-sample", "g.cfg", "model.family = schrodinger-right\ngamma.z = 1j\n" + _GRID_X
     + "krein.z = 1j\n", "krein.z", 6),
    ("spectrum", "s.cfg", "jc.alpha = 0\njc.beta = 1\njc.tau = 1\njc.N = 1\njc.z = 1+1j\n"
     "grid.x_min = 0\n", "jc.z", 5),
    ("krein-kernel", "k.cfg", "model.family = schrodinger-right\nkrein.z = -1\n"
     "krein.variant = theta1\n" + _GRID_X + "grid.z_list = 1j\n", "grid.z_list", 7),
    ("validate", "v.cfg", "model.family = schrodinger-right\n", "model.family", 1),
    ("jc-run", "j.cfg", "jc.alpha = 0\njc.beta = 1\njc.tau = 1\njc.N = 1\n"
     "spectrum.which = tilde\n", "spectrum.which", 5),
    ("spectrum", "s.json", '{"jc": {"alpha": 0, "beta": 1, "tau": 1, "N": 1, "z": "1+1j"}}',
     "jc.z", 0),
], ids=["weyl-sample", "gamma-sample", "spectrum", "krein-kernel", "validate", "jc-run",
        "spectrum-json"])
def test_key_of_another_task_rejected(tmp_path, capsys, task, name, text, key, line):
    cfg = write(tmp_path, name, text)
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert rc == 2 and out == ""
    where = "%s:%d" % (cfg, line) if line else cfg
    assert "config error: %s: key %r is not read by task %r\n" % (where, key, task) == err


_KREIN_OP = "model.family = full-line-contact\nkrein.z = -1+0.5j\nkrein.variant = operator\n"


# (task, config file name, its text, the message after "config error: "), "{cfg}"
# standing for the config's path
@pytest.mark.parametrize("task, name, text, msg", [
    ("spectrum", "s.cfg", "jc.beta = 1\njc.tau = 1\njc.N = 1\n",
     "{cfg}: task 'spectrum' needs key 'jc.alpha'"),
    ("spectrum", "s.cfg", "jc.alpha = 0\njc.beta = 1\njc.tau = 1\njc.N = 1\n"
     "spectrum.which = foo\n",
     "{cfg}:5: key 'spectrum.which' must be one of cjc/tilde, got 'foo'"),
    ("weyl-sample", "e.cfg", "model.family = schrodinger-right\n = 1j\n", "{cfg}:2: empty key"),
    ("weyl-sample", "t.json", '[{"model": {"family": "schrodinger-right"}}]',
     "{cfg}: top level must be a JSON object"),
    ("weyl-sample", "missing.cfg", None, "cannot read config '{cfg}': "),
    ("weyl-sample", "w.cfg", "model.family = schrodinger-right\ngrid.z_list =\n",
     "{cfg}:2: key 'grid.z_list': expected a comma-separated list"),
    ("weyl-sample", "w.cfg", "model.family = schrodinger-right\n",
     "{cfg}: task 'weyl-sample' needs grid.z_list or the grid rectangle keys"),
    ("krein-kernel", "k.cfg", _KREIN_OP + _GRID_X,
     "{cfg}: krein.variant = operator needs krein.theta or krein.entries"),
    ("krein-kernel", "k.cfg", _KREIN_OP + "krein.entries = 1, 2, 0, 1\n" + _GRID_X,
     "{cfg}:4: key 'krein.entries': boundary operator payload must be Hermitian"),
    ("weyl-sample", "u.json", '{"model": {"family": "schrodinger-right", "bogus": 1}, '
     '"grid": {"z_list": ["1j"]}}', "{cfg}: unknown key 'model.bogus'"),
], ids=["missing-key", "bad-choice", "empty-key", "json-not-object", "unreadable",
        "empty-z-list", "no-z-grid", "operator-without-payload", "non-hermitian-entries",
        "json-unknown-key"])
def test_config_errors_name_their_cause(tmp_path, capsys, task, name, text, msg):
    cfg = write(tmp_path, name, text) if text is not None else str(tmp_path / name)
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert rc == 2 and out == ""
    assert err.startswith("config error: " + msg.format(cfg=cfg)), err


# JCModel's own refusals, through each task that builds one
@pytest.mark.parametrize("key, msg", [
    ("jc.N", "truncation level must be >= 0"),
    ("jc.v_l", "lead potentials must be non-negative"),
    ("jc.v_r", "lead potentials must be non-negative"),
], ids=["N", "v_l", "v_r"])
@pytest.mark.parametrize("task", ["jc-run", "spectrum", "weyl-sample"])
def test_jc_model_errors_name_their_key(tmp_path, capsys, task, key, msg):
    keys = {"jc.alpha": "0", "jc.beta": "1", "jc.tau": "0.5", "jc.N": "2", key: "-1"}
    text = "".join("%s = %s\n" % kv for kv in keys.items()) + "grid.z_list = 1j\n" * (
        task == "weyl-sample")
    cfg = write(tmp_path, "jc.cfg", text)
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert (rc, out) == (2, "")
    line = list(keys).index(key) + 1
    assert err == "config error: %s:%d: key %r: %s\n" % (cfg, line, key, msg)


def test_duplicate_key_reports_both_lines(tmp_path, capsys):
    cfg = write(tmp_path, "dup.cfg",
                "model.family = schrodinger-right\n"
                "model.family = dirac-right\n")
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "dup.cfg:2" in err and "first set on line 1" in err


@pytest.mark.parametrize("text, key", [
    ('{"model": {"family": "schrodinger-right", "v": 0.5, "v": 2.0}, '
     '"grid": {"z_list": ["1j"]}}', "'v'"),
    ('{"model": {"family": "schrodinger-right", "v": 0.5}, "model.v": 2.0, '
     '"grid": {"z_list": ["1j"]}}', "'model.v'"),
], ids=["in-one-object", "nested-vs-dotted"])
def test_json_duplicate_keys_rejected(tmp_path, capsys, text, key):
    cfg = write(tmp_path, "dup.json", text)
    rc, out, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2 and out == ""
    assert "dup.json" in err and "duplicate key " + key in err


def test_grid_keys_mutually_exclusive(tmp_path, capsys):
    cfg = write(tmp_path, "both.cfg", (
        "model.family = schrodinger-right\n"
        "grid.z_list = 1j\n"
        "grid.re_min = -1\ngrid.re_max = 1\ngrid.re_n = 2\n"
        "grid.im_min = 0.5\ngrid.im_max = 1\ngrid.im_n = 2\n"
    ))
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "mutually exclusive" in err


def test_jc_config_error_names_the_file_once(tmp_path, capsys):
    cfg = write(tmp_path, "fN.cfg",
                "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = 2.5\n")
    rc, _, err = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 2
    assert err.count(cfg) == 1
    assert "%s:4: key 'jc.N'" % cfg in err


@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("key, line", [("grid.re_n", 4), ("grid.im_n", 7)])
def test_grid_counts_below_one_rejected(tmp_path, capsys, key, line, value):
    text = (
        "model.family = schrodinger-right\n"
        "grid.re_min = -1\ngrid.re_max = 1\ngrid.re_n = 2\n"
        "grid.im_min = 0.5\ngrid.im_max = 1\ngrid.im_n = 2\n"
    ).replace("%s = 2" % key, "%s = %d" % (key, value))
    cfg = write(tmp_path, "n.cfg", text)
    rc, out, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2 and out == ""
    assert "%s:%d: %s must be >= 1" % (cfg, line, key) in err


@pytest.mark.parametrize("task, text, key, line", [
    ("weyl-sample", "model.family = schrodinger-right\nmodel.v = nan\n"
     "grid.z_list = 1j\n", "model.v", 2),
    ("weyl-sample", "model.family = schrodinger-right\nmodel.v = inf\n"
     "grid.z_list = 1j\n", "model.v", 2),
    ("krein-kernel", "model.family = schrodinger-right\nkrein.z = nan+1j\n"
     "krein.variant = theta1\ngrid.x_min = 0\ngrid.x_max = 1\ngrid.x_n = 2\n",
     "krein.z", 2),
], ids=["nan", "inf", "complex-nan"])
def test_non_finite_numbers_rejected(tmp_path, capsys, task, text, key, line):
    cfg = write(tmp_path, "nf.cfg", text)
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert rc == 2 and out == ""
    assert "%s:%d: key %r" % (cfg, line, key) in err


@pytest.mark.parametrize("task, text, msg", [
    ("weyl-sample", "model.family = dirac-interval\ngrid.z_list = 1e308+1e308j\n",
     "not finite"),
    ("jc-run", "jc.alpha = 0\njc.beta = 1e308\njc.tau = 1\njc.N = 1\n", "C~_JC"),
], ids=["dirac-interval-z", "jc-overflow"])
def test_non_finite_results_fail_cleanly(tmp_path, capsys, task, text, msg):
    cfg = write(tmp_path, "of.cfg", text)
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert rc == 3 and out == ""
    assert msg in err


def test_jc_overflow_fails_cleanly_without_warnings(tmp_path, capsys):
    # the overflow in C~_JC is reported by its finiteness check alone
    cfg = write(tmp_path, "of.cfg", "jc.alpha = 0\njc.beta = 1e308\njc.tau = 1\njc.N = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 3 and out == ""
    assert "C~_JC" in err


# cos and sin of w dd overflow here; the kernel ratios themselves are bounded
@pytest.mark.parametrize("text", [
    "model.family = dirac-interval\ngamma.z = 1e4j\n"
    "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n",
    "model.family = schrodinger-interval\ngamma.z = 1e7j\n"
    "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n",
], ids=["dirac-interval-gamma", "schrodinger-interval-gamma"])
def test_interval_gamma_sample_finite_at_large_imaginary_z(tmp_path, capsys, text):
    cfg = write(tmp_path, "big.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, ["gamma-sample", "--config", cfg])
    assert (rc, err) == (0, "")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    values = _numbers(out)
    assert len(values) == 3 * (1 + 2 * 2 * (2 if "dirac" in text else 1))
    assert all(math.isfinite(x) for x in values)


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["table", "csv"])
def test_validate_reports_nan_residual_as_fail(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.setattr(cli, "_validate_checks", lambda seed: [("broken", float("nan"), 1e-12)])
    cfg = write(tmp_path, "v.cfg", "\n")
    rc, out, err = run(capsys, ["validate", "--config", cfg] + fmt)
    assert rc == 1 and err == ""
    assert "broken" in out and "nan" in out and "FAIL" in out


def test_json_boolean_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "b.json", '{"jc": {"alpha": 0, "beta": 1, "tau": 1, "N": true}}')
    rc, out, err = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 2 and out == ""
    assert "key 'jc.N': invalid integer 'True'" in err


@pytest.mark.parametrize("text, msg", [
    ("model.family = schrodinger-interval\nmodel.a = 1\nmodel.b = 1\n",
     "a < b"),
    ("model.family = dirac-right\nmodel.c = -1\n", "positive"),
    ("model.family = dirac-right\nmodel.c = 1e200\n", "Dirac mass"),
    ("model.family = dirac-interval\nmodel.c = 1e200\n", "Dirac mass"),
    ("model.family = schrodinger-right\nmodel.a = 5\nmodel.c = -3\n",
     ":2: key 'model.a': family 'schrodinger-right' takes only model.v, model.b"),
], ids=["empty-interval", "negative-c", "dirac-right-c", "dirac-interval-c", "foreign-key"])
def test_invalid_model_spec_is_config_error(tmp_path, capsys, text, msg):
    cfg = write(tmp_path, "ms.cfg", text + "grid.z_list = 1j\n")
    rc, out, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2 and out == ""
    assert cfg in err and msg in err and "Traceback" not in err


# ModelSpec's own refusals: (family, keys set, key named, line, message)
@pytest.mark.parametrize("family, keys, key, line, msg", [
    ("schrodinger-interval", {"model.a": "1", "model.b": "1"}, "model.b", 3,
     "interval families need endpoints a < b"),
    ("schrodinger-interval", {"model.a": "5"}, "model.a", 2,
     "interval families need endpoints a < b"),
    ("dirac-interval", {"model.a": "0", "model.b": "5e-324"}, "model.b", 3,
     "interval half-length (b - a)/2 underflows to 0"),
    ("dirac-right", {"model.c": "-1"}, "model.c", 2, "Dirac speed c must be positive"),
    ("dirac-interval", {"model.b": "2", "model.c": "1e200"}, "model.c", 3,
     "Dirac mass s = c^2/2 overflows at c = 1e+200"),
], ids=["empty-interval", "a-only", "half-length", "negative-c", "huge-c"])
def test_model_errors_name_their_key(tmp_path, capsys, family, keys, key, line, msg):
    text = "".join("%s = %s\n" % kv for kv in {"model.family": family, **keys}.items())
    cfg = write(tmp_path, "m.cfg", text + "grid.z_list = 1j\n")
    rc, out, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert (rc, out) == (2, "")
    assert err == "config error: %s:%d: key %r: %s\n" % (cfg, line, key, msg)


_JC_HEAD = "jc.alpha = 0\njc.beta = 1\njc.tau = 1\n"


@pytest.mark.parametrize("task, text, key, line", [
    ("spectrum", _JC_HEAD + "jc.N = 1000000000\n", "jc.N", 4),
    ("jc-run", _JC_HEAD + "jc.N = 1100\n", "jc.N", 4),
    ("weyl-sample", _JC_HEAD + "jc.N = 100000\ngrid.z_list = 1j\n", "jc.N", 4),
    # 2 (N + 1) = 4002 boundary channels pass, a row of 32 million cells does not
    ("weyl-sample", _JC_HEAD + "jc.N = 2000\ngrid.z_list = 1j\n", "grid.z_list", 5),
    ("weyl-sample", "model.family = schrodinger-right\n"
     "grid.re_min = -1\ngrid.re_max = 1\ngrid.re_n = 100000\n"
     "grid.im_min = 0.5\ngrid.im_max = 1\ngrid.im_n = 1000000\n", "grid.im_n", 7),
    ("gamma-sample", "model.family = schrodinger-right\ngamma.z = 1j\n"
     "grid.x_min = 0\ngrid.x_max = 1\ngrid.x_n = 1000000000\n", "grid.x_n", 5),
    ("krein-kernel", "model.family = schrodinger-right\nkrein.z = -1\n"
     "krein.variant = theta1\ngrid.x_min = 0\ngrid.x_max = 1\ngrid.x_n = 1000000\n",
     "grid.x_n", 6),
    ("jc-run", _JC_HEAD + "jc.N = 3\ngrid.x_min = -1\ngrid.x_max = 1\n"
     "grid.x_n = 100000\n", "grid.x_n", 7),
], ids=["spectrum-N", "jc-run-N", "jc-weyl-N", "z-list", "z-rectangle", "gamma-x", "krein-x",
        "jc-run-x"])
def test_oversized_inputs_rejected_before_allocating(tmp_path, capsys, task, text, key, line):
    cfg = write(tmp_path, "big.cfg", text)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, [task, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert "%s:%d: key %r: the task would need about" % (cfg, line, key) in err
    assert peak < 2 ** 24


@pytest.mark.parametrize("task, extra", [
    ("gamma-sample", "gamma.z = -1\n"),
    ("krein-kernel", "krein.z = -1\nkrein.variant = theta1\n"),
])
@pytest.mark.parametrize("x_min, x_max, key, line", [
    (-40, 1, "grid.x_min", 2), (0, -40, "grid.x_max", 3),
])
def test_x_grid_outside_kernel_domain(tmp_path, capsys, task, extra,
                                      x_min, x_max, key, line):
    # the right half line lives on x >= 0
    cfg = write(tmp_path, "dom.cfg", (
        "model.family = schrodinger-right\n"
        "grid.x_min = %s\ngrid.x_max = %s\ngrid.x_n = 3\n" % (x_min, x_max)
        + extra
    ))
    rc, out, err = run(capsys, [task, "--config", cfg])
    assert rc == 2 and out == ""
    assert "%s:%d: key %r" % (cfg, line, key) in err
    assert "outside the kernel domain" in err


def test_jc_weyl_sample_frozen_rows(tmp_path, capsys):
    # the scalar lead-normalization route, pinned to its 17-digit bytes
    cfg = write(tmp_path, "jcws.cfg", (
        "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = 1\njc.v_l = 0.5\n"
        "grid.z_list = 1j, -1+0.5j\n"
    ))
    rc, out, _ = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3 and len(lines[0].split(",")) == 2 + 2 * 16
    zero8 = ",0,0,0,0,0,0,0,0,"
    assert lines[1] == "0,1,0,1" + zero8 + "0,1" + zero8 + "0,1" + zero8 + "0,1"
    assert lines[2] == (
        "-1,0.5,-0.61476411030279554,0.36233325114267589" + zero8
        + "-0.78102134635489007,0.40437559097596465" + zero8
        + "-0.45534669022535496,0.34356074972251255" + zero8
        + "-0.71715289414036654,0.38548882666724676"
    )


def test_missing_required_key(tmp_path, capsys):
    cfg = write(tmp_path, "empty.cfg", "grid.z_list = 1j\n")
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "model.family" in err or "jc." in err


def test_malformed_line_reports_position(tmp_path, capsys):
    cfg = write(tmp_path, "syn.cfg", "model.family schrodinger-right\n")
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "syn.cfg:1" in err


def test_invalid_json_reports_position(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", '{"model": {"family": }}')
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 2
    assert "bad.json:1:" in err


def test_numeric_failure_exit_code(tmp_path, capsys):
    # z on a Weyl-branch pole of the interval model
    cfg = write(tmp_path, "pole.cfg", (
        "model.family = schrodinger-interval\n"
        "model.a = 0\nmodel.b = 1\n"
        "grid.z_list = 9.8696044010893586\n"
    ))
    rc, _, err = run(capsys, ["weyl-sample", "--config", cfg])
    assert rc == 3
    assert "PoleError" in err


def test_krein_kernel_rejects_spinor_families(tmp_path, capsys):
    cfg = write(tmp_path, "kkd.cfg", (
        "model.family = dirac-right\n"
        "krein.z = -1\nkrein.variant = theta1\n"
        "grid.x_min = 0\ngrid.x_max = 1\ngrid.x_n = 2\n"
    ))
    rc, _, err = run(capsys, ["krein-kernel", "--config", cfg])
    assert rc == 2
    assert "model.family" in err


# CI's tiny configs; every task but validate must run on numpy alone
_X3 = "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
_JC = "jc.alpha = 0\njc.beta = 1\njc.tau = 0.5\njc.N = 2\n"
_COLD_TASKS = {
    "weyl-sample": WS_CFG,
    "gamma-sample": "model.family = full-line-contact\ngamma.z = 1j\n" + _X3,
    "spectrum": _JC,
    "krein-kernel": ("model.family = full-line-contact\nkrein.z = -1+0.5j\n"
                     "krein.variant = theta1\n" + _X3),
    "jc-run": _JC,
}
# runs each task in turn, reporting its exit code and the scipy modules
# loaded once it is done
_COLD_SCRIPT = """
import json, sys
from weyltriplets import cli
for task, cfg, out in zip(*[iter(sys.argv[1:])] * 3):
    rc = cli.main([task, "--config", cfg, "--out", out])
    print(json.dumps([task, rc, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_cold_start_loads_scipy_only_for_validate(tmp_path):
    argv = []
    for task, text in {**_COLD_TASKS, "validate": ""}.items():
        argv += [task, write(tmp_path, task + ".cfg", text), str(tmp_path / (task + ".out"))]
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r[0] for r in report] == [*_COLD_TASKS, "validate"]
    assert all(rc == 0 for _, rc, _ in report), report
    # no scipy module until validate's banded solves and quadrature
    assert all(loaded == [] for _, _, loaded in report[:-1]), report
    assert {"scipy.linalg", "scipy.integrate"} <= set(report[-1][2])


def test_unknown_task_exits_config(tmp_path, capsys):
    cfg = write(tmp_path, "ws.cfg", WS_CFG)
    assert cli.main(["nosuchtask", "--config", cfg]) == 2
    capsys.readouterr()


def test_jc_run_rejects_csv_and_is_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, "jc.cfg", (
        "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = 3\n"
        "jc.v_l = 0.5\njc.v_r = 0\njc.z = -1+0.5j\n"
        "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
    ))
    rc, _, err = run(capsys, ["jc-run", "--config", cfg, "--format", "csv"])
    assert rc == 2 and "csv" in err
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["jc-run", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["jc-run", "--config", cfg, "--out", out_b]) == 0
    capsys.readouterr()
    blob_a = Path(out_a).read_bytes()
    assert blob_a == Path(out_b).read_bytes()
    doc = json.loads(blob_a)
    for key in ("model", "rq_consistency", "jacobi", "kernel_equivalence",
                "spectrum_CJC", "spectrum_tilde_CJC", "weyl_S_diag",
                "correction"):
        assert key in doc
    assert doc["jacobi"]["chain_block_diagonal"] is True
    assert doc["jacobi"]["fock_block_tridiagonal"] is True


def test_jc_run_frozen_bytes(tmp_path, capsys):
    # sha256 of the full jc-run document at N = 2; the same at 1 and 2
    # BLAS threads
    cfg = write(tmp_path, "jc2.cfg", (
        "jc.alpha = 0.1\njc.beta = 0.9\njc.gamma_re = 0.2\njc.gamma_im = -0.15\n"
        "jc.tau = 0.7\njc.N = 2\njc.v_l = 0.5\njc.v_r = 0.25\njc.z = -1+0.5j\n"
        "grid.x_min = -1\ngrid.x_max = 1\ngrid.x_n = 3\n"
    ))
    rc, out, _ = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "73daeb86e1e56902ecc3bcfa4dcdd1f99f237a07e1894f7f16da1b0f4108b4e9")


@pytest.mark.parametrize("N", [0, 3])
def test_jc_run_evaluates_each_anchor_once(tmp_path, capsys, monkeypatch, N):
    # the anchors a = m(i - k; v) over (side, Fock level): 2(N+1) scalar
    # evaluations per jc-run, shared by R, Q, the Weyl function and the
    # gamma weights
    m_true, anchors = hg.m_schrodinger_halfline, []

    def counted(z, v=0.0):
        if complex(z).imag == 1.0:
            anchors.append((complex(z), v))
        return m_true(z, v)

    monkeypatch.setattr(hg, "m_schrodinger_halfline", counted)
    cfg = write(tmp_path, "jc.cfg", (
        "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = %d\n"
        "jc.v_l = 0.5\njc.v_r = 0.25\njc.z = -1+0.5j\n" % N
    ))
    rc, _, _ = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 0
    assert Counter(anchors) == Counter((1j - k, v) for v in (0.5, 0.25) for k in range(N + 1))


def test_jc_run_evaluates_the_lead_weyl_function_once(tmp_path, capsys, monkeypatch):
    # 2(N+1) anchors plus one M^S(z), shared by the decoupling report, the
    # correction and weyl_S_diag
    m_true, calls = hg.m_schrodinger_halfline, []

    def counted(z, v=0.0):
        calls.append((complex(z), v))
        return m_true(z, v)

    monkeypatch.setattr(hg, "m_schrodinger_halfline", counted)
    cfg = write(tmp_path, "jc.cfg", (
        "jc.alpha = 0.1\njc.beta = 0.9\njc.tau = 0.7\njc.N = 3\n"
        "jc.v_l = 0.5\njc.v_r = 0.25\njc.z = -1+0.5j\n"
    ))
    rc, _, _ = run(capsys, ["jc-run", "--config", cfg])
    assert rc == 0
    assert len(calls) == 2 * 4 + 2 * 4
    assert Counter(calls) == Counter((z - k, v) for v in (0.5, 0.25) for k in range(4)
                                     for z in (1j, -1 + 0.5j))


# the five ops of the grid-sweep benchmark at small sizes (its seed-0
# parameters), except 130 x 130 Krein points, which span several render blocks;
# then weyl-sample and gamma-sample on every other family (with the removable
# points z = v and z = c^2/2 of the intervals) and krein-kernel on every other
# scalar family
_GRID_SWEEP_OPS = {
    "jc-weyl": ("weyl-sample", [], (
        "jc.alpha = 0.344422\njc.beta = 1.709545\njc.gamma_re = -0.031771\n"
        "jc.gamma_im = -0.096433\njc.tau = 1.011275\njc.N = 2\njc.v_l = 1.512335\n"
        "jc.v_r = 0.391899\ngrid.re_min = -2.916618\ngrid.re_max = 3.083382\n"
        "grid.re_n = 3\ngrid.im_min = 0.381623\ngrid.im_max = 2.381623\ngrid.im_n = 3\n")),
    "model-weyl": ("weyl-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.009374\nmodel.a = -1.218162\n"
        "model.b = 1.255804\ngrid.re_min = -2.881631\ngrid.re_max = 3.118369\n"
        "grid.re_n = 4\ngrid.im_min = 0.250101\ngrid.im_max = 2.250101\ngrid.im_n = 4\n")),
    "validate": ("validate", ["--seed", "0"], ""),
    "krein-kernel": ("krein-kernel", [], (
        "model.family = full-line-contact\nmodel.v_l = 1.819493\nmodel.v_r = 1.965571\n"
        "krein.z = 0.430652+1.382599j\nkrein.variant = operator\n"
        "krein.entries = 0.965221+0j,0.398838+0.183984j,0.398838-0.183984j,-0.905252+0j\n"
        "grid.x_min = -4.0\ngrid.x_max = 4.0\ngrid.x_n = 130\n")),
    "gamma-sample": ("gamma-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = -0.055715\nmodel.a = -1.0\n"
        "model.b = 1.0\ngamma.z = -1.597195+0.821006j\ngrid.x_min = -1.0\n"
        "grid.x_max = 1.0\ngrid.x_n = 12\n")),
    "weyl-schrodinger-right": ("weyl-sample", [], (
        "model.family = schrodinger-right\nmodel.v = 0.3\nmodel.b = 0.5\n"
        "grid.z_list = 1j, -1+0.5j, 2-1j, -0.7\n")),
    "weyl-schrodinger-left": ("weyl-sample", [], (
        "model.family = schrodinger-left\nmodel.v = -0.2\nmodel.a = 0.25\n"
        "grid.z_list = 1j, -1+0.5j, 2-1j, -0.7\n")),
    "weyl-dirac-right": ("weyl-sample", [], (
        "model.family = dirac-right\nmodel.c = 1.3\nmodel.b = 0.5\n"
        "grid.z_list = 1j, -1+0.5j, 2-1j, 0.3\n")),
    "weyl-dirac-interval": ("weyl-sample", [], (
        "model.family = dirac-interval\nmodel.c = 1.0\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "grid.z_list = 1j, -1+0.5j, 2-1j, 0.5, 0.2\n")),
    # series at z = v and v + 1e-14 i, 1.5e-10 off a tan pole and (1.5e-10 i) off
    # a cot pole, and saturated tan and cot at 1e5 i
    "weyl-schrodinger-interval": ("weyl-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.2\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "grid.z_list = 0.2, 0.2+1e-14j, 2.6674011007435787, "
        "10.069604401089357+9.42477796076938e-10j, 100000j\n")),
    # the series of the second Dirac entry next to its pole -c^2/2
    "weyl-dirac-interval-near-minus-s": ("weyl-sample", [], (
        "model.family = dirac-interval\nmodel.c = 1.0\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "grid.z_list = -0.5+1e-14j\n")),
    "weyl-full-line-contact": ("weyl-sample", [], (
        "model.family = full-line-contact\nmodel.v_l = 1.0\nmodel.v_r = 0.5\n"
        "grid.z_list = 1j, -1+0.5j, 2-1j, -0.7\n")),
    "gamma-schrodinger-right": ("gamma-sample", [], (
        "model.family = schrodinger-right\nmodel.v = 0.3\nmodel.b = 0.5\n"
        "gamma.z = -1+0.5j\ngrid.x_min = 0.5\ngrid.x_max = 3.0\ngrid.x_n = 7\n")),
    "gamma-schrodinger-left": ("gamma-sample", [], (
        "model.family = schrodinger-left\nmodel.v = -0.2\nmodel.a = 0.25\n"
        "gamma.z = 2-1j\ngrid.x_min = -3.0\ngrid.x_max = 0.25\ngrid.x_n = 7\n")),
    "gamma-schrodinger-interval-at-v": ("gamma-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.2\nmodel.a = -1.0\n"
        "model.b = 0.5\ngamma.z = 0.2\ngrid.x_min = -1.0\ngrid.x_max = 0.5\ngrid.x_n = 7\n")),
    "gamma-schrodinger-interval-near-v": ("gamma-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.2\nmodel.a = -1.0\n"
        "model.b = 0.5\ngamma.z = 0.2+1e-14j\ngrid.x_min = -1.0\ngrid.x_max = 0.5\n"
        "grid.x_n = 7\n")),
    "gamma-schrodinger-interval-2e5j": ("gamma-sample", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.0\nmodel.a = -1.0\n"
        "model.b = 1.0\ngamma.z = 2e5j\ngrid.x_min = -1.0\ngrid.x_max = 1.0\ngrid.x_n = 7\n")),
    "gamma-dirac-right": ("gamma-sample", [], (
        "model.family = dirac-right\nmodel.c = 1.3\nmodel.b = 0.5\n"
        "gamma.z = -1+0.5j\ngrid.x_min = 0.5\ngrid.x_max = 3.0\ngrid.x_n = 7\n")),
    "gamma-dirac-interval": ("gamma-sample", [], (
        "model.family = dirac-interval\nmodel.c = 1.0\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "gamma.z = 2+1j\ngrid.x_min = -1.0\ngrid.x_max = 1.0\ngrid.x_n = 7\n")),
    "gamma-dirac-interval-at-s": ("gamma-sample", [], (
        "model.family = dirac-interval\nmodel.c = 1.0\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "gamma.z = 0.5\ngrid.x_min = -1.0\ngrid.x_max = 1.0\ngrid.x_n = 7\n")),
    "gamma-dirac-interval-near-s": ("gamma-sample", [], (
        "model.family = dirac-interval\nmodel.c = 1.0\nmodel.a = -1.0\nmodel.b = 1.0\n"
        "gamma.z = 0.5+1e-14j\ngrid.x_min = -1.0\ngrid.x_max = 1.0\ngrid.x_n = 7\n")),
    "gamma-full-line-contact": ("gamma-sample", [], (
        "model.family = full-line-contact\nmodel.v_l = 1.0\nmodel.v_r = 0.5\n"
        "gamma.z = -1+0.5j\ngamma.xi = 0.5-1j, 2\ngrid.x_min = -2.0\ngrid.x_max = 2.0\n"
        "grid.x_n = 9\n")),
    "krein-schrodinger-right": ("krein-kernel", [], (
        "model.family = schrodinger-right\nmodel.v = 0.3\nmodel.b = 0.5\n"
        "krein.z = -1+0.5j\nkrein.variant = operator\nkrein.theta = 0.7\n"
        "grid.x_min = 0.5\ngrid.x_max = 3.0\ngrid.x_n = 6\n")),
    "krein-schrodinger-left": ("krein-kernel", [], (
        "model.family = schrodinger-left\nmodel.v = -0.2\nmodel.a = 0.25\n"
        "krein.z = 2-1j\nkrein.variant = theta0\n"
        "grid.x_min = -3.0\ngrid.x_max = 0.25\ngrid.x_n = 6\n")),
    "krein-schrodinger-interval": ("krein-kernel", [], (
        "model.family = schrodinger-interval\nmodel.v = 0.2\nmodel.a = -1.0\nmodel.b = 0.5\n"
        "krein.z = -1+0.5j\nkrein.variant = operator\n"
        "krein.entries = 1, 0.2+0.1j, 0.2-0.1j, -0.5\n"
        "grid.x_min = -1.0\ngrid.x_max = 0.5\ngrid.x_n = 6\n")),
}

_GRID_SWEEP_SHA256 = {
    ("jc-weyl", "csv"): "2f94c7c75d70dcac0e463b711b4b8d91991ef3ba10800893085522705376eeea",
    ("jc-weyl", "json"): "781174e04082ca353d80e4a58b75fd3a82a58395f49ae088f0379e390c2d638f",
    ("model-weyl", "csv"): "2aa1af5716ce6761d8027ecf87e1bedde22ca2f19a0afad79d38753e3fcefa57",
    ("model-weyl", "json"): "c026628e3f1562ce9368af64f41f30cb157fa3642fd46b05c9a57a1b28b4aafb",
    ("validate", "csv"): "3b885d58c1adf2970412857522471de3b38bd3f42f279cec1b6a96ac84261189",
    ("validate", "table"): "4fe1f0f37a950213b420aefb7976aeb303213fc00b7742b6917a58a24d7e4bd8",
    ("krein-kernel", "csv"): "1c061d2546893f4119c18a83919de52da397c4dbc603fa52ae306f8ea0bc08c1",
    ("krein-kernel", "json"): "c443f90a1fa11afc3b0cffa479dc1772c1d369f3ae9c7632f28d3c7ca4bae59b",
    ("gamma-sample", "csv"): "bc93bfb560b0361e27b98411194f2942d9e0a3a234ec4f337181289f8c0bdc7c",
    ("gamma-sample", "json"): "517a028bb24bcbadb5e6b93d3efa777c43d3c8e4c2b9fe6ffec82b72cf31df75",
    ("weyl-schrodinger-right", "csv"):
        "52798a909f9b147834f79ae6a9b40b6945a4a327dddaf31f67819b16c43a687b",
    ("weyl-schrodinger-right", "json"):
        "cd3d613a43586f7d54225c46e3cfb5de42039291c02d230eb86b8d5db8096433",
    ("weyl-schrodinger-left", "csv"):
        "95f2051a8e9298bbb796b9b5cd6ed3d01fdf80aca47399078cb7fadee54ceda3",
    ("weyl-schrodinger-left", "json"):
        "51e6bde080661c61220b9a7720eccee7a1521ebbfc6945f2317454446e2e1217",
    ("weyl-dirac-right", "csv"):
        "aadeed97bff9e1ede41af8e6506b83cae5d1da2f630c473264de56cc1c561c3f",
    ("weyl-dirac-right", "json"):
        "c0c54db19f2f481f54e2c41d72a62bcc4645d757b5cc006a2dccdaa639b62f8d",
    ("weyl-dirac-interval", "csv"):
        "ce2b9847b5554e70568a291f46e37af08d67e938ed8885db1fafeb53f86f4edb",
    ("weyl-dirac-interval", "json"):
        "78f0bd944e44ddafc4331f328893fc3d3a37be922a7d00a87fd2144c487d30d1",
    ("weyl-schrodinger-interval", "csv"):
        "6121db0e3152f11d1f828efa16f109e21f3bb8986fd10b99b2a2b0457e750ca5",
    ("weyl-schrodinger-interval", "json"):
        "e63b350075b4d0fe1e200b5e9680dfbabffdd55b0f18ee45b4531f0b201e0789",
    ("weyl-dirac-interval-near-minus-s", "csv"):
        "f7aeb62a712a37f73ff2427b469a0f194399bc1c6f478b77891bca70650f0ba4",
    ("weyl-dirac-interval-near-minus-s", "json"):
        "1fe10ddc423087e397acfc8029f39d0f698c919df297188cc57732d4bd9161c2",
    ("weyl-full-line-contact", "csv"):
        "282b97f8586a4222c71b8a1c49625e469fdbabb1f73ef256f3af21c52f5c7dc5",
    ("weyl-full-line-contact", "json"):
        "b11f2dc79a98ae5db6d122ade46f7cb4dceccc79f57b83423cc22c2ecb3f9bd7",
    ("gamma-schrodinger-right", "csv"):
        "c129824206c128aae452a35b3fe72bc1275be5fc3a40aa259f9f275518a9b9b3",
    ("gamma-schrodinger-right", "json"):
        "d59dbd6d4d1e58fbe7a0b1879fa571db9a89532676dbc7caab8497640fdb64e8",
    ("gamma-schrodinger-left", "csv"):
        "3a8f6308e1c4bcbc711ef84fd247b0f19e4bb560d1cc372d98749e3c2e890587",
    ("gamma-schrodinger-left", "json"):
        "3827945cb86727f659c9c2cdc63cca7bdf4530adc8b76bfd87dbc547dcbc2d7f",
    ("gamma-schrodinger-interval-at-v", "csv"):
        "dc11bec8326e6468b3b4093d078ef15e5b36a8cc80a11052fcdfe50a17b8443c",
    ("gamma-schrodinger-interval-at-v", "json"):
        "b2651f5058ac95101c3d1bf97ab6761b987515b87daa3290e87948551f224f06",
    ("gamma-schrodinger-interval-near-v", "csv"):
        "541c96625842f4fd2d80cfea9ef3d3198771c4bea50644f95d9616ff3324b175",
    ("gamma-schrodinger-interval-near-v", "json"):
        "e184c90f92c77d98173e7391599f6c124c42bcb4d353b322707b346f0e34a620",
    ("gamma-schrodinger-interval-2e5j", "csv"):
        "c500efdb19388830b6ab2c2f19ea620268278d1f10b0ad12794186ce0a26bda7",
    ("gamma-schrodinger-interval-2e5j", "json"):
        "a1163fe21a0bee7bba04c1aa9199e4f0ab9c99284a582d805dc3a4a061e5dd5e",
    ("gamma-dirac-right", "csv"):
        "deddab95ae3f3a062b9d6200da7506915959e7e3178397b77adc9a0a6d2d8ed7",
    ("gamma-dirac-right", "json"):
        "850ecac08283f49c74c3b1abc1bea941f6d23ad0bc20c59ced7ed0f818d9f558",
    ("gamma-dirac-interval", "csv"):
        "36639ae7a2206df6e8b71b6ceaf2957329eee69b6c3dd17535d2e878d0b4d030",
    ("gamma-dirac-interval", "json"):
        "5b5a5b602052c9c413c1839a2d9b3dd1c05a03ec82b8f21694fedeb690c862d0",
    ("gamma-dirac-interval-at-s", "csv"):
        "3eb29212e892913b822cce866ed7d39698153f6606c11dc2ca64031007b83c0c",
    ("gamma-dirac-interval-at-s", "json"):
        "283cdc6f764a4fb0881db1801f693961a6962b4534dbbca7faab2edf265d800b",
    ("gamma-dirac-interval-near-s", "csv"):
        "24a4e318dcd4df92c4653261a0b8892a0d5c4fed6d0bb2d709d6b5ef3ca6d76a",
    ("gamma-dirac-interval-near-s", "json"):
        "8cf1e44c159b8feb3a396ada02ed14b8092c2c16f975790978e54f7cc657a374",
    ("gamma-full-line-contact", "csv"):
        "60cc187ff089aaaaae8316f6e7a90aa68d35c09f5cfcbc23fef0810f6159b5d1",
    ("gamma-full-line-contact", "json"):
        "5d5f4893897a27ac6d488af5070070122f08c1daa75a2411f1fc35e181a7d14c",
    ("krein-schrodinger-right", "csv"):
        "a438f7d4112d8a374a886a8eaa89d3e788936c2cfe5541b0d1db350f00dfc570",
    ("krein-schrodinger-right", "json"):
        "f18bb0e8dd4b0367c2b687f3ec068434253e2fc0d98019ff31bf8bb3775b66ad",
    ("krein-schrodinger-left", "csv"):
        "3240972d0c729dc9fa721fe77d93e16967eee460b711800ffa1750a40aec11fa",
    ("krein-schrodinger-left", "json"):
        "31a4466e15e14b71b77528dc7dc7dabbd90180f5bb06c85a34772387ba9d8595",
    ("krein-schrodinger-interval", "csv"):
        "da89b0fd1d1490876f667819b968ad47ba26a99428b47de0c9fd2120b71fde4e",
    ("krein-schrodinger-interval", "json"):
        "b7cf1af999b6aa1301b591a33b21bb158d239fc13ff92dbf34778914a6aa0c40",
}


# "table" is validate's default format, an aligned text table
@pytest.mark.parametrize("op, fmt", list(_GRID_SWEEP_SHA256))
def test_grid_sweep_frozen_bytes(tmp_path, capsys, op, fmt):
    task, extra, text = _GRID_SWEEP_OPS[op]
    cfg, out = write(tmp_path, op + ".cfg", text), str(tmp_path / ("out." + fmt))
    fmt_args = [] if fmt == "table" else ["--format", fmt]
    rc, stdout, err = run(capsys, [task, "--config", cfg, "--out", out] + fmt_args + extra)
    assert (rc, stdout, err) == (0, "", "")
    blob = Path(out).read_bytes()
    if task == "validate":
        # the principal angle of jc-kernel-equivalence is a rounding residual
        # whose last bits follow the QR's LAPACK kernels; its row is pinned
        # without that one field
        blob = re.sub(rb"(?m)^(jc-kernel-equivalence[ ,]+)[^ ,]+ *", rb"\1*", blob)
    assert hashlib.sha256(blob).hexdigest() == _GRID_SWEEP_SHA256[op, fmt]


def test_validate_all_checks_pass(tmp_path, capsys):
    cfg = write(tmp_path, "v.cfg", "\n")
    rc, out, _ = run(capsys, ["validate", "--config", cfg])
    assert rc == 0
    assert "FAIL" not in out
    summary = out.strip().splitlines()[-1]
    n_checks = int(summary.split()[0])
    assert n_checks >= 25
    assert "%d passed, 0 failed" % n_checks in summary


def test_validate_rejects_json(tmp_path, capsys):
    cfg = write(tmp_path, "v.cfg", "\n")
    rc, out, err = run(capsys, ["validate", "--config", cfg, "--format", "json"])
    assert (rc, out) == (2, "") and "json" in err


def test_validate_csv_format(tmp_path, capsys):
    cfg = write(tmp_path, "v.cfg", "\n")
    rc, out, _ = run(capsys, ["validate", "--config", cfg, "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,residual,tolerance,status"
    assert len(lines) - 1 >= 25
    assert all(ln.rsplit(",", 1)[1] == "ok" for ln in lines[1:])


# -- fuzzing -------------------------------------------------------------------

# moderate reals plus the extremes that overflow squares, exponentials and
# products in the closed forms
_NUMBERS = st.one_of(
    st.floats(-10, 10, allow_nan=False),
    st.sampled_from([1e200, -1e200, 1e308, -1e308, 1e-300]),
)
_COMPLEX = st.builds(complex, _NUMBERS, _NUMBERS)


@st.composite
def _cli_case(draw):
    """(task, config keys, --format) with jc.N <= 3 and every grid count <= 3."""
    task = draw(st.sampled_from([t for t in cli.TASKS if t != "validate"]))
    keys = {}

    def put(key, strategy, optional=False):
        if not optional or draw(st.booleans()):
            keys[key] = str(draw(strategy))

    if task in ("spectrum", "jc-run") or (task == "weyl-sample" and draw(st.booleans())):
        for key in ("jc.alpha", "jc.beta", "jc.tau"):
            put(key, _NUMBERS)
        put("jc.N", st.integers(0, 3))
        for key in ("jc.gamma_re", "jc.gamma_im", "jc.v_l", "jc.v_r"):
            put(key, _NUMBERS, optional=True)
        if task == "jc-run":
            put("jc.z", _COMPLEX, optional=True)
        if task == "spectrum":
            put("spectrum.which", st.sampled_from(["cjc", "tilde"]), optional=True)
    else:
        family = draw(st.sampled_from(FAMILIES))
        keys["model.family"] = family
        for p in ("v", "c", "a", "b", "v_l", "v_r"):
            put("model." + p, _NUMBERS, optional=True)
            # drawn for every family, so each example keeps its values; a key
            # the family does not take is a config error of its own
            if p not in inspect.signature(FACTORIES[family]).parameters:
                keys.pop("model." + p, None)
    if task == "weyl-sample":
        if draw(st.booleans()):
            keys["grid.z_list"] = ", ".join(
                map(str, draw(st.lists(_COMPLEX, min_size=1, max_size=3))))
        else:
            for key in ("grid.re_min", "grid.re_max", "grid.im_min", "grid.im_max"):
                put(key, _NUMBERS)
            put("grid.re_n", st.integers(1, 3))
            put("grid.im_n", st.integers(1, 3))
    if task in ("gamma-sample", "krein-kernel") or (task == "jc-run" and draw(st.booleans())):
        put("grid.x_min", st.one_of(st.floats(-1, 1), _NUMBERS))
        put("grid.x_max", st.one_of(st.floats(-1, 1), _NUMBERS))
        put("grid.x_n", st.integers(1, 3))
    if task == "gamma-sample":
        put("gamma.z", _COMPLEX)
        if draw(st.booleans()):
            keys["gamma.xi"] = ", ".join(
                map(str, draw(st.lists(_COMPLEX, min_size=1, max_size=2))))
    if task == "krein-kernel":
        put("krein.z", _COMPLEX)
        variant = draw(st.sampled_from(["theta0", "theta1", "operator"]))
        keys["krein.variant"] = variant
        if variant == "operator" and draw(st.booleans()):
            put("krein.theta", _NUMBERS)
        elif variant == "operator":
            a, d = draw(_NUMBERS), draw(_NUMBERS)
            b = draw(_COMPLEX)
            keys["krein.entries"] = ", ".join(map(str, (a, b, b.conjugate(), d)))
    return task, keys, "json" if task == "jc-run" else draw(st.sampled_from(["csv", "json"]))


def _numbers(text):
    """Every token of a csv table or JSON document that parses as a float."""
    out = []
    for token in re.split(r'[\s,\[\]{}:]+', text):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


# a point where Im z / Re z underflows in herglotz.sqrt_cut
_SQRT_CUT_UNDERFLOW = ("weyl-sample", {
    "jc.alpha": "0", "jc.beta": "1", "jc.tau": "1", "jc.N": "1",
    "grid.z_list": "(1e+308-1.4791286014180062e-283j)"}, "csv")
# a Fock truncation far beyond memory: a config error, not a MemoryError
_HUGE_FOCK = ("spectrum", {
    "jc.alpha": "0", "jc.beta": "1", "jc.tau": "1", "jc.N": "1000000000"}, "csv")
_JC = {"jc.alpha": "0", "jc.beta": "1", "jc.tau": "1", "jc.N": "1"}
_SPAN = {"grid.x_min": "-1e308", "grid.x_max": "1e308", "grid.x_n": "2"}
# grid spans whose max - min overflows
_X_SPAN_JC = ("jc-run", {**_JC, **_SPAN}, "json")
_X_SPAN_KREIN = ("krein-kernel", {"model.family": "full-line-contact", "krein.z": "1j",
                                  "krein.variant": "theta0", **_SPAN}, "csv")
_RE_SPAN = ("weyl-sample", {**_JC, "grid.re_min": "-1e308", "grid.re_max": "1e308",
                            "grid.re_n": "2", "grid.im_min": "1", "grid.im_max": "2",
                            "grid.im_n": "1"}, "csv")
# dots whose M1 = [-C, I] is too large for kernel_equivalence's rank
# certificate; with this one C~ - M^S(z) is singular too, but kernel_equivalence
# runs first in jc-run
_KE_HUGE_BETA = ("jc-run", {"jc.alpha": "3", "jc.beta": "1e308", "jc.gamma_re": "1",
                            "jc.gamma_im": "-1e308", "jc.tau": "2", "jc.N": "0"}, "json")
_KE_HUGE_ALPHA = ("jc-run", {"jc.alpha": "-1e308", "jc.beta": "0", "jc.tau": "0",
                             "jc.N": "0"}, "json")
# a huge rank-one dot, whose M1 = [-C, I] has numerical row rank 1, not 2
_KE_RANK_ONE = ("jc-run", {"jc.alpha": "1e300", "jc.beta": "1e300", "jc.gamma_re": "1e300",
                           "jc.tau": "0", "jc.N": "0"}, "json")
# a dot at the overflow threshold, with a coupling gamma as large
_KE_QR_OVERFLOW = ("jc-run", {"jc.alpha": "0", "jc.beta": "-1e308", "jc.gamma_re": "-1e308",
                              "jc.tau": "0", "jc.N": "0"}, "json")
# an overflowing dot eigenvalue gap, and overflows in the interval kernels' trig
_DOT_GAP = ("spectrum", {"jc.alpha": "1", "jc.beta": "-1", "jc.tau": "-1", "jc.N": "0",
                         "jc.gamma_re": "-1e20", "jc.gamma_im": "1e308"}, "csv")
_DIRAC_WIDE = ("gamma-sample", {
    "model.family": "dirac-interval", "model.c": "1e20", "model.a": "-1e308",
    "model.b": "1e10", "gamma.z": "1+1e-300j", "grid.x_min": "1", "grid.x_max": "1e200",
    "grid.x_n": "1"}, "csv")
_DIRAC_SLOW = ("gamma-sample", {
    "model.family": "dirac-interval", "model.c": "5e-324", "gamma.z": "-1e20+1e-20j",
    "grid.x_min": "0.5", "grid.x_max": "2", "grid.x_n": "1"}, "csv")
_SCHRODINGER_FAR = ("gamma-sample", {
    "model.family": "schrodinger-interval", "model.v": "-1e20", "model.a": "1e200",
    "model.b": "1e308", "gamma.z": "1+1e-300j", "grid.x_min": "5e-324",
    "grid.x_max": "-1", "grid.x_n": "2"}, "csv")
# a gamma image contracted with a boundary vector that overflows
_XI_OVERFLOW = ("gamma-sample", {
    "model.family": "full-line-contact", "model.v_r": "1.88", "grid.x_min": "2.70",
    "grid.x_max": "0", "grid.x_n": "2", "gamma.z": "-1e200-1e308j",
    "gamma.xi": "1e308-4e-94j, 1e308+0j"}, "csv")
# dot energies and a JC coupling that overflow C_JC
_CJC_OVERFLOW = ("spectrum", {"jc.alpha": "1e308", "jc.beta": "1e308", "jc.tau": "1e308",
                              "jc.gamma_re": "1e308", "jc.N": "3"}, "csv")
# a half-length whose square overflows, at w = 0
_INTERVAL_FAR = ("krein-kernel", {
    "model.family": "schrodinger-interval", "model.b": "1e200", "krein.z": "0j",
    "krein.variant": "theta0", "grid.x_min": "0", "grid.x_max": "0", "grid.x_n": "1"},
    "csv")
# (z + c^2/2) d underflows to 0 next to the second Dirac branch's pole
_DIRAC_POLE_UNDERFLOW = ("weyl-sample", {
    "model.family": "dirac-interval", "model.a": "0", "model.b": "2e-200",
    "grid.z_list": "-0.5+1e-130j"}, "csv")
# (z + c^2/2) d is subnormal next to that pole, and c^2/((z + c^2/2) d) overflows
_DIRAC_POLE_OVERFLOW = ("weyl-sample", {
    "model.family": "dirac-interval", "model.a": "0", "model.b": "2e-180",
    "grid.z_list": "-0.5+1e-130j"}, "csv")
# interval endpoints whose length b - a overflows
_INTERVAL_SPAN = ("gamma-sample", {
    "model.family": "schrodinger-interval", "model.a": "-1e308", "model.b": "1e308",
    "gamma.z": "1j", "grid.x_min": "-1", "grid.x_max": "1", "grid.x_n": "3"}, "csv")
# interval endpoints whose sum a + b overflows, with finite midpoint and length
_MIDPOINT_FAR = {"model.a": "1e308", "model.b": "1.5e308", "gamma.z": "1j",
                 "grid.x_min": "1.2e308", "grid.x_max": "1.4e308", "grid.x_n": "3"}
_MIDPOINT_SCHRODINGER = ("gamma-sample", {"model.family": "schrodinger-interval",
                                          **_MIDPOINT_FAR}, "csv")
_MIDPOINT_DIRAC = ("gamma-sample", {"model.family": "dirac-interval", **_MIDPOINT_FAR}, "csv")
# interval endpoints whose half-length (b - a)/2 underflows to 0 although b > a
_HALF_LENGTH_SCHRODINGER = ("weyl-sample", {
    "model.family": "schrodinger-interval", "model.a": "0", "model.b": "5e-324",
    "grid.z_list": "1j"}, "csv")
_HALF_LENGTH_DIRAC = ("gamma-sample", {
    "model.family": "dirac-interval", "model.a": "0", "model.b": "5e-324", "gamma.z": "1j",
    "grid.x_min": "0", "grid.x_max": "0", "grid.x_n": "1"}, "csv")
_KE_REFUSED = "kernel equivalence: the rank certificate of M1 fails"
# (case, exit code, text of the message)
_PINNED = [
    (_SQRT_CUT_UNDERFLOW, 0, ""),
    (_HUGE_FOCK, 2, "key 'jc.N'"),
    (_X_SPAN_JC, 2, "key 'grid.x_max'"),
    (_X_SPAN_KREIN, 2, "key 'grid.x_max'"),
    (_RE_SPAN, 2, "key 'grid.re_max'"),
    (_KE_HUGE_BETA, 3, _KE_REFUSED),
    (_KE_HUGE_ALPHA, 3, _KE_REFUSED),
    (_KE_RANK_ONE, 3, _KE_REFUSED),
    (_KE_QR_OVERFLOW, 3, _KE_REFUSED),
    (_DOT_GAP, 0, ""),
    (_DIRAC_WIDE, 0, ""),
    (_DIRAC_SLOW, 3, "non-finite result"),
    (_SCHRODINGER_FAR, 2, "key 'grid.x_min'"),
    (_XI_OVERFLOW, 3, "non-finite result inf"),
    (_CJC_OVERFLOW, 3, "C_JC is not finite"),
    (_INTERVAL_FAR, 0, ""),
    (_DIRAC_POLE_UNDERFLOW, 3, "pole -c^2/2 of the second Dirac branch"),
    (_DIRAC_POLE_OVERFLOW, 3, "pole -c^2/2 of the second Dirac branch"),
    (_INTERVAL_SPAN, 2, "fuzz.cfg:3: key 'model.b': interval length b - a overflows"),
    (_MIDPOINT_SCHRODINGER, 0, ""),
    (_MIDPOINT_DIRAC, 0, ""),
    (_HALF_LENGTH_SCHRODINGER, 2,
     "fuzz.cfg:3: key 'model.b': interval half-length (b - a)/2 underflows"),
    (_HALF_LENGTH_DIRAC, 2,
     "fuzz.cfg:3: key 'model.b': interval half-length (b - a)/2 underflows"),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@example(("validate", {}, "csv"))
@example(_SQRT_CUT_UNDERFLOW)
@example(_HUGE_FOCK)
@example(_X_SPAN_JC)
@example(_X_SPAN_KREIN)
@example(_RE_SPAN)
@example(_KE_HUGE_BETA)
@example(_KE_HUGE_ALPHA)
@example(_KE_RANK_ONE)
@example(_KE_QR_OVERFLOW)
@example(_DOT_GAP)
@example(_DIRAC_WIDE)
@example(_DIRAC_SLOW)
@example(_SCHRODINGER_FAR)
@example(_XI_OVERFLOW)
@example(_CJC_OVERFLOW)
@example(_INTERVAL_FAR)
@example(_DIRAC_POLE_UNDERFLOW)
@example(_DIRAC_POLE_OVERFLOW)
@example(_INTERVAL_SPAN)
@example(_MIDPOINT_SCHRODINGER)
@example(_MIDPOINT_DIRAC)
@example(_HALF_LENGTH_SCHRODINGER)
@example(_HALF_LENGTH_DIRAC)
@given(_cli_case())
def test_cli_fuzz_exit_codes_and_finite_output(tmp_path_factory, case):
    task, keys, fmt = case
    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in keys.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([task, "--config", str(cfg), "--format", fmt])
    assert rc in (0, 2, 3), err.getvalue()
    for pinned, code, text in _PINNED:
        if case == pinned:
            assert rc == code and text in err.getvalue(), err.getvalue()
    if rc == 0:
        assert all(math.isfinite(x) for x in _numbers(out.getvalue()))
