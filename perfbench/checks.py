"""Correctness checks of every benchmark op.

Each op's output is text: a CSV table from the CLI, or the JSON
document of a jc-ladder rung (the fields ``jc-run`` reports).  Two kinds of check apply:

* Invariants, on every seed: exit code 0, the expected CSV header and
  row count, every emitted float finite, ``validate`` reporting no
  failure, and the dot-model identities ``jc-run`` reports.
* Reference values, on the default seed at full size: a fingerprint of
  the output (header, row count, absolute sums per column and per block
  of rows, and sampled rows or fields) is compared with the one stored in
  ``refs/`` from the seed commit.  Values agree when
  ``|a - b| <= 1e-10 * max(|b|, s)``, with ``s`` the magnitude of the
  column or field; for fields whose reference is below 1e-8 (rounding
  residuals) ``s`` is 1.
"""

import gzip
import json
import re
from pathlib import Path

import numpy as np

RTOL = 1e-10
REF_PATH = Path(__file__).resolve().parent / "refs" / "seed0.json.gz"

# (path in a jc-ladder document, bound): identities of the dot model.
JC_INVARIANTS = (
    (("rq_consistency",), 1e-12),
    (("tilde_hermiticity",), 1e-12),
    (("jacobi", "fock_beyond_band_max"), 1e-14),
    (("kernel_equivalence", "max_principal_angle"), 1e-10),
)
_SAMPLE_ROWS = 8
_SAMPLE_FIELD = 32
_FULL_LIMIT = 64
_ROW_BLOCKS = 64


class CheckError(Exception):
    """An op output failed a check."""


def _is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _sample_indices(n, k):
    if n <= _FULL_LIMIT:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _scale(magnitude):
    return magnitude if magnitude >= 1e-8 else 1.0


def table_fingerprint(text):
    """Header, row count and value summaries of a CSV output."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise CheckError("CSV output is empty or lacks the final newline")
    header, body = lines[0].split(","), lines[1:-1]
    first = body[0].split(",") if body else header
    numeric = [j for j, cell in enumerate(first) if _is_float(cell)]
    text_cols = {header[j]: [] for j in range(len(header)) if j not in numeric}
    keep = set(_sample_indices(len(body), _SAMPLE_ROWS))
    col_sum = np.zeros(len(numeric))
    block_sum = np.zeros(min(len(body), _ROW_BLOCKS))
    samples = {}
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError("row %d has %d cells, header has %d"
                             % (i + 1, len(cells), len(header)))
        try:
            vals = np.array([cells[j] for j in numeric], dtype=float)
        except ValueError as exc:
            raise CheckError("row %d: %s" % (i + 1, exc))
        if not np.isfinite(vals).all():
            raise CheckError("row %d holds a non-finite value" % (i + 1))
        for name in text_cols:
            text_cols[name].append(cells[header.index(name)])
        col_sum += np.abs(vals)
        block_sum[i * len(block_sum) // len(body)] += np.abs(vals).sum()
        if i in keep:
            samples[str(i)] = vals.tolist()
    return {
        "kind": "table", "header": header, "rows": len(body),
        "numeric": [header[j] for j in numeric], "text": text_cols,
        "col_abs_sum": col_sum.tolist(), "block_abs_sum": block_sum.tolist(),
        "samples": samples,
    }


def _flatten(node, path, out):
    if isinstance(node, dict):
        for key, val in node.items():
            _flatten(val, path + (str(key),), out)
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for k, val in enumerate(node):
            _flatten(val, path + (str(k),), out)
    else:
        vals = node if isinstance(node, list) else [node]
        out[".".join(path)] = vals


def doc_fingerprint(text):
    """Every numeric field of a JSON document, sampled when long."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError("invalid JSON output: %s" % exc)
    fields = {}
    _flatten(doc, (), fields)
    out = {}
    for name, vals in fields.items():
        if any(isinstance(v, str) or v is None for v in vals):
            out[name] = {"text": [str(v) for v in vals]}
            continue
        arr = np.array(vals, dtype=float)
        if not np.isfinite(arr).all():
            raise CheckError("field %s holds a non-finite value" % name)
        idx = _sample_indices(len(arr), _SAMPLE_FIELD)
        out[name] = {"n": len(arr), "abs_sum": float(np.abs(arr).sum()),
                     "idx": idx, "sample": arr[idx].tolist()}
    return {"kind": "doc", "fields": out}, doc


def _close(a, b, scale):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= RTOL * np.maximum(np.abs(b), scale)))


def compare_fingerprints(got, ref):
    """Raise CheckError unless ``got`` matches the reference ``ref``."""
    if got["kind"] != ref["kind"]:
        raise CheckError("output kind %s, reference %s" % (got["kind"], ref["kind"]))
    if got["kind"] == "table":
        for key in ("header", "rows", "numeric", "text"):
            if got[key] != ref[key]:
                raise CheckError("%s differs from the reference" % key)
        n = max(ref["rows"], 1)
        col_scale = np.array([_scale(s / n) for s in ref["col_abs_sum"]])
        if not _close(got["col_abs_sum"], ref["col_abs_sum"], col_scale):
            raise CheckError("column sums differ from the reference")
        block_scale = np.array([_scale(s) for s in ref["block_abs_sum"]])
        if not _close(got["block_abs_sum"], ref["block_abs_sum"], block_scale):
            raise CheckError("row-block sums differ from the reference")
        if got["samples"].keys() != ref["samples"].keys():
            raise CheckError("sampled rows differ from the reference")
        for i, vals in ref["samples"].items():
            if not _close(got["samples"][i], vals, col_scale):
                raise CheckError("row %s differs from the reference" % i)
        return
    if got["fields"].keys() != ref["fields"].keys():
        raise CheckError("document fields differ from the reference")
    for name, rf in ref["fields"].items():
        gf = got["fields"][name]
        if "text" in rf or "text" in gf:
            if gf != rf:
                raise CheckError("field %s differs from the reference" % name)
            continue
        if gf["n"] != rf["n"] or gf["idx"] != rf["idx"]:
            raise CheckError("field %s has %d values, reference %d"
                             % (name, gf["n"], rf["n"]))
        scale = _scale(max(np.abs(rf["sample"]).max(initial=0.0),
                           rf["abs_sum"] / max(rf["n"], 1)))
        if not (_close(gf["sample"], rf["sample"], scale)
                and _close(gf["abs_sum"], rf["abs_sum"], _scale(rf["abs_sum"]))):
            raise CheckError("field %s differs from the reference" % name)


def _lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            raise CheckError("document lacks %s" % ".".join(path))
        doc = doc[key]
    return doc


def check_jc_invariants(doc):
    for path, bound in JC_INVARIANTS:
        val = float(_lookup(doc, path))
        if not val <= bound:
            raise CheckError("%s = %.3g exceeds %.0e" % (".".join(path), val, bound))


def fingerprint(op, text):
    """Check the invariants of one op output; return its fingerprint."""
    if "task" not in op:  # a jc-ladder rung: a jc-run style document
        fp, doc = doc_fingerprint(text)
        check_jc_invariants(doc)
        return fp
    fp = table_fingerprint(text)
    if fp["header"] != op["header"]:
        raise CheckError("header %s, expected %s" % (fp["header"][:4], op["header"][:4]))
    if op["task"] == "validate":
        status = fp["text"].get("status", [])
        if len(status) < 25 or any(s != "ok" for s in status):
            raise CheckError("validate: %d checks, %d not ok"
                             % (len(status), sum(s != "ok" for s in status)))
    elif fp["rows"] != op["rows"]:
        raise CheckError("%d rows, expected %d" % (fp["rows"], op["rows"]))
    return fp


def load_refs():
    if not REF_PATH.exists():
        return {}
    with gzip.open(REF_PATH, "rt") as fh:
        return json.load(fh)


class Checker:
    """Checks op outputs; byte-identical repeats of a checked output pass.

    ``refs`` maps ``<workload>/<op key>`` to a reference fingerprint;
    it is consulted only on the default seed at full size.  With
    ``inject_fault`` the first output is corrupted before it is checked
    (the smoke check's proof that a wrong output is counted).
    """

    def __init__(self, workload, use_refs, inject_fault=False):
        self.workload = workload
        self.refs = load_refs() if use_refs else None
        self.inject_fault = inject_fault
        self.verified = {}
        self.fingerprints = {}
        self.reasons = []
        self.attempted = 0

    def check(self, op, rc, text):
        """Record why an op output is wrong, if it is."""
        self.attempted += 1
        if self.inject_fault:
            text, self.inject_fault = corrupt(text), False
        reason = self._reason(op, rc, text)
        if reason:
            self.reasons.append("%s: %s" % (op["key"], reason))

    def _reason(self, op, rc, text):
        if rc != 0:
            return "exit code %s" % rc
        key = op["key"]
        if self.verified.get(key) == text:
            return None
        try:
            fp = fingerprint(op, text)
            if self.refs is not None:
                ref = self.refs.get("%s/%s" % (self.workload, key))
                if ref is None:
                    raise CheckError("no reference for %s" % key)
                compare_fingerprints(fp, ref)
        except CheckError as exc:
            return str(exc)
        if key in self.verified:
            return "output differs from an earlier run of the same op"
        self.verified[key] = text
        self.fingerprints[key] = fp
        return None

    def summary(self):
        return {"attempted": self.attempted, "failed": len(self.reasons),
                "reasons": self.reasons[:5]}


_DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def corrupt(text):
    """Replace the last decimal literal of an output with NaN (smoke check)."""
    last = None
    for last in _DECIMAL.finditer(text):
        pass
    if last is None:
        raise ValueError("no decimal literal to corrupt")
    return text[:last.start()] + "NaN" + text[last.end():]
