"""AnalyticKernel.gram's adaptive Gauss-Kronrod 21 against scipy's quad_vec.

The library's loop is a transcription of scipy 1.17's ``quad_vec`` (finite
interval, norm '2', one worker, epsabs = 1e-12, epsrel = 1e-11) that evaluates
each rule's 21 nodes in one ``columns`` call.  scipy is the oracle here,
driven by the per-point integrand u(x)* v(x) that the Gram used before: the
two results must agree in bytes, shape and dtype.  The synthetic kernels reach
the loop's other exits: deep subdivision with several intervals per round,
the rounding-error stop and a non-finite error.  Each test also records the
heap operations of both loops, so that the two must select, split and push the
same intervals in the same rounds, not only reach the same sum.
"""

import heapq
import itertools
import types

import numpy as np
import pytest
from scipy.integrate import _quad_vec, quad_vec

from weyltriplets import triplets as tr
from weyltriplets.models1d import FACTORIES, build_triplet, schrodinger_right
from weyltriplets.spectral import SpectralMeasurePP
from weyltriplets.tensor import tensor_normalized

FAMILY_PAIRS = ((1j, 2.0 + 1.0j), (-1.0 + 0.5j, 0.5 + 2.0j), (0.3 + 0.2j, -2.0 + 3.0j))
# scipy's info.status: 0 converged, 2 rounding error, 3 non-finite
CONVERGED, ROUNDING, NOT_FINITE = 0, 2, 3


def quad_vec_gram(A, B):
    """gamma(A)* gamma(B) by scipy's quad_vec, one point per integrand call,
    and scipy's status per piece."""
    def integrand(x):
        u = A.columns(np.array([x]))[0]  # (value_dim, d1)
        v = B.columns(np.array([x]))[0]  # (value_dim, d2)
        return u.conj().T @ v

    total, status = 0.0, []
    for lo, hi in A._quad_pieces(B):
        val, _, info = quad_vec(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11,
                                full_output=True)
        total = total + val
        status.append(info.status)
    return total, status


@pytest.fixture
def heap_logs(monkeypatch):
    """The heap pops and pushes, as (op, -err, a, b), of scipy's loop and the library's."""
    logs = {"scipy": [], "library": []}
    for side, module in (("scipy", _quad_vec), ("library", tr)):
        def pop(heap, log=logs[side]):
            item = heapq.heappop(heap)
            log.append(("pop",) + item[:3])
            return item

        def push(heap, item, log=logs[side]):
            log.append(("push",) + item[:3])
            heapq.heappush(heap, item)
        monkeypatch.setattr(module, "heapq", types.SimpleNamespace(
            heappop=pop, heappush=push, heapify=heapq.heapify))
    return logs


def assert_same_heap_ops(logs):
    # float.hex: a nan error (the non-finite exit) compares equal to itself
    ops = {side: [(op, *map(float.hex, item)) for op, *item in log] for side, log in logs.items()}
    assert ops["library"] == ops["scipy"]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.abs(got - want).max()


def family_cases():
    for name, factory in FACTORIES.items():
        triplet = build_triplet(factory())
        for z, zeta in FAMILY_PAIRS:
            yield pytest.param(triplet, z, zeta, id="%s-%s-%s" % (name, z, zeta))


@pytest.mark.parametrize("triplet, z, zeta", family_cases())
def test_gk21_gram_is_quad_vecs_bits_on_every_family(triplet, z, zeta, heap_logs):
    A, B = triplet.gamma(zeta), triplet.gamma(z)
    want, status = quad_vec_gram(A, B)
    assert set(status) == {CONVERGED}
    assert_same_bits(A.gram(B), want)
    assert_same_heap_ops(heap_logs)


def validate_grams():
    """The Gram pairs of validate's two quadrature rows: the half-line at two
    (z, zeta) and the six atoms of the tensor triplet at one."""
    right = build_triplet(schrodinger_right())
    pairs = [(right.gamma(zeta), right.gamma(z))
             for z, zeta in ((1j, 2.0 + 1.0j), (-1.0 + 0.5j, 0.5 + 2.0j))]
    tt = tensor_normalized(right, SpectralMeasurePP.from_levels(range(6)))
    images = (tt.assembled.gamma(0.5 + 2.0j).images, tt.assembled.gamma(-1.0 + 0.5j).images)
    return pairs + list(zip(*images))


def test_gk21_gram_is_quad_vecs_bits_on_validates_grams(heap_logs):
    pairs = validate_grams()
    assert len(pairs) == 8
    for A, B in pairs:
        assert_same_bits(A.gram(B), quad_vec_gram(A, B)[0])
    assert_same_heap_ops(heap_logs)


def _deep(x):
    # a square-root kink at 0.3 and a fast oscillation, value_dim = dim = 2
    return np.stack([np.stack([np.sqrt(np.abs(x - 0.3)) + 0j, np.exp(60j * x)], -1),
                     np.stack([np.cos(7 * x) + 0j, 1 / (1 + 100 * x * x) + 0j], -1)], 1)


def _kinks(x):
    # three square-root kinks of unequal weight: near convergence a round
    # splits several intervals whose errors are each below tol
    return (np.sqrt(np.abs(x - 0.3)) + 0.5 * np.sqrt(np.abs(x + 0.55))
            + 0.25 * np.sqrt(np.abs(x - 0.71)) + 0j)[:, None, None]


def _one(x):
    return np.ones((len(x), 1, 1), dtype=complex)


def _odd(x):
    # large and odd: the integral cancels to rounding level, the error cannot pass tol
    return (1000 * np.sin(20 * x) + 0j)[:, None, None]


def _overflowing(x):
    with np.errstate(over="ignore"):
        return np.exp(800 * x + 0j)[:, None, None]


SYNTHETIC = {
    "deep": (tr.AnalyticKernel(_deep, (-1.0, 1.0), 2, 2),
             tr.AnalyticKernel(_deep, (-1.0, 1.0), 2, 2), CONVERGED),
    "kinks": (tr.AnalyticKernel(_one, (-1.0, 1.0), 1),
              tr.AnalyticKernel(_kinks, (-1.0, 1.0), 1), CONVERGED),
    "rounding-stop": (tr.AnalyticKernel(_one, (-1.0, 1.0), 1),
                      tr.AnalyticKernel(_odd, (-1.0, 1.0), 1), ROUNDING),
    "non-finite": (tr.AnalyticKernel(_one, (0.0, 1.0), 1),
                   tr.AnalyticKernel(_overflowing, (0.0, 1.0), 1), NOT_FINITE),
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_gk21_gram_is_quad_vecs_bits_on_each_exit(name, heap_logs):
    A, B, exit_status = SYNTHETIC[name]
    with np.errstate(invalid="ignore", over="ignore"):
        want, status = quad_vec_gram(A, B)
        got = A.gram(B)
    assert status == [exit_status]
    assert_same_bits(got, want)
    assert_same_heap_ops(heap_logs)
    # a round pops its intervals before it pushes their halves
    log = heap_logs["library"]
    per_round = [len(list(run)) for op, run in itertools.groupby(e[0] for e in log)
                 if op == "pop"]
    if name in ("deep", "kinks"):
        assert len(per_round) > 10 and max(per_round) > 1, per_round
    if name == "non-finite":
        assert not np.isfinite(got).all()
