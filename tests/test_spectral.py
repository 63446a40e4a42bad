"""Spectral integrals against pure-point measures and truncation plans."""

import numpy as np
import pytest

from weyltriplets import spectral as sp
from weyltriplets._linalg import hermitian_funcm


def scalar(fn, **kw):
    return sp.OperatorFunctionOnR(1, lambda lam: np.array([[fn(lam)]]), **kw)


def test_measure_validation():
    with pytest.raises(ValueError):
        sp.SpectralMeasurePP(((0.0, 1), (0.0, 1)))  # not strictly increasing
    with pytest.raises(ValueError):
        sp.SpectralMeasurePP(((0.0, 1), (1.0, 0)))  # nonpositive block
    m = sp.SpectralMeasurePP.from_levels(range(3), dims=2,
                                         window=(0.0, 2.0),
                                         source_unbounded=True)
    assert m.atoms == ((0.0, 2), (1.0, 2), (2.0, 2))
    assert m.total_dim == 6
    assert m.window == (0.0, 2.0) and m.source_unbounded
    assert m.block_offsets() == [0, 2, 4, 6]
    assert np.array_equal(m.lambdas, [0.0, 1.0, 2.0])


def test_integral_pp_blockdiag_layout():
    # the order of H (x) T: boundary index outer, atom slot inner
    m = sp.SpectralMeasurePP.from_levels([0.5, 2.0], dims=[1, 2])
    om = sp.OperatorFunctionOnR(
        2, lambda lam: np.array([[lam, 1.0], [1.0, -lam]])
    )
    out = sp.integral_pp(om, m)
    P = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]
    want = np.kron(om(0.5), P[0]) + np.kron(om(2.0), P[1])
    assert np.abs(out - want).max() == 0.0


def test_integral_pp_over_empty_measure():
    om = sp.OperatorFunctionOnR(2, lambda lam: np.eye(2))
    assert sp.integral_pp(om, sp.SpectralMeasurePP(())).shape == (0, 0)


def test_riemann_refinement_equals_pp():
    m = sp.SpectralMeasurePP(((0.0, 1), (0.3, 2), (1.7, 1)))
    om = scalar(np.exp)
    r = sp.integral_riemann(om, m, tol=1e-12)
    assert np.abs(r - sp.integral_pp(om, m)).max() == 0.0


def test_riemann_interval_and_depth_guards():
    m = sp.SpectralMeasurePP(((0.0, 1), (0.3, 2), (1.7, 1)))
    om = scalar(np.exp)
    with pytest.raises(ValueError):
        sp.integral_riemann(om, m, a=0.1)  # leaves out the first atom
    with pytest.raises(sp.RefinementError):
        sp.integral_riemann(om, m, tol=1e-12, max_depth=1)


def test_functional_calculus_against_dense_matrix_functions():
    # atoms strictly positive so that sqrt and 1/sqrt are defined
    m = sp.SpectralMeasurePP.from_levels([0.5, 1.0, 2.5, 4.0], dims=2)
    H = sp.integral_pp(scalar(lambda x: x), m)
    assert np.abs(H - H.conj().T).max() == 0.0
    for phi in (lambda x: x ** 2, np.sqrt, lambda x: 1.0 / np.sqrt(x)):
        via_measure = sp.integral_pp(scalar(phi), m)
        via_funcm = hermitian_funcm(H, phi)
        assert np.abs(via_measure - via_funcm).max() < 1e-10


def test_functional_calculus_multiplicativity():
    m = sp.SpectralMeasurePP.from_levels([0.5, 1.0, 2.5, 4.0], dims=2)
    f = sp.integral_pp(scalar(np.sqrt), m)
    g = sp.integral_pp(scalar(lambda x: 1.0 / np.sqrt(x)), m)
    fg = sp.integral_pp(scalar(lambda x: 1.0), m)
    assert np.abs(f @ g - fg).max() < 1e-12
    sq = sp.integral_pp(scalar(lambda x: x ** 2), m)
    ident = sp.integral_pp(scalar(lambda x: x), m)
    assert np.abs(ident @ ident - sq).max() < 1e-12


def test_admissibility_residual_commutation():
    m = sp.SpectralMeasurePP.from_levels([0.0, 1.0, 3.0])
    # scalar multiples of the identity on the total space always commute
    om_comm = sp.OperatorFunctionOnR(3, lambda lam: (1 + lam) * np.eye(3))
    assert sp.admissibility_residual(om_comm, m, [[0], [1, 2]]) < 1e-14
    # a rotation mixing atom blocks does not
    mix = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    om_mix = sp.OperatorFunctionOnR(3, lambda lam: mix)
    assert sp.admissibility_residual(om_mix, m, [[0]]) > 0.5
    with pytest.raises(ValueError):
        sp.admissibility_residual(scalar(np.exp), m, [[0]])  # 1 % 3 != 0


def test_admissibility_residual_two_boundary_copies():
    # c = 2: F(delta) = I_2 (x) P_delta in the order of H (x) T
    m = sp.SpectralMeasurePP.from_levels([0.0, 1.0, 3.0], dims=[1, 2, 1])
    A = np.array([[1.0, 2.0], [2.0, -1.0]])
    om_comm = sp.OperatorFunctionOnR(8, lambda lam: (1 + lam) * np.kron(A, np.eye(4)))
    assert sp.admissibility_residual(om_comm, m, [[0], [1], [0, 2]]) == 0.0
    # swapping the slot of atom 0 with the first slot of atom 1
    swap = np.eye(4)[[1, 0, 2, 3]]
    om_mix = sp.OperatorFunctionOnR(8, lambda lam: np.kron(np.eye(2), swap))
    assert sp.admissibility_residual(om_mix, m, [[0]]) > 0.5


def test_operator_function_shape_guard():
    om = sp.OperatorFunctionOnR(2, lambda lam: np.array([[lam]]))
    with pytest.raises(ValueError):
        om(1.0)


def test_growth_certificate_check():
    om = scalar(lambda x: 1.0 + abs(x), C0=1.0, alpha=1.0)
    assert om.certified
    assert om.check_certificate(np.linspace(0, 50, 11)) <= 0.0
    loose = scalar(lambda x: 3.0 * (1.0 + abs(x)), C0=1.0, alpha=1.0)
    assert loose.check_certificate([10.0]) > 0.0
    with pytest.raises(ValueError):
        scalar(np.exp).check_certificate([1.0])


def test_truncation_plan_certified_tail():
    om = scalar(lambda x: 1.0 + abs(x), C0=1.0, alpha=1.0)
    tol = 1e-8
    plan = sp.truncation_plan(om, range(2000), lambda k: 2.0 ** (-k), tol)
    assert plan["certified"]
    assert plan["alpha"] == 1.0
    assert plan["atoms_consumed"] == 2000
    K = plan["window"][1]
    # the certified bound dominates the directly summed tail and meets tol
    lams = np.arange(2000.0)
    direct_tail = ((1.0 + lams) ** 2 * 2.0 ** (-lams))[lams > K].sum()
    assert direct_tail <= plan["tail_bound"] * (1 + 1e-12)
    assert plan["tail_bound"] < tol * tol


def test_truncation_plan_symmetric_window():
    om = scalar(lambda x: 1.0 + abs(x), C0=1.0, alpha=1.0)

    def stream():
        yield 0.0
        k = 1
        while True:
            yield float(k)
            yield float(-k)
            k += 1

    plan = sp.truncation_plan(om, stream(), lambda k: 2.0 ** (-k), 1e-8,
                              symmetric=True, max_atoms=500)
    lo, hi = plan["window"]
    assert lo == -hi
    assert plan["tail_bound"] < 1e-16


def test_truncation_plan_divergence_paths():
    om = scalar(lambda x: 1.0 + abs(x), C0=1.0, alpha=1.0)
    with pytest.raises(sp.MomentDivergenceError, match="non-decreasing"):
        sp.truncation_plan(om, range(2000), lambda k: 1.0 / (1.0 + k), 1e-8)
    with pytest.raises(sp.MomentDivergenceError, match="too slowly"):
        sp.truncation_plan(om, range(2000), lambda k: (1.0 + k) ** -3.2, 1e-8)
    with pytest.raises(sp.MomentDivergenceError, match="no window"):
        sp.truncation_plan(om, range(2000), lambda k: (1.0 + k) ** -6, 1e-8)


def test_truncation_plan_uncertified_fit():
    om = scalar(lambda x: 1.0 + abs(x))  # no (C0, alpha) tag
    plan = sp.truncation_plan(om, range(1000), lambda k: 2.0 ** (-k), 1e-8)
    assert not plan["certified"]
    assert abs(plan["alpha"] - 1.0) < 1e-12
    assert abs(plan["C0"] - 1.0) < 1e-12


def test_truncation_plan_evaluates_omega_only_to_fit_it():
    # the dicts are frozen from the version that took ||Omega(lambda)||_2 at
    # every atom; a certified Omega is no longer evaluated at all
    calls = []

    def counted(fn, **kw):
        return sp.OperatorFunctionOnR(1, lambda lam: calls.append(lam) or np.array([[fn(lam)]]),
                                      **kw)

    plan = sp.truncation_plan(counted(lambda x: 1.0 + x, C0=1.0, alpha=1.0), range(2000),
                              lambda k: 2.0 ** -k, tol=1e-8)
    assert plan == {"window": (0.0, 66.0), "tail_bound": 6.455068684435572e-17, "C0": 1.0,
                    "alpha": 1.0, "certified": True, "atoms_consumed": 2000}
    assert calls == []
    plan = sp.truncation_plan(counted(lambda x: 3.0 * (1.0 + abs(x)) ** 1.5), range(1000),
                              lambda k: 2.0 ** -k, 1e-8)
    assert plan == {"window": (0.0, 76.0), "tail_bound": 5.878502621662454e-17, "C0": 3.0,
                    "alpha": 1.5000000000000004, "certified": False, "atoms_consumed": 1000}
    assert calls == list(range(1000))
    om = sp.OperatorFunctionOnR(2, lambda x: np.array([[1 + x, 0.5], [0.5j, 2.0]]))
    plan = sp.truncation_plan(om, range(500), lambda k: 3.0 ** -k, 1e-6)
    assert plan == {"window": (0.0, 33.0), "tail_bound": 5.140488362273757e-13,
                    "C0": 2.149611288904803, "alpha": 0.997291672253185,
                    "certified": False, "atoms_consumed": 500}
