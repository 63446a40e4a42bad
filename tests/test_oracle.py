"""Independent oracles: finite-difference half line and dense toys."""

import dataclasses

import numpy as np
import pytest

from weyltriplets import herglotz as hg
from weyltriplets import oracle as orc
from weyltriplets import triplets as tr
from weyltriplets.models1d import build_triplet, schrodinger_right


def test_fd_m_function_values():
    grid = orc.FDGrid(2e-3, 40.0)
    assert abs(orc.fd_m_function(grid, 1j) - hg.m_schrodinger_halfline(1j)) < 1e-4
    assert abs(orc.fd_m_function(grid, -1 + 0j) + 1.0) < 1e-4
    grid_v = orc.FDGrid(2e-3, 40.0, v=1.0)
    want = hg.m_schrodinger_halfline(-3 + 1j, v=1.0)
    assert abs(orc.fd_m_function(grid_v, -3 + 1j) - want) < 1e-4


def test_fd_m_function_is_second_order():
    exact = hg.m_schrodinger_halfline(1j)
    e_h = abs(orc.fd_m_function(orc.FDGrid(4e-3, 40.0), 1j) - exact)
    e_h2 = abs(orc.fd_m_function(orc.FDGrid(2e-3, 40.0), 1j) - exact)
    assert 3.5 < e_h / e_h2 < 4.5


def _fd_m_per_step(grid, z):
    """``fd_m_function``'s recursion with the rescale test on every step, as it was
    before it ran in chunks; returns (m, number of rescales)."""
    z = complex(z)
    h, v, n = grid.h, grid.v, grid.n
    a = 2.0 + h * h * (v - z)
    u_next = 0.0 + 0.0j  # u_N
    u = 1.0 + 0.0j  # u_{N-1}
    rescales = 0
    for j in range(n - 1, 0, -1):
        u_prev = a * u - u_next
        u_next, u = u, u_prev
        if abs(u.real) > orc._RESCALE or abs(u.imag) > orc._RESCALE:
            scale = 1.0 / max(abs(u.real), abs(u.imag))
            u *= scale
            u_next *= scale
            rescales += 1
    u0, u1 = u, u_next
    u2 = a * u1 - u0
    return (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h * u0), rescales


@pytest.mark.parametrize("h, L, z, rescaled", [
    (2e-3, 40.0, -1.0, False), (1e-3, 40.0, -1.0, False),  # validate's two grids
    (1e-3, 400.0, -5.0, True), (5e-3, 2000.0, -4.0 + 1.0j, True),
], ids=["validate-2e-3", "validate-1e-3", "rescaled-real", "rescaled-complex"])
def test_fd_m_function_matches_the_per_step_recursion(h, L, z, rescaled):
    # the chunked recursion gives the same bits, rescaling at the same steps; the
    # two long grids overflow without rescaling
    want, rescales = _fd_m_per_step(orc.FDGrid(h, L), z)
    assert (rescales > 0) == rescaled
    assert repr(orc.fd_m_function(orc.FDGrid(h, L), z)) == repr(want)


def test_decay_budget_guard():
    orc.FDGrid(1e-2, 40.0).assert_adequate(1j)
    with pytest.raises(ValueError):
        orc.FDGrid(1e-2, 5.0).assert_adequate(1j)
    with pytest.raises(ValueError):
        # Im sqrt(2 + i) ~ 0.34: L = 30 is under the decay margin
        orc.FDGrid(1e-2, 30.0).assert_adequate(2 + 1j)


def test_fd_resolvent_difference_matches_closed_form():
    grid = orc.FDGrid(5e-3, 30.0)
    theta, z = 1.0, -1.0 + 0j
    xs = np.array([0.25, 0.5, 1.0, 2.0])
    K = orc.fd_resolvent_difference(grid, theta, z, xs, xs)
    w = hg.sqrt_cut(z)
    want = np.exp(1j * w * (xs[:, None] + xs[None, :])) / (theta - 1j * w)
    rel = np.abs(K - want).max() / np.abs(want).max()
    assert rel < 1e-2
    # halving h quarters the error
    K2 = orc.fd_resolvent_difference(orc.FDGrid(2.5e-3, 30.0), theta, z, xs, xs)
    rel2 = np.abs(K2 - want).max() / np.abs(want).max()
    assert 3.5 < rel / rel2 < 4.5


def test_fd_resolvent_apply_translation_identity():
    grid = orc.FDGrid(2e-3, 40.0)
    interior = grid.nodes()[1:-1]
    t = build_triplet(schrodinger_right())
    res = tr.gamma_translation_residual(
        t, 2 + 1j, 1j, grid=interior,
        resolvent_apply=orc.fd_resolvent_apply(grid),
    )
    assert res < 1e-4


def test_fd_resolvent_apply_rejects_partial_grid():
    grid = orc.FDGrid(1e-2, 20.0)
    interior = grid.nodes()[1:-1]
    with pytest.raises(ValueError):
        orc.fd_resolvent_apply(grid)(np.zeros(5), 1j, interior[:5])


def test_dense_toy_construction_and_determinism():
    toy = orc.make_dense_toy(6, 2, seed=1)
    assert (toy.n, toy.d) == (6, 2)
    assert toy.retries >= 0
    assert np.abs(toy.A0 - toy.A0.conj().T).max() == 0.0
    assert np.abs(toy.Q0 - toy.Q0.conj().T).max() < 1e-14
    assert toy.G.shape == (6, 2)
    assert np.linalg.matrix_rank(toy.G) == 2
    again = orc.make_dense_toy(6, 2, seed=1)
    assert np.array_equal(toy.A0, again.A0)
    other = orc.make_dense_toy(6, 2, seed=2)
    assert not np.array_equal(toy.A0, other.A0)


def test_dense_toy_holds_its_green_residual():
    # validate's toys at seeds 0 and 3; a copy made field by field forms X, Y afresh
    for seed in range(6):
        toy = orc.make_dense_toy(6, 2, seed)
        fresh = dataclasses.replace(toy)
        assert toy.green_residual == fresh.green_identity_residual()
        assert np.array_equal(toy.X, fresh.G.conj().T @ (fresh.A0 + 1j * np.eye(6)))
        assert np.array_equal(toy.Y, fresh.G.conj().T @ fresh.A0 @ fresh.G - fresh.Q0)


def test_dense_toy_weyl_is_herglotz():
    toy = orc.make_dense_toy(7, 2, seed=9)
    for z in (1j, -2 + 0.5j, 1.5 + 2j):
        M = toy.weyl_mat(z)
        im = (M - M.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() > 0
        assert np.abs(toy.weyl_mat(np.conj(z)) - M.conj().T).max() < 1e-11


def test_dense_toy_green_identity_and_extension():
    toy = orc.make_dense_toy(8, 2, seed=3)
    assert toy.green_identity_residual(samples=30) < 1e-12
    B = toy.Q0 - 0.5 * np.eye(2)
    SB = toy.extension(B)
    assert np.abs(SB - SB.conj().T).max() < 1e-12
    z = 0.5 + 1j
    direct = toy.direct_resolvent_difference(B, z)
    n = toy.n
    manual = np.linalg.inv(SB - z * np.eye(n)) - np.linalg.inv(
        toy.A0 - z * np.eye(n)
    )
    assert np.abs(direct - manual).max() < 1e-11


def test_dense_spectral_integral_entries():
    om = lambda lam: np.array([[lam, 1.0], [1.0, -lam]])
    atoms, dims = [0.5, 2.0], [1, 2]
    out = orc.dense_spectral_integral(om, atoms, dims)
    want = np.zeros((6, 6), dtype=complex)
    want[:2, :2] = om(0.5)
    want[2:, 2:] = np.kron(np.asarray(om(2.0)), np.eye(2))
    assert np.abs(out - want).max() == 0.0
    with pytest.raises(ValueError):
        orc.dense_spectral_integral(om, [0.0, 1.0], [1])
