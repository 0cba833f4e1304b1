import numpy as np
import pytest

from tripodholo import latitude_loop, tripod
from oracles import dark_projector, expm_taylor, hamiltonian, step_matrix


def test_hamiltonian_structure():
    h = hamiltonian([1.0, 0.0, 0.0])
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(h, expected)
    assert np.array_equal(hamiltonian([0.0, 0.0, 0.0]), np.zeros((4, 4)))
    h = hamiltonian([0.0, 0.0, 2.0])
    assert h[0, 3] == h[3, 0] == 2.0
    assert np.count_nonzero(h) == 2


def test_dark_projector_is_the_kernel_of_the_hamiltonian():
    assert np.array_equal(dark_projector([0.0, 0.0, 2.0]), np.diag([0.0, 1.0, 1.0, 0.0]))
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.standard_normal(3) * 2.0
        h, p0 = hamiltonian(x), dark_projector(x)
        assert np.linalg.norm(h @ p0) < 1e-12
        assert np.linalg.norm(p0 @ p0 - p0) < 1e-12
        assert np.trace(p0) == pytest.approx(2.0, abs=1e-12)


def test_eigenvalue_multiset():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(3)
        r = np.linalg.norm(x)
        vals = np.sort(np.linalg.eigvalsh(hamiltonian(x)))
        assert np.allclose(vals, [-r, 0.0, 0.0, r], atol=1e-10)


def test_j_commutators_exact():
    j1, j2, j3 = tripod.j_generators()
    assert np.array_equal(j1 @ j2 - j2 @ j1, -j3)
    assert np.array_equal(j2 @ j3 - j3 @ j2, -j1)
    assert np.array_equal(j3 @ j1 - j1 @ j3, -j2)


def test_j3_action_and_ground_row():
    j1, j2, j3 = tripod.j_generators()
    i1 = np.array([0, 1.0, 0, 0])
    i2 = np.array([0, 0, 1.0, 0])
    i0 = np.array([1.0, 0, 0, 0])
    assert np.array_equal(j3 @ i1, -i2)
    assert np.array_equal(j3 @ i2, i1)
    for j in (j1, j2, j3):
        assert np.array_equal(j @ i0, np.zeros(4))
        assert np.array_equal(j, -j.T)


def test_d_rotation_explicit_cases():
    assert np.allclose(tripod.d_rotation(0.0, 0.0), np.eye(4))
    d = tripod.d_rotation(np.pi / 2, 0.0)
    expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(d[1:, 1:], expected, atol=1e-15)
    assert d[0, 0] == 1.0
    assert np.count_nonzero(d[0, 1:]) == 0
    assert np.count_nonzero(d[1:, 0]) == 0


def test_d_rotation_exponential_identity_on_grid():
    # The frame rotation equals exp(+theta J2) exp(+phi J3) with the
    # generators above; checked against a series-exponential oracle.
    j1, j2, j3 = tripod.j_generators()
    for theta in np.linspace(0.05, np.pi - 0.05, 20):
        for phi in np.linspace(-np.pi, np.pi, 20):
            d = tripod.d_rotation(theta, phi)
            oracle = (expm_taylor(theta * j2) @ expm_taylor(phi * j3)).real
            assert np.linalg.norm(d - oracle) < 1e-10


def test_d_rotation_maps_axes_to_frame():
    rng = np.random.default_rng(17)
    for _ in range(10):
        theta = rng.uniform(0.1, np.pi - 0.1)
        phi = rng.uniform(-np.pi, np.pi)
        f = tripod.frame(theta, phi)
        dinv = tripod.d_rotation(theta, phi).T
        assert np.allclose(dinv @ tripod.embed3([1, 0, 0]), tripod.embed3(f.etheta))
        assert np.allclose(dinv @ tripod.embed3([0, 1, 0]), tripod.embed3(f.ephi))
        assert np.allclose(dinv @ tripod.embed3([0, 0, 1]), tripod.embed3(f.er))


def test_frame_examples_and_orthonormality():
    f = tripod.frame(np.pi / 2, 0.0)
    assert np.allclose(f.er, [1, 0, 0])
    assert np.allclose(f.etheta, [0, 0, -1])
    assert np.allclose(f.ephi, [0, 1, 0])
    f = tripod.frame(0.0, 0.0)
    assert np.allclose(f.er, [0, 0, 1])
    assert np.allclose(f.etheta, [1, 0, 0])
    assert np.allclose(f.ephi, [0, 1, 0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = tripod.frame(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        basis = np.stack([f.er, f.etheta, f.ephi])
        assert np.linalg.norm(basis @ basis.T - np.eye(3)) < 1e-12
        # right-handed: etheta x ephi = er
        assert np.allclose(np.cross(f.etheta, f.ephi), f.er, atol=1e-12)


def test_frame_of_arrays_stacks_the_scalar_frames():
    rng = np.random.default_rng(8)
    theta = rng.uniform(0, np.pi, (4, 5))
    phi = rng.uniform(-np.pi, np.pi, (4, 5))
    f = tripod.frame(theta, phi)
    for i, j in np.ndindex(theta.shape):
        g = tripod.frame(theta[i, j], phi[i, j])
        assert np.array_equal(f.er[i, j], g.er)
        assert np.array_equal(f.etheta[i, j], g.etheta)
        assert np.array_equal(f.ephi[i, j], g.ephi)


def test_r_rotation_endpoints_and_conjugation():
    path = latitude_loop(np.pi / 3, 1.0)
    assert np.linalg.norm(tripod.r_rotation(path, 0.0) - np.eye(4)) < 1e-12
    assert np.linalg.norm(tripod.r_rotation(path, 1.0) - np.eye(4)) < 1e-10
    for s in (0.25, 0.5, 0.77):
        r = tripod.r_rotation(path, s)
        h0 = hamiltonian(path.x(0.0))
        hs = hamiltonian(path.x(s))
        alpha = float(path.radius(s) / path.radius(0.0))
        assert np.linalg.norm(hs - alpha * r.T @ h0 @ r) < 1e-10


def test_frame_angular_velocity_matches_finite_difference():
    path = latitude_loop(1.1, 1.0)
    h = 1e-6
    for s in (0.2, 0.63):
        w = tripod.frame_angular_velocity(path, s)
        gen = tripod.rotation_generator(w)
        rp = tripod.r_rotation(path, s + h)
        rm = tripod.r_rotation(path, s - h)
        fd = (rp - rm) / (2 * h) @ tripod.r_rotation(path, s).T
        assert np.linalg.norm(fd - gen) < 1e-6


def test_step_unitary_examples():
    assert np.allclose(step_matrix([0.0, 0.0, 1.0], 2 * np.pi), np.eye(4),
                       atol=1e-12)
    u = step_matrix([0.0, 0.0, 1.0], np.pi)
    oracle = expm_taylor(-1j * np.pi * hamiltonian([0, 0, 1.0]))
    assert np.linalg.norm(u - oracle) < 1e-12
    assert np.allclose(u, np.diag([-1.0, 1.0, 1.0, -1.0]), atol=1e-12)
    assert np.allclose(step_matrix([0.0, 0.0, 0.0], 0.7), np.eye(4))


def test_step_unitary_against_series_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal(3)
        dt = rng.uniform(0.1, 2.0)
        u = step_matrix(x, dt)
        oracle = expm_taylor(-1j * dt * hamiltonian(x))
        assert np.linalg.norm(u - oracle) < 1e-11
        h = hamiltonian(x).astype(complex)
        assert np.linalg.norm(u @ h - h @ u) < 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


def test_step_unitary_group_property():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.standard_normal(3)
        dt1, dt2 = rng.uniform(0.1, 1.5, 2)
        lhs = step_matrix(x, dt1) @ step_matrix(x, dt2)
        rhs = step_matrix(x, dt1 + dt2)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def _qmul(p, q):
    """Hamilton product of two quaternions (w, x, y, z), via the left matrix."""
    w, x, y, z = p
    left = np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])
    return left @ q


def test_step_quaternions_rotate_like_conjugated_steps():
    rng = np.random.default_rng(13)
    xs = rng.standard_normal((6, 3))
    dts = rng.uniform(0.1, 2.0, 6)
    qs = tripod.step_unitaries(xs, dts)
    assert qs.shape == (6, 4)
    assert np.allclose(np.linalg.norm(qs, axis=1), 1.0, atol=1e-15)
    phase = np.diag([1.0, 1j, 1j, 1j])
    for x, dt, q in zip(xs, dts, qs):
        rotation = np.column_stack([_qmul(_qmul(q, e), q) for e in np.eye(4)])
        oracle = expm_taylor(-1j * dt * hamiltonian(x))
        assert np.linalg.norm(phase.conj() @ oracle @ phase - rotation) < 1e-11
    zero = tripod.step_unitaries(np.zeros((1, 3)), 0.7)
    assert np.array_equal(zero, [[1.0, 0.0, 0.0, 0.0]])
