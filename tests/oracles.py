"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own routes: brute-force series
exponentials, dense-grid quadrature, the Hamilton product written term by
term, the tripod Hamiltonian as a dense 4x4 matrix (hamiltonian) with the
projector onto its zero-energy plane (dark_projector), the tripod steps as
closed-form 4x4 complex matrices (step_matrices), which the library itself
only ever builds as quaternions, a perturbed loop as three scalar cubic
splines of its spherical profiles (spherical_splines), where the library
adds the noise to the Cartesian drive linearly between its knots, and the
noise chains run forward one point at a time (ar1_recursion, chain_delta),
which the library filters in blocks and, in first order, runs backward.
None of them imports tripodholo; test_oracles_import_nothing_from_the_library
checks that.
"""

import numpy as np
from scipy.interpolate import CubicSpline


def expm_taylor(m: np.ndarray, terms: int = 24, squarings: int = 12) -> np.ndarray:
    """Scaling-and-squaring truncated-series matrix exponential."""
    m = np.asarray(m, dtype=complex)
    scaled = m / (2.0 ** squarings)
    out = np.eye(m.shape[0], dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        acc = acc @ scaled / k
        out = out + acc
    for _ in range(squarings):
        out = out @ out
    return out


def trapezoid_quadrature(f, n: int = 200001) -> float:
    """Dense trapezoid integral of f over [0, 1]."""
    s = np.linspace(0.0, 1.0, n)
    return float(np.trapezoid(f(s), s))


def hamilton(p, q) -> np.ndarray:
    """Hamilton product p q of two real quaternions (q0, q1, q2, q3), written
    out term by term from i^2 = j^2 = k^2 = ijk = -1."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ])


def hamiltonian(x) -> np.ndarray:
    """Dense tripod Hamiltonian H = x . b: the ground row and column carry x."""
    h = np.zeros((4, 4))
    h[0, 1:] = x
    h[1:, 0] = x
    return h


def dark_projector(x) -> np.ndarray:
    """Projector onto the kernel of hamiltonian(x) for x != 0:
    diag(0, 1 - x^ x^T), the excited triplet orthogonal to the drive."""
    xhat = np.asarray(x, dtype=float) / np.linalg.norm(x)
    p = np.zeros((4, 4))
    p[1:, 1:] = np.eye(3) - np.outer(xhat, xhat)
    return p


def step_matrices(xs, dts) -> np.ndarray:
    """Closed-form tripod steps exp(-i H(x) dt) as (n, 4, 4) complex matrices.

    xs has shape (n, 3), dts is a scalar or has shape (n,). With u the
    embedded drive direction and e0 the ground level,
    exp(-iH dt) = 1 + (cos(r dt) - 1)(u u^T + e0 e0^T) - i sin(r dt)(u e0^T + e0 u^T);
    zero drive gives the identity.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[0]
    dts = np.broadcast_to(np.asarray(dts, dtype=float), (n,))
    r = np.linalg.norm(xs, axis=1)
    r_safe = np.where(r > 0.0, r, 1.0)
    u = np.zeros((n, 4))
    u[:, 1:] = xs / r_safe[:, None]
    e0 = np.zeros(4)
    e0[0] = 1.0
    uu = np.einsum("ni,nj->nij", u, u)
    ue = np.einsum("ni,j->nij", u, e0)
    eu = np.einsum("i,nj->nij", e0, u)
    ee = np.outer(e0, e0)
    phase = r * dts
    c = (np.cos(phase) - 1.0)[:, None, None]
    s = np.sin(phase)[:, None, None]
    out = np.zeros((n, 4, 4), dtype=complex)
    out[:] = np.eye(4)
    out += c * (uu + ee)
    out += -1j * s * (ue + eu)
    return out


def step_matrix(x, dt: float) -> np.ndarray:
    """One closed-form step exp(-i H(x) dt) as a 4x4 complex matrix."""
    return step_matrices(np.asarray(x, dtype=float)[None, :], float(dt))[0]


def spherical_splines(x, s) -> tuple[CubicSpline, CubicSpline, CubicSpline]:
    """Separate scalar cubic splines of theta, phi and r through the
    Cartesian points x (shape (n, 3)) at knots s.

    phi is unwrapped and its last value snapped to a whole number of turns
    from the first, the bookkeeping a closed loop's winding needs.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=1)
    unit = x / r[:, None]
    theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    phi = np.unwrap(np.arctan2(unit[:, 1], unit[:, 0]))
    phi[-1] = phi[0] + 2.0 * np.pi * round((phi[-1] - phi[0]) / (2.0 * np.pi))
    return CubicSpline(s, theta), CubicSpline(s, phi), CubicSpline(s, r)


def ar1_recursion(c: float, x) -> np.ndarray:
    """y[k] = x[k] + c y[k-1] from rest, one point at a time, in scipy's
    lfilter([1.0], [1.0, -c], x) order of operations."""
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    prev = 0.0
    for k in range(x.size):
        prev = x[k] + c * prev
        y[k] = prev
    return y


def chain_delta(blocks, innov, node_w, res_w, z, eta) -> float:
    """node_w . x + res_w . eta for the node chain x_0 = innov_0 z_0,
    x_k = a x_{k-1} + innov_k z_k, run forward node by node; blocks lists
    (segment count, a) in node order."""
    w = np.asarray(innov) * np.asarray(z)
    x = np.empty(w.size)
    x[0] = w[0]
    k = 1
    for n_seg, a in blocks:
        for _ in range(n_seg):
            x[k] = w[k] + a * x[k - 1]
            k += 1
    assert k == w.size
    return float(node_w @ x + res_w @ eta)
