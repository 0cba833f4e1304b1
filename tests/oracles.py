"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own closed-form routes: brute-force
series exponentials and dense-grid quadrature, accurate enough to check
against but built from nothing smarter than Taylor and trapezoid.
"""

import numpy as np


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
