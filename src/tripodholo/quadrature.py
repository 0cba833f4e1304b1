"""Quadrature over control paths.

Function-backed paths get adaptive Gauss-Kronrod cubature on whole arrays of
points; spline-backed (grid) paths get composite Simpson on a midpoint-refined
copy of their native grid, which matches the spline's own accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate


def integrate_path(path, f):
    """Integral of f(s) over [0, 1] along the given path.

    f maps an array s to shape (len(s),), or to (k, len(s)) for k integrands
    sharing one evaluation; the result is a float or a (k,) array. Raises
    ValueError when cubature does not converge or the result is not finite.
    """
    if path.grid is not None:
        s = _refine(path.grid)
        val = integrate.simpson(f(s), x=s)
    else:
        res = integrate.cubature(lambda x: f(x[:, 0]).T, [0.0], [1.0],
                                 rtol=1e-10, atol=1e-12)
        if res.status != "converged":
            raise ValueError(f"path integral did not converge in {res.subdivisions} subdivisions")
        val = res.estimate
    if not np.all(np.isfinite(val)):
        raise ValueError("path integral is not finite")
    return float(val) if np.ndim(val) == 0 else val


def _refine(grid: np.ndarray) -> np.ndarray:
    """Insert midpoints so Simpson sees an even number of fine intervals."""
    g = np.asarray(grid, dtype=float)
    mids = 0.5 * (g[:-1] + g[1:])
    out = np.empty(g.size + mids.size)
    out[0::2] = g
    out[1::2] = mids
    return out
