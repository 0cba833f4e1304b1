"""Quadrature over control paths.

Function-backed paths get the adaptive 21-point Gauss-Kronrod rule on whole
arrays of points; spline-backed (grid) paths get composite Simpson on a
midpoint-refined copy of their native grid, which matches the spline's own
accuracy.

The Gauss-Kronrod pair is QUADPACK's (Piessens, de Doncker, Ueberhuber and
Kahaner, *QUADPACK*, 1983, ``dqk21``) with global error control: the interval
of largest error is halved until the summed error is within tolerance.
Both rules repeat, operation for operation, what ``scipy.integrate.cubature``
(``rule="gk21"``) and ``scipy.integrate.simpson`` compute: the same constants,
the same node and weight scaling, the same sums, the same heap order and the
same running totals. Floating-point sums depend on their order, so only this
makes every path integral equal scipy's to the bit; scipy then serves as an
exact oracle (``tests/test_quadrature.py``), and the artifacts stay the same
bytes, while no run pays the ~0.6 s import of ``scipy.integrate``.
"""

from __future__ import annotations

import heapq

import numpy as np

RTOL = 1e-10
ATOL = 1e-12
MAX_SUBDIVISIONS = 10_000

# dqk21's Kronrod nodes and weights, as scipy's GaussKronrodQuadrature(21)
# tabulates them.
_KRONROD_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
])
# The embedded 10-point Gauss rule as scipy.special.roots_legendre(10)
# returns it, in ascending order. Its nodes differ from the Kronrod table's
# odd entries by up to 1 ulp; the error estimate uses these.
_GAUSS_NODES = np.array([
    -0.9739065285171717, -0.8650633666889844, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163116, 0.14887433898163116,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889844,
    0.9739065285171717,
])
_GAUSS_WEIGHTS = np.array([
    0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
    0.26926671930999674, 0.2955242247147533, 0.2955242247147533,
    0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
    0.06667134430868714,
])
# One evaluation serves both sums: the Kronrod estimate over the first 21
# points and the error K - G over all 31.
_NODES = np.concatenate([_KRONROD_NODES, _GAUSS_NODES])
_ERROR_WEIGHTS = np.concatenate([_KRONROD_WEIGHTS, -_GAUSS_WEIGHTS])


def integrate_path(path, f):
    """Integral of f(s) over [0, 1] along the given path.

    f maps an array s to shape (len(s),), or to (k, len(s)) for k integrands
    sharing one evaluation; the result is a float or a (k,) array. Raises
    ValueError when the adaptive rule does not converge or the result is not
    finite.
    """
    if path.grid is not None:
        s = _refine(path.grid)
        val = _simpson(f(s), s)
    else:
        val = _gauss_kronrod(f)
    if not np.all(np.isfinite(val)):
        raise ValueError("path integral is not finite")
    return float(val) if np.ndim(val) == 0 else val


class _Interval:
    """One interval of the adaptive rule with its estimate and error.

    heapq pops the interval of largest max |error| first; equal errors
    compare neither way, so ties keep heapq's own order.
    """

    __slots__ = ("a", "b", "est", "err", "key")

    def __init__(self, a: float, b: float, f):
        self.a, self.b = a, b
        self.est, self.err = _gk21(f, a, b)
        self.key = np.max(np.abs(self.err))

    def __lt__(self, other: _Interval) -> bool:
        return self.key > other.key


def _gk21(f, a: float, b: float):
    """Kronrod estimate and |K - G| error of f over [a, b], from one call
    of f on the 31 nodes."""
    length = b - a
    fx = f((_NODES + 1) * (length * 0.5) + a).T
    w = (_ERROR_WEIGHTS * (length / 2)).reshape(-1, *(1,) * (fx.ndim - 1))
    est = np.sum(w[:21] * fx[:21], axis=0)
    err = np.abs(np.sum(w * fx, axis=0))
    return est, err


def _gauss_kronrod(f):
    """Adaptive G10/K21 integral of f over [0, 1] to RTOL and ATOL."""
    root = _Interval(0.0, 1.0, f)
    heap = [root]
    # Running totals start from +0.0, as scipy's do, so -0.0 reads +0.0.
    est, err = 0.0 + root.est, 0.0 + root.err
    subdivisions = 0
    while np.any(err > ATOL + RTOL * np.abs(est)):
        worst = heapq.heappop(heap)
        est = est - worst.est
        err = err - worst.err
        mid = (worst.a + worst.b) / 2
        for half in (_Interval(worst.a, mid, f), _Interval(mid, worst.b, f)):
            est = est + half.est
            err = err + half.err
            heapq.heappush(heap, half)
        subdivisions += 1
        if subdivisions >= MAX_SUBDIVISIONS:
            raise ValueError(f"path integral did not converge in {subdivisions} subdivisions")
    return est


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson of y over an odd number of strictly increasing
    points x, along y's last axis."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[..., 0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[..., 1:-1:2] * (hsum * (hsum / hprod))
                        + y[..., 2::2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=-1)


def _refine(grid: np.ndarray) -> np.ndarray:
    """Insert midpoints so Simpson sees an even number of fine intervals."""
    g = np.asarray(grid, dtype=float)
    mids = 0.5 * (g[:-1] + g[1:])
    out = np.empty(g.size + mids.size)
    out[0::2] = g
    out[1::2] = mids
    return out
