"""Correlated Gaussian parametric noise for the drive amplitudes.

Each axis is an independent stationary Gaussian chain with autocovariance
sigma^2 exp(-2 |dt| / tau), whose integral over all lags is exactly
tau sigma^2: the white-noise intensity the error theory uses. Realizations
are reproducible: every (seed, realization index, axis) triple owns its own
generator stream, so results never depend on evaluation order.

The module needs numpy only. The chain is filtered by lfilter, a blocked
first-order recursion, and the exact bridge is conditioned by bridge_weight.
experiments' first-order engine shares both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

PINNING_MODES = ("none", "endpoint-ramp", "exact-bridge")
#: Endpoint ramps span this many correlation times.
RAMP_WIDTH_TAUS = 5.0
#: Smallest correlation time: the smallest normal float. Below it 2/tau is
#: infinite and the interval engine's segment moments turn into NaN.
_TAU_MIN = float(np.finfo(float).tiny)


def _as_triple(v) -> tuple[float, float, float]:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size == 1:
        arr = np.repeat(arr, 3)
    if arr.size != 3:
        raise ValueError("expected a scalar or a 3-vector")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-axis noise strength and correlation time, pinning mode, and seed."""

    sigma: tuple[float, float, float]
    tau: tuple[float, float, float]
    pinning: str = "endpoint-ramp"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_triple(self.sigma))
        object.__setattr__(self, "tau", _as_triple(self.tau))
        for name in ("sigma", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} components must be finite")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma components must be nonnegative")
        if any(t < _TAU_MIN for t in self.tau):
            raise ValueError(f"tau components must be positive, and at least the "
                             f"smallest normal float {_TAU_MIN!r}")
        if self.pinning not in PINNING_MODES:
            raise ValueError(f"pinning must be one of {PINNING_MODES}")

    @classmethod
    def uniform(cls, sigma: float, tau: float, pinning: str = "endpoint-ramp",
                seed: int = 0) -> "NoiseSpec":
        return cls(sigma=(sigma,) * 3, tau=(tau,) * 3, pinning=pinning, seed=seed)


@dataclass(frozen=True, eq=False)
class NoiseRealization:
    """One sampled perturbation dx(t) on a physical-time grid 0..T."""

    grid: np.ndarray
    dx: np.ndarray


#: Points per block of the AR(1) filter: one row of its Toeplitz product.
_BLOCK = 32
#: Most blocks per 2-d product. 128 x 32 x 32 stays below the size at which
#: OpenBLAS splits a gemm across its threads, which on 2 cores made a
#: 200 001-point filter up to twice as slow as on one thread.
_ROWS = 128
_POWERS = np.arange(_BLOCK + 1)
_LAG = np.abs(np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)))
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool))


def lfilter(c: float, x) -> np.ndarray:
    """The first-order recursion y[k] = x[k] + c y[k-1], from rest.

    Raises ValueError unless x is 1-d.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("lfilter filters a 1-d array")
    # _ar1 recurses on the block ends; through it, not this name, so that a
    # wrapper of noise.lfilter sees one call per filtered array.
    return _ar1(float(c), x)


def _ar1(c: float, x: np.ndarray) -> np.ndarray:
    """lfilter's recursion, blocked: each _BLOCK-point block is filtered from
    rest by one lower-triangular Toeplitz product with entries c^(i-j), and
    the block ends then carry forward by the same recursion with c^_BLOCK,
    y[block b, i] += c^(i+1) y[end of block b-1]."""
    n = x.size
    rows = max(1, -(-n // _BLOCK))
    chunks = -(-rows // _ROWS)
    xb = np.zeros((chunks, -(-rows // chunks), _BLOCK))
    xb.ravel()[:n] = x
    pw = c ** _POWERS
    # Row-vector form: y_row = x_row @ upper-triangular kernel, one gemm per
    # chunk in one call.
    kern = np.where(_UPPER, pw[_LAG], 0.0)
    y = np.matmul(xb, kern).reshape(-1, _BLOCK)
    if rows > 1:
        ends = _ar1(float(pw[_BLOCK]), y[:rows, -1])
        y[1:rows] += ends[:-1, None] * pw[1:]
    return y.ravel()[:n]


# Three entries: each axis of a spec may have its own tau, and an ensemble
# draws every realization on one grid.
@functools.lru_cache(maxsize=3)
def bridge_weight(a, m: int) -> np.ndarray:
    """Projection weights w_k = cov(x_k, x_m) / var(x_m), k = 0..m, of the
    zero-started chain with step factor a, x_k = a x_{k-1} + innovation:
    w_k = (a^(m-k) - a^(m+k)) / (1 - a^(2m)). Subtracting x_m w conditions
    the chain on x_m = 0, the exact bridge.

    The weights depend only on (a, m), so they are computed once per pair
    and shared, as a read-only array, by every realization drawn with it.
    """
    k = np.arange(m + 1)
    w = (a ** (m - k) - a ** (m + k)) / (1.0 - a ** (2 * m))
    w.flags.writeable = False
    return w


def sample_realization(spec: NoiseSpec, grid, index: int) -> NoiseRealization:
    """Draw realization `index` of the spec on a uniform time grid.

    The chain update is exact for any step: dx(t+dt) = a dx(t) +
    sigma sqrt(1-a^2) xi with a = exp(-2 dt / tau), started stationary
    (or at zero for the bridge). The grid must resolve the correlation,
    dt <= tau/10 on every driven axis.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    driven = [i for i in range(3) if spec.sigma[i] > 0.0]
    for i in driven:
        if dt > spec.tau[i] / 10.0 + 1e-15:
            raise ValueError(
                f"grid spacing {dt:g} too coarse for tau[{i}] = {spec.tau[i]:g}; "
                "need dt <= tau/10"
            )
    n = t.size
    total = t[-1]
    dx = np.zeros((n, 3))
    for i in driven:
        rng = np.random.default_rng([spec.seed, index, i])
        sigma, tau = spec.sigma[i], spec.tau[i]
        a = np.exp(-2.0 * dt / tau)
        z = rng.standard_normal(n)
        # The bridge starts at zero, the other chains stationary.
        w = sigma * np.sqrt(1.0 - a * a) * z
        w[0] = 0.0 if spec.pinning == "exact-bridge" else sigma * z[0]
        series = lfilter(a, w)
        if spec.pinning == "exact-bridge":
            # Condition the zero-started chain on ending at zero: subtract
            # the Gaussian projection onto the final value.
            series = series - series[-1] * bridge_weight(a, n - 1)
        elif spec.pinning == "endpoint-ramp":
            series = series * _ramp(t, tau, total)
        dx[:, i] = series
    return NoiseRealization(grid=t.copy(), dx=dx)


def _ramp(t: np.ndarray, tau: float, total: float) -> np.ndarray:
    """Cosine taper of the chain with correlation time tau on [0, total]: 0 at
    both ends, 1 in the interior, C^1 throughout. Each end ramps over
    RAMP_WIDTH_TAUS tau, or over half of [0, total] when that is shorter."""
    width = min(RAMP_WIDTH_TAUS * tau, 0.5 * total)
    out = np.ones_like(t)
    head = t < width
    out[head] = 0.5 * (1.0 - np.cos(np.pi * t[head] / width))
    tail = t > total - width
    out[tail] = 0.5 * (1.0 - np.cos(np.pi * (total - t[tail]) / width))
    return out


def scaling_params(epsilon: float, p: float, q: float, tau0: float,
                   sigma0: float) -> tuple[float, float]:
    """Noise parameters scaled with the adiabatic parameter:
    tau = tau0 eps^p, sigma = sigma0 eps^q."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if p <= 0.0 or q <= 0.0:
        raise ValueError("p and q must be positive")
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    if sigma0 < 0.0:
        raise ValueError("sigma0 must be nonnegative")
    return (tau0 * epsilon ** p, sigma0 * epsilon ** q)


def predicted_exponent(p: float, q: float) -> float:
    """Predicted power of the mean angle error: Delta = O(eps^(p/2 + q + 1/2))."""
    return 0.5 * p + q + 0.5
