"""Monte Carlo and sweep harnesses.

Everything here is reproducible: realization streams are keyed by (seed,
index, axis), results are assembled in index order, and the reported
statistics are bitwise independent of how many worker threads ran the
ensemble.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import holonomy, noise, paths, propagator

MC_MODES = ("first_order", "full_propagation")


class ExcludedRealizationsError(ValueError):
    """Fewer than two realizations of an ensemble stayed in, too few for
    its statistics."""


@dataclass(frozen=True, eq=False)
class MCResult:
    """Ensemble statistics of the gate-angle error delta_omega."""

    n_realizations: int
    delta_mean: float
    delta_std: float
    std_error: float
    analytic_delta: float
    n_excluded: int
    deltas: np.ndarray
    leakages: np.ndarray


@dataclass(frozen=True, eq=False)
class PowerLawFit:
    """Least-squares line through (ln x, ln y), with the fitted data kept."""

    exponent: float
    intercept: float
    residual: float
    exponent_stderr: float
    xs: np.ndarray
    ys: np.ndarray


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Delta versus epsilon under scaled noise: the power-law fit of
    fit.ys = Delta against fit.xs = epsilon, ascending, and the ensemble
    behind each point."""

    fit: PowerLawFit
    results: tuple[MCResult, ...]


def threads_from_env() -> int | None:
    """Worker count from the THREADS environment variable; None when unset.

    Raises ValueError, naming the variable, unless it is an integer >= 1.
    """
    env = os.environ.get("THREADS")
    if env is None:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError("THREADS must be >= 1")
    return value


def _mc_intervals(path: paths.ControlPath, spec: noise.NoiseSpec, period: float) -> float:
    """Interval count of the uniform grid resolving both the noise
    correlation and the drive.

    A whole number held as a float: a tiny tau makes it too large for any
    grid, or infinite, so _mc_grid compares it with MAX_STEPS first and
    _IntervalEngine caps it at COARSE_SEGMENTS.
    """
    dense = np.linspace(0.0, 1.0, 257)
    r_max = float(np.max(path.radius(dense)))
    n = max(2000.0, float(np.ceil(10.0 * period * r_max)))
    driven = [t for s, t in zip(spec.sigma, spec.tau) if s > 0.0]
    if driven:
        n = max(n, float(np.ceil(10.0 * period / min(driven))))
    return n


def _mc_grid(path: paths.ControlPath, spec: noise.NoiseSpec, period: float) -> np.ndarray:
    """Uniform grid over one period with _mc_intervals intervals.

    Raises StepLimitError, before any allocation, when the count exceeds
    propagator.MAX_STEPS.
    """
    n = _mc_intervals(path, spec, period)
    if not n <= propagator.MAX_STEPS:
        raise propagator.StepLimitError(
            f"{n:.6g} noise grid intervals exceed the limit of "
            f"MAX_STEPS = {propagator.MAX_STEPS}")
    return np.linspace(0.0, period, int(n) + 1)


class _IntervalEngine:
    """Exact sampler of the first-order angle error, for every pinning.

    The error is a linear functional int K(t) . dx(t) dt of the correlated
    noise. For each axis the chain values at a coarse node set and the exact
    time integrals of the process over each segment are jointly Gaussian
    with closed-form moments: with a = exp(-2 dt / tau) per segment,

        E[Y | x0, x1] = (x0 + x1) (1 - a) / (lam (1 + a)),      lam = 2/tau,
        Var[Y | x0, x1] = s^2 [tau dt - tau^2 (1 - a)/2 - 2 g^2/(1+a)],

    g = (1 - a)/lam, independently across segments by the Markov property.
    Sampling those instead of a tau/10-resolved path gives the identical
    distribution at a fraction of the draws, at any tau; the only
    approximation is the kernel (and taper) frozen at segment midpoints,
    refined to tau/2 inside the taper windows. Streams stay keyed by (seed,
    index, axis).

    The exact bridge starts its chain at zero and conditions it on x_m = 0
    at the last node m: x_k - x_m w_k, with w = noise.bridge_weight, as in
    noise.sample_realization. The residuals given the nodes do not change,
    so the projection folds into the last node's weight.

    The node chain x_k = a x_{k-1} + innov_k z_k (one a per block of equal
    segments, see chains) is a lower-triangular map x = L (innov * z), so
    node_w . x = g . z with g = innov * L^T node_w. The engine builds g once,
    by the backward recursion h_k = node_w_k + a h_{k+1}, and a realization
    is sum over axes of g . z + res_w . eta, on the draws z and eta of its
    stream.
    """

    #: Largest interior segment count (kernel varies on the drive scale);
    #: a run whose _mc_intervals is smaller takes that many.
    COARSE_SEGMENTS = 4000

    def __init__(self, path: paths.ControlPath, spec: noise.NoiseSpec,
                 period: float):
        self.spec = spec
        self.axes = []
        for axis, blocks, innov, node_w, res_w in self.chains(path, spec, period):
            h = node_w.copy()
            end = h.size - 1
            for n_seg, a_blk in reversed(blocks):
                # h[end] is final; run the recursion backward over the block.
                start = end - n_seg
                h[start:end + 1] = noise.lfilter(
                    [1.0], [1.0, -a_blk], h[start:end + 1][::-1])[::-1]
                end = start
            self.axes.append((axis, innov * h, res_w))

    @classmethod
    def chains(cls, path: paths.ControlPath, spec: noise.NoiseSpec, period: float):
        """Per driven axis, the node chain and the weights of delta =
        node_w . x + res_w . eta: (axis, blocks, innov, node_w, res_w), with
        blocks a list of (segment count, a) in node order."""
        out = []
        n_coarse = int(min(cls.COARSE_SEGMENTS, _mc_intervals(path, spec, period)))
        for axis in range(3):
            sigma, tau = spec.sigma[axis], spec.tau[axis]
            if sigma == 0.0:
                continue
            nodes, counts = cls._nodes(period, tau, spec.pinning, n_coarse)
            seg_dt = np.diff(nodes)
            lam = 2.0 / tau
            a = np.exp(-lam * seg_dt)
            g = (1.0 - a) / lam
            beta = g / (1.0 + a)
            # 2 (lam dt - 1 + a)/lam^2 - 2 g^2/(1+a), written so that no
            # term overflows at a tiny tau (lam^2 would from tau ~ 1e-154).
            var_y = tau * seg_dt - 0.5 * tau * tau * (1.0 - a) - 2.0 * g * g / (1.0 + a)
            mid = 0.5 * (nodes[:-1] + nodes[1:])
            kern = holonomy.angle_response_kernel(path, mid / period)[:, axis] / period
            if spec.pinning == "endpoint-ramp":
                kern = kern * noise._ramp(mid, tau, period)
            node_w = np.zeros(nodes.size)
            node_w[:-1] += kern * beta
            node_w[1:] += kern * beta
            res_w = kern * sigma * np.sqrt(np.maximum(var_y, 0.0))
            innov = np.empty(nodes.size)
            # The bridge starts at zero, the other chains stationary.
            innov[0] = 0.0 if spec.pinning == "exact-bridge" else sigma
            innov[1:] = sigma * np.sqrt(1.0 - a * a)
            if spec.pinning == "exact-bridge":
                # The nodes are uniform, so one a serves, and weight_m = 1:
                # node_w . (x - x_m weight) weighs x_m by
                # -node_w[:-1] . weight[:-1].
                weight = noise.bridge_weight(a[0], seg_dt.size)
                node_w[-1] = -(node_w[:-1] @ weight[:-1])
            # Each block's segments have equal length; its first a serves.
            firsts = np.cumsum([0] + counts[:-1])
            blocks = [(n_seg, float(a[first])) for n_seg, first in zip(counts, firsts)]
            out.append((axis, blocks, innov, node_w, res_w))
        return out

    @staticmethod
    def _nodes(period: float, tau: float, pinning: str, n_coarse: int):
        if pinning == "endpoint-ramp":
            width = min(noise.RAMP_WIDTH_TAUS * tau, 0.25 * period)
            n_fine = max(10, int(np.ceil(width / (0.5 * tau))))
            head = np.linspace(0.0, width, n_fine + 1)
            n_mid = max(1, int(round((period - 2.0 * width) / (period / n_coarse))))
            mid = np.linspace(width, period - width, n_mid + 1)
            tail = np.linspace(period - width, period, n_fine + 1)
            nodes = np.concatenate([head, mid[1:], tail[1:]])
            blocks = [n_fine, n_mid, n_fine]
        else:
            nodes = np.linspace(0.0, period, n_coarse + 1)
            blocks = [n_coarse]
        return nodes, blocks

    def __call__(self, index: int) -> float:
        total = 0.0
        for axis, g, res_w in self.axes:
            rng = np.random.default_rng([self.spec.seed, index, axis])
            z = rng.standard_normal(g.size)
            eta = rng.standard_normal(res_w.size)
            total += float(g @ z + res_w @ eta)
        return total


def mc_delta(path: paths.ControlPath, spec: noise.NoiseSpec, epsilon: float,
             n: int, mode: str) -> MCResult:
    """Monte Carlo estimate of the angle-error spread Delta.

    first_order evaluates the linear response integral on each realization;
    full_propagation perturbs the path, propagates it, and compares the
    extracted angle with the unperturbed loop's angle; it needs pinned
    noise, which closes the loop. Realizations that leak more than 10% of
    the dark population are excluded and counted, and so are those that
    drive the curve near the origin, with NaN delta and leakage. Raises
    ExcludedRealizationsError when fewer than two stay in.

    A first-order ensemble samples every pinning with _IntervalEngine,
    which builds no dense noise grid, in a plain loop: each realization is a
    few short numpy calls, so worker threads would only wait on each other.
    A full-propagation ensemble runs on THREADS worker threads, or on
    min(8, cpu count) when THREADS is unset. THREADS is validated in both
    modes, and the result is the same at any count.
    """
    if mode not in MC_MODES:
        raise ValueError(f"mode must be one of {MC_MODES}")
    if mode == "full_propagation" and spec.pinning == "none":
        raise ValueError("full_propagation needs pinned noise: unpinned noise "
                         "does not close the loop")
    if n < 2:
        raise ValueError(f"n must be at least 2 to estimate a spread, got {n}")
    propagator._check_epsilon(epsilon)
    n_workers = threads_from_env() or min(8, os.cpu_count() or 1)
    period = 1.0 / float(epsilon)
    if mode == "first_order":
        engine = _IntervalEngine(path, spec, period)

        def one(idx: int) -> tuple[float, float]:
            return engine(idx), 0.0
    else:
        # Rejects an oversized ensemble, an infinite density too, before its
        # grid or noise exists.
        spu = np.ceil(_mc_intervals(path, spec, period) / period)
        propagator._effective_steps(path, float(epsilon), spu)
        spu = int(spu)
        grid = _mc_grid(path, spec, period)
        omega_ref = holonomy.solid_angle(path).omega_canonical

        def one(idx: int) -> tuple[float, float]:
            real = noise.sample_realization(spec, grid, idx)
            try:
                perturbed = paths.perturb(path, real)
            except ValueError:
                # Pinned noise is finite and closes the loop, so the one
                # rejection left is a curve driven near the origin, where
                # the gap collapses: exclude the realization, like a leaky
                # one (NaN leakage is never within the limit).
                return float("nan"), float("nan")
            u = propagator.evolve_lab(perturbed, float(epsilon), steps_per_unit_time=spu)
            gate = propagator.extract_logical_gate(u, path)
            d = holonomy.canonical_angle(gate.angle_estimate - omega_ref)
            return d, gate.leakage

    indices = range(n)
    if mode == "first_order" or n_workers == 1:
        rows = [one(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(one, indices))
    deltas = np.array([r[0] for r in rows])
    leakages = np.array([r[1] for r in rows])
    included = leakages <= propagator.LEAKAGE_LIMIT
    kept = deltas[included]
    n_kept = int(kept.size)
    if n_kept < 2:
        raise ExcludedRealizationsError(
            f"too many excluded realizations to report statistics: "
            f"{n - n_kept} of {n} excluded, fewer than 2 left")
    delta_std = float(np.std(kept, ddof=1))
    try:
        analytic = float(np.sqrt(holonomy.delta_variance_analytic(path, spec, period)))
    except ValueError:
        analytic = float("nan")
    return MCResult(
        n_realizations=int(n),
        delta_mean=float(np.mean(kept)),
        delta_std=delta_std,
        std_error=delta_std / np.sqrt(2.0 * n_kept),
        analytic_delta=analytic,
        n_excluded=int(n - n_kept),
        deltas=deltas,
        leakages=leakages,
    )


def _point_seed(base_seed: int, point: int) -> int:
    return int(np.random.SeedSequence(entropy=[int(base_seed), int(point)])
               .generate_state(1, np.uint64)[0])


def scaling_study(path: paths.ControlPath, p: float, q: float, tau0: float,
                  sigma0: float, epsilon_grid, n: int, mode: str,
                  pinning: str = "endpoint-ramp", base_seed: int = 0) -> ScalingResult:
    """Delta(epsilon) with noise scaled as tau = tau0 eps^p, sigma = sigma0 eps^q.

    The fitted exponent should come out at p/2 + q + 1/2.
    """
    eps = np.sort(np.asarray(epsilon_grid, dtype=float))
    if eps.size < 4:
        raise ValueError("epsilon grid needs at least 4 points")
    if eps[-1] / eps[0] < 10.0:
        raise ValueError("epsilon grid must span at least one decade")
    # Every point's noise, so that a bad epsilon or tau fails before any
    # ensemble.
    specs = []
    for j, e in enumerate(eps):
        tau, sigma = noise.scaling_params(float(e), p, q, tau0, sigma0)
        specs.append(noise.NoiseSpec.uniform(sigma, tau, pinning=pinning,
                                             seed=_point_seed(base_seed, j)))
    results = tuple(mc_delta(path, spec, float(e), n, mode) for e, spec in zip(eps, specs))
    fit = fit_power_law(eps, [r.delta_std for r in results])
    return ScalingResult(fit=fit, results=results)


def gate_distance(path: paths.ControlPath, epsilon: float,
                  steps_per_unit_time: int = propagator.STEPS_PER_UNIT_TIME) -> float:
    """Frobenius distance of the propagated dark block from the ideal gate."""
    u = propagator.evolve_lab(path, float(epsilon),
                              steps_per_unit_time=steps_per_unit_time)
    gate = propagator.extract_logical_gate(u, path)
    ideal = holonomy.gate_from_connection(path)
    return float(np.linalg.norm(gate.block - ideal))


def convergence_study(path: paths.ControlPath, epsilon_grid,
                      steps_per_unit_time: int = propagator.STEPS_PER_UNIT_TIME
                      ) -> PowerLawFit:
    """Noiseless gate error versus epsilon; the slope should be about 1."""
    eps = np.sort(np.asarray(epsilon_grid, dtype=float))
    dists = np.array([gate_distance(path, e, steps_per_unit_time) for e in eps])
    return fit_power_law(eps, dists)


def timing_mismatch_error(path: paths.ControlPath, t0: float, delta_t: float,
                          steps_per_unit_time: int = propagator.STEPS_PER_UNIT_TIME
                          ) -> float:
    """Gate error caused by stopping at the nominal time T0 when the drive's
    true period is T0 + delta_t.

    Measured as the action difference on the logical basis between the
    mismatched run and the matched-period run of identical resolution, which
    isolates the mismatch effect (at delta_t = 0 it is exactly zero) from
    the intrinsic adiabatic error the two runs share.
    """
    epsilon = 1.0 / float(t0)
    u_mis = propagator.evolve_lab(path, epsilon, steps_per_unit_time=steps_per_unit_time,
                                  delta_t=float(delta_t))
    u_ref = propagator.evolve_lab(path, epsilon, steps_per_unit_time=steps_per_unit_time)
    basis = propagator.dark_basis_matrix(path).astype(complex)
    return float(np.linalg.norm((u_mis - u_ref) @ basis))


def timing_study(path: paths.ControlPath, delta_t: float, t0_grid,
                 steps_per_unit_time: int = propagator.STEPS_PER_UNIT_TIME
                 ) -> PowerLawFit:
    """Timing-mismatch gate error versus the nominal period T0.

    With fixed delta_t the mismatch rotates the final frame away from
    closure by an angle proportional to the drive velocity, so the fitted
    slope should be about -1.
    """
    t0s = np.sort(np.asarray(t0_grid, dtype=float))
    if t0s.size < 3:
        raise ValueError("T0 grid needs at least 3 points")
    errors = [
        timing_mismatch_error(path, float(t0), delta_t, steps_per_unit_time)
        for t0 in t0s
    ]
    return fit_power_law(t0s, np.array(errors))


def fit_power_law(xs, ys) -> PowerLawFit:
    """Least squares of ln y on ln x; needs at least 3 strictly positive points."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("x values must not be all equal")
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    ssr = float(np.sum(resid ** 2))
    nn = x.size
    stderr = float(np.sqrt(ssr / (nn - 2) / sxx))
    return PowerLawFit(
        exponent=slope,
        intercept=intercept,
        residual=float(np.sqrt(ssr / nn)),
        exponent_stderr=stderr,
        xs=x,
        ys=y,
    )
