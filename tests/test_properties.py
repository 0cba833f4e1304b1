"""Invariants of both propagation frames, of the loop geometry and of the
perturbed drive, over random smooth loops.

The references fold the matrix-step oracle oracles.step_matrices (the
closed-form 4x4 complex steps) one matrix product at a time, and build the
moving frame's triplet rotations with scipy's Rodrigues formula, so they
share no code with the quaternion core they check;
test_oracles_import_nothing_from_the_library keeps oracles.py free of
library imports. The frame duality V = R(1) U uses tripod.r_rotation, built
from the path angles alone.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from tripodholo import (ControlPath, Harmonics, Profile, evolve_lab, evolve_moving,
                        extract_logical_gate, fourier_path, noise, paths, solid_angle,
                        tripod)
from tripodholo.propagator import STEPS_PER_UNIT_TIME, _effective_steps

from oracles import ar1_recursion, step_matrices

PROPERTY_SETTINGS = settings(max_examples=20, derandomize=True, deadline=None)

coeff = st.floats(-1.0, 1.0)


def _harmonics(draw, scale):
    return tuple(scale * draw(coeff) for _ in range(draw(st.integers(0, 2))))


@st.composite
def angles(draw, phi_scale):
    """theta and phi of a winding-1 loop, with at most two harmonics each;
    theta stays inside (0.3, pi - 0.3)."""
    theta = Harmonics(offset=draw(st.floats(1.1, np.pi - 1.1)),
                      sin=_harmonics(draw, 0.2), cos=_harmonics(draw, 0.2))
    phi = Harmonics(offset=draw(st.floats(-np.pi, np.pi)), slope=2.0 * np.pi,
                    sin=_harmonics(draw, phi_scale), cos=_harmonics(draw, phi_scale))
    return theta, phi


@st.composite
def radii(draw):
    """A radius profile that stays inside (0.2, 2.0)."""
    return Harmonics(offset=draw(st.floats(0.9, 1.3)), slope=0.3 * draw(coeff),
                     sin=_harmonics(draw, 0.1), cos=_harmonics(draw, 0.1))


@st.composite
def loops(draw):
    """A fourier_path with winding 1 and at most two bounded harmonics per
    profile."""
    return fourier_path(*draw(angles(0.4)), draw(radii()))


#: Angles whose phi' stays positive: with phi harmonics below 0.16,
#: sum_k k (|sin_k| + |cos_k|) < 1, so the shadow speed has no kink.
forward_angles = angles(0.16)


epsilons = st.floats(0.02, 0.1)


def _step_times(path, eps):
    t_end = 1.0 / eps
    n = _effective_steps(path, eps, STEPS_PER_UNIT_TIME)
    dt = t_end / n
    return (np.arange(n) + 0.5) * dt, dt


def _fold(steps):
    u = np.eye(4, dtype=complex)
    for step in steps:
        u = step @ u
    return u


def lab_reference(path, eps):
    t_mid, dt = _step_times(path, eps)
    return _fold(step_matrices(path.x(t_mid * eps), dt))


def moving_reference(path, eps):
    t_mid, dt = _step_times(path, eps)
    s_mid = t_mid * eps
    rotvecs = -0.5 * eps * dt * tripod.frame_angular_velocity(path, s_mid)
    half = np.zeros((t_mid.size, 4, 4))
    half[:, 0, 0] = 1.0
    half[:, 1:, 1:] = Rotation.from_rotvec(rotvecs).as_matrix()
    alpha = path.radius(s_mid) / float(path.radius(0.0))
    core = step_matrices(np.broadcast_to(path.x(0.0), (t_mid.size, 3)), alpha * dt)
    return _fold(half @ core @ half)


@PROPERTY_SETTINGS
@given(loops(), epsilons)
def test_lab_core_matches_folded_complex_steps(path, eps):
    u = evolve_lab(path, eps)
    assert np.max(np.abs(u - lab_reference(path, eps))) < 1e-11


@PROPERTY_SETTINGS
@given(loops(), epsilons)
def test_moving_core_matches_folded_split_steps(path, eps):
    v = evolve_moving(path, eps)
    assert np.max(np.abs(v - moving_reference(path, eps))) < 1e-11


@PROPERTY_SETTINGS
@given(loops(), epsilons, st.sampled_from((evolve_lab, evolve_moving)))
def test_propagators_are_unitary(path, eps, evolve):
    u = evolve(path, eps)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


@PROPERTY_SETTINGS
@given(loops(), epsilons, st.sampled_from((evolve_lab, evolve_moving)))
def test_propagators_are_deterministic(path, eps, evolve):
    assert np.array_equal(evolve(path, eps), evolve(path, eps))


@PROPERTY_SETTINGS
@given(loops(), epsilons)
def test_frame_duality_converges_at_second_order(path, eps):
    r1 = tripod.r_rotation(path, 1.0)

    def defect(spu):
        u = evolve_lab(path, eps, steps_per_unit_time=spu)
        v = evolve_moving(path, eps, steps_per_unit_time=spu)
        return float(np.linalg.norm(v - r1 @ u))

    coarse, fine = defect(100), defect(200)
    assert fine <= 1e-4
    # Halving the step cuts a second-order defect 4x; below 1e-10 it is
    # round-off and no longer falls.
    assert fine < 1e-10 or coarse >= 3.0 * fine


def _reparametrized(path, a):
    """The same loop traversed as s -> u(s) = s + a sin(2 pi s) / (2 pi),
    |a| < 1, each profile with its chain-rule rate."""
    def u(s):
        return s + a * np.sin(2.0 * np.pi * s) / (2.0 * np.pi)

    def du(s):
        return 1.0 + a * np.cos(2.0 * np.pi * s)

    def compose(p):
        return Profile(fn=lambda s: p(u(s)), dfn=lambda s: p.derivative(u(s)) * du(s))

    return ControlPath(theta=compose(path.theta), phi=compose(path.phi),
                       radius=compose(path.radius))


@PROPERTY_SETTINGS
@given(forward_angles, radii())
def test_solid_angle_forms_differ_by_the_winding(angles, radius):
    report = solid_angle(fourier_path(*angles, radius))
    assert abs(report.omega_cos + report.omega_area - 2.0 * np.pi * report.winding) < 1e-9


@PROPERTY_SETTINGS
@given(forward_angles, radii(), st.floats(-0.9, 0.9))
def test_solid_angle_and_length_survive_reparametrization(angles, radius, a):
    path = fourier_path(*angles, radius)
    moved = _reparametrized(path, a)
    before, after = solid_angle(path), solid_angle(moved)
    assert abs(after.omega_cos - before.omega_cos) < 1e-9
    assert abs(after.arc_length - before.arc_length) < 1e-9


@PROPERTY_SETTINGS
@given(forward_angles, radii(), radii())
def test_solid_angle_does_not_depend_on_the_radius(angles, r1, r2):
    assert (solid_angle(fourier_path(*angles, r1)).omega_cos
            == solid_angle(fourier_path(*angles, r2)).omega_cos)


@PROPERTY_SETTINGS
@given(loops(), st.sampled_from((-1.0, 1.0)), st.floats(0.1, 0.9), st.floats(0.002, 0.01))
def test_propagated_gate_survives_reparametrization_to_first_order(path, sign, size, eps):
    # The gate is geometric, so the two traversals differ only by their
    # O(epsilon) adiabatic corrections. |a| >= 0.1 keeps the two apart.
    a = sign * size
    moved = _reparametrized(path, a)
    blocks = [extract_logical_gate(evolve_lab(p, eps), p).block for p in (path, moved)]
    assert np.linalg.norm(blocks[0] - blocks[1]) <= 5.0 * eps


@PROPERTY_SETTINGS
@given(st.sampled_from((1, 31, 32, 33, 1025)),
       st.floats(np.exp(-0.2), 1.0, exclude_max=True), st.integers(0, 2 ** 32 - 1))
def test_blocked_ar1_filter_matches_the_recursion(n, c, seed):
    # Lengths around the 32-point block edges; c from full propagation's
    # largest step factor e^-0.2 up to a near random walk.
    x = np.random.default_rng(seed).standard_normal(n)
    ref = ar1_recursion(c, x)
    out = noise.lfilter(c, x)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.sqrt(np.mean(ref ** 2))


@PROPERTY_SETTINGS
@given(loops(), st.sampled_from(("endpoint-ramp", "exact-bridge")), st.integers(2, 9),
       st.floats(0.001, 0.1), st.integers(0, 2 ** 32 - 1))
def test_perturbed_drive_is_linear_between_knots(path, pinning, m, sigma, seed):
    # perturb adds the noise at its knots to the bit, and takes it linearly
    # between them. With 2^m intervals the knots and their midpoints are
    # exact binary fractions, so a midpoint lies halfway to the bit; at
    # other points the weights are the rounded fractions of the interval.
    grid = np.linspace(0.0, 20.0, 2 ** m + 1)
    tau = 10.0 * grid[1]
    real = noise.sample_realization(noise.NoiseSpec.uniform(sigma, tau, pinning, seed),
                                    grid, 0)
    drive = paths.perturb(path, real)
    s = grid / grid[-1]
    assert np.array_equal(drive.grid, s)
    assert np.array_equal(drive.x(s), path.x(s) + real.dx)
    mid = 0.5 * (s[:-1] + s[1:])
    halfway = path.x(mid) + 0.5 * (real.dx[:-1] + real.dx[1:])
    assert np.max(np.abs(drive.x(mid) - halfway)) <= 1e-15
    q = np.random.default_rng(seed).uniform(0.0, 1.0, 200)
    k = np.minimum(np.searchsorted(s, q, "right") - 1, s.size - 2)
    w = ((q - s[k]) / (s[k + 1] - s[k]))[:, None]
    between = path.x(q) + real.dx[k] + w * (real.dx[k + 1] - real.dx[k])
    assert np.max(np.abs(drive.x(q) - between)) <= 1e-15
    assert np.array_equal(drive.radius(q), np.linalg.norm(drive.x(q), axis=1))


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules
    assert not [m for m in modules if m.startswith(("tripodholo", "."))]
