import tracemalloc

import numpy as np
import pytest

from tripodholo import (
    ControlPath,
    Harmonics,
    canonical_angle,
    evolve_lab,
    evolve_moving,
    extract_logical_gate,
    fourier_path,
    gate_from_connection,
    latitude_loop,
    lune_path,
    r_rotation,
    solid_angle,
    timing_mismatch_error,
)
from tripodholo import propagator
from tripodholo.paths import Profile
from tripodholo.propagator import (
    MAX_STEPS,
    _conj,
    _effective_steps,
    _pair,
    _qmul,
    _unpair,
    dark_basis_matrix,
)

from oracles import hamilton, step_matrix


def constant_path(theta0=1.1, phi0=0.4, r0=1.3):
    return fourier_path(
        Harmonics(offset=theta0),
        Harmonics(offset=phi0, slope=0.0),
        Harmonics(offset=r0),
    )


GENERIC_FOURIER = fourier_path(
    Harmonics(offset=1.2, sin=(0.25,), cos=(0.0, 0.1)),
    Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.2,)),
    Harmonics(offset=1.0, slope=0.5),
)


def test_settings_validation():
    path = constant_path()
    for propagate in (evolve_lab, evolve_moving):
        with pytest.raises(ValueError):
            propagate(path, 0.0)
        for epsilon in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                propagate(path, epsilon)
        with pytest.raises(ValueError):
            propagate(path, 0.1, steps_per_unit_time=0)


def test_constant_path_matches_single_step():
    path = constant_path()
    u = evolve_lab(path, 0.1)
    expected = step_matrix(path.x(0.0), 10.0)
    assert np.linalg.norm(u - expected) < 1e-12
    v = evolve_moving(path, 0.1)
    assert np.linalg.norm(v - expected) < 1e-12


def test_unitarity_after_propagation():
    for path in (latitude_loop(np.pi / 3), lune_path(np.pi / 2, 1e-3), GENERIC_FOURIER):
        u = evolve_lab(path, 0.05)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9


def test_step_halving_second_order():
    path = latitude_loop(1.0, 1.0)
    blocks = []
    for spu in (20, 40, 80):
        u = evolve_lab(path, 0.05, steps_per_unit_time=spu)
        blocks.append(extract_logical_gate(u, path).block)
    d1 = np.linalg.norm(blocks[0] - blocks[1])
    d2 = np.linalg.norm(blocks[1] - blocks[2])
    assert 2.5 < d1 / d2 < 6.0


def test_frame_duality_three_families():
    for path in (latitude_loop(np.pi / 3), lune_path(np.pi / 2, 1e-3), GENERIC_FOURIER):
        u = evolve_lab(path, 0.05, steps_per_unit_time=2500)
        v = evolve_moving(path, 0.05, steps_per_unit_time=2500)
        r1 = r_rotation(path, 1.0).astype(complex)
        assert np.linalg.norm(v - r1 @ u) < 1e-6


def test_extract_identity_and_synthetic_rotation():
    path = latitude_loop(1.0, 1.0)
    gate = extract_logical_gate(np.eye(4, dtype=complex), path)
    assert np.allclose(gate.block, np.eye(2))
    assert gate.leakage == pytest.approx(0.0, abs=1e-14)
    assert gate.angle_estimate == pytest.approx(0.0)
    assert not gate.adiabaticity_lost

    basis = dark_basis_matrix(path)
    omega = 0.77
    e_th, e_ph = basis[:, 0], basis[:, 1]
    # dark-plane rotation with the same orientation as the gate matrix
    # [[cos, sin], [-sin, cos]] in the (e_theta, e_phi) basis
    generator = np.outer(e_th, e_ph) - np.outer(e_ph, e_th)
    u = np.eye(4) + np.sin(omega) * generator + (1 - np.cos(omega)) * generator @ generator
    gate = extract_logical_gate(u.astype(complex), path)
    assert gate.leakage == pytest.approx(0.0, abs=1e-12)
    assert gate.angle_estimate == pytest.approx(omega, abs=1e-12)
    flipped = extract_logical_gate(u.conj().T, path)
    assert flipped.angle_estimate == pytest.approx(-omega, abs=1e-12)


def test_extraction_flags_heavy_leakage():
    path = latitude_loop(1.0, 1.0)
    basis = dark_basis_matrix(path)
    e_th = basis[:, 0]
    sd_other = np.eye(4, dtype=complex)
    # swap the dark vector with the ground state: all population leaves
    e0 = np.zeros(4)
    e0[0] = 1.0
    swap = np.eye(4) - np.outer(e_th, e_th) - np.outer(e0, e0)
    swap = swap + np.outer(e_th, e0) + np.outer(e0, e_th)
    gate = extract_logical_gate((sd_other @ swap).astype(complex), path)
    assert gate.leakage > 0.4
    assert gate.adiabaticity_lost


def test_extracted_angle_converges_to_solid_angle_with_sign():
    path = latitude_loop(1.0, 1.0)
    omega = solid_angle(path).omega_canonical
    assert omega == pytest.approx(2 * np.pi * np.cos(1.0) - 2 * np.pi)
    errors = []
    for eps in (0.05, 0.025, 0.0125):
        u = evolve_lab(path, eps, steps_per_unit_time=40)
        gate = extract_logical_gate(u, path)
        errors.append(abs(canonical_angle(gate.angle_estimate - omega)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.02
    # the opposite sign convention is excluded by a wide margin
    assert abs(canonical_angle(gate.angle_estimate + omega)) > 0.4


def test_moving_frame_same_extracted_gate():
    path = latitude_loop(np.pi / 3, 1.0)
    gu = extract_logical_gate(evolve_lab(path, 0.02, steps_per_unit_time=100), path)
    gv = extract_logical_gate(evolve_moving(path, 0.02, steps_per_unit_time=100), path)
    assert np.linalg.norm(gu.block - gv.block) < 1e-6


def test_r_profile_independence_of_extracted_angle():
    eps = 0.025
    varying = GENERIC_FOURIER
    flat = fourier_path(
        Harmonics(offset=1.2, sin=(0.25,), cos=(0.0, 0.1)),
        Harmonics(offset=0.0, slope=2 * np.pi, sin=(0.2,)),
        Harmonics(offset=1.0),
    )
    ga = extract_logical_gate(evolve_lab(flat, eps, steps_per_unit_time=40), flat)
    gb = extract_logical_gate(evolve_lab(varying, eps, steps_per_unit_time=40), varying)
    assert abs(canonical_angle(ga.angle_estimate - gb.angle_estimate)) < 5 * eps


def test_evolve_to_nominal_zero_mismatch_is_exact():
    path = latitude_loop(np.pi / 3, 1.0)
    assert np.array_equal(evolve_lab(path, 0.01, delta_t=0.0),
                          evolve_lab(path, 0.01))
    with pytest.raises(ValueError):
        evolve_lab(path, 0.01, delta_t=60.0)


def test_non_finite_mismatch_is_rejected_by_name():
    # NaN passes the |delta_t| < T0/2 comparison, and used to surface as a
    # non-finite drive at the first step.
    path = latitude_loop(np.pi / 3, 1.0)
    for delta_t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="delta_t must be finite"):
            evolve_lab(path, 0.05, delta_t=delta_t)


def test_blocking_does_not_change_a_bit(monkeypatch):
    # 10 500 steps: two blocks of the default size, or 164 blocks of 64 and
    # a partial block of 4.
    assert _effective_steps(GENERIC_FOURIER, 0.002, 21) % 64 == 4
    routes = (evolve_lab, evolve_moving, lambda p, e, **kw: evolve_lab(p, e, delta_t=0.5, **kw))
    default = [route(GENERIC_FOURIER, 0.002, steps_per_unit_time=21) for route in routes]
    monkeypatch.setattr(propagator, "BLOCK", 64)
    for route, expected in zip(routes, default):
        assert np.array_equal(route(GENERIC_FOURIER, 0.002, steps_per_unit_time=21),
                              expected)


@pytest.mark.parametrize("levels", [0, 2, 9])
def test_block_levels_do_not_change_a_bit(monkeypatch, levels):
    # 10 500 steps in 164 blocks of 64 and a partial block of 4, each reduced
    # by `levels` tree levels and finished in groups of 2 ** levels blocks:
    # one block per group, 41 full groups and a partial one, or all blocks
    # in one group, each reduced to its product.
    routes = (evolve_lab, evolve_moving)
    default = [route(GENERIC_FOURIER, 0.002, steps_per_unit_time=21) for route in routes]
    monkeypatch.setattr(propagator, "BLOCK", 64)
    monkeypatch.setattr(propagator, "BLOCK_LEVELS", levels)
    for route, expected in zip(routes, default):
        assert np.array_equal(route(GENERIC_FOURIER, 0.002, steps_per_unit_time=21),
                              expected)


def test_propagation_memory_does_not_grow_with_the_step_count():
    def traced_peak(route, steps):
        # GENERIC_FOURIER takes 20 steps per unit time.
        tracemalloc.start()
        try:
            route(GENERIC_FOURIER, 20.0 / steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for route in (evolve_lab, evolve_moving):
        small = traced_peak(route, 40_000)
        large = traced_peak(route, 160_000)
        assert small < 5e6
        assert large < 1.2 * small


@pytest.mark.parametrize("block", [propagator.BLOCK, 64], ids=lambda b: f"block{b}")
def test_non_finite_drive_is_rejected_at_its_first_step(monkeypatch, block):
    # The radius is NaN for 0.301 < s < 0.3015, a window between the points
    # of the constructor's check grid (k / 1024). At epsilon 0.05 there are
    # 400 steps of dt 0.05, so the first bad midpoint is t = 120.5 dt = 6.025;
    # a drive of period 20.5 reaches the window later, at t = 123.5 dt = 6.175.
    # With blocks of 64 steps both lie in the second block.
    monkeypatch.setattr(propagator, "BLOCK", block)
    path = ControlPath(
        theta=Profile(lambda s: np.full_like(s, 1.0), np.zeros_like),
        phi=Profile(lambda s: 2 * np.pi * s, lambda s: np.full_like(s, 2 * np.pi)),
        radius=Profile(lambda s: np.where((s > 0.301) & (s < 0.3015), np.nan, 1.0),
                       lambda s: np.where((s > 0.301) & (s < 0.3015), np.nan, 0.0)),
    )
    for propagate, t_bad in ((evolve_lab, r"6\.025"), (evolve_moving, r"6\.025"),
                             (lambda p, e: evolve_lab(p, e, delta_t=0.5), r"6\.175")):
        with pytest.raises(ValueError, match=f"not finite at step time t = {t_bad} "):
            propagate(path, 0.05)


def test_extract_rejects_non_finite_propagator():
    path = latitude_loop(np.pi / 3)
    u = np.eye(4, dtype=complex)
    u[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        extract_logical_gate(u, path)


def test_timing_error_linear_in_mismatch():
    path = latitude_loop(np.pi / 3, 1.0)
    e1 = timing_mismatch_error(path, 400.0, 1.0)
    e2 = timing_mismatch_error(path, 400.0, 2.0)
    assert e2 / e1 == pytest.approx(2.0, rel=0.05)


def test_timing_error_matches_first_order_prediction():
    # Leading order: the residual frame rotation at the nominal stop time,
    # applied to the partially accumulated ideal gate.
    path = latitude_loop(np.pi / 3, 1.0)
    t0, d_t = 400.0, 1.0
    measured = timing_mismatch_error(path, t0, d_t)
    s0 = t0 / (t0 + d_t)
    basis = dark_basis_matrix(path).astype(complex)
    omega_full = solid_angle(path).omega_cos
    from tripodholo.holonomy import ideal_gate

    pred = np.linalg.norm(
        r_rotation(path, s0).T.astype(complex) @ basis @ ideal_gate(omega_full * s0)
        - basis @ ideal_gate(omega_full))
    assert measured == pytest.approx(pred, rel=0.05)


def test_step_count_above_the_ceiling_is_rejected_before_allocation():
    path = latitude_loop(np.pi / 3)
    # 1e9 time units at 20 steps each; the ceiling must trip before the
    # 2e10 steps are built.
    with pytest.raises(ValueError,
                       match=r"2e\+10 time steps exceed the limit of MAX_STEPS = 8388608"):
        _effective_steps(path, 1e-9, 20)
    for propagate in (evolve_lab, evolve_moving,
                      lambda p, e: evolve_lab(p, e, delta_t=1.0)):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            propagate(path, 1e-9)
    # 1 / 1e-320 is infinite in floats: the same named error, not OverflowError.
    with pytest.raises(ValueError, match="inf time steps exceed"):
        evolve_lab(path, 1e-320)
    # 2**19 time units at 16 steps each is exactly the ceiling.
    assert _effective_steps(path, 2.0 ** -19, 16) == MAX_STEPS


def test_complex_pair_product_matches_real_hamilton_product():
    rng = np.random.default_rng(7)
    p, q = rng.standard_normal((2, 200, 4))
    p /= np.linalg.norm(p, axis=1)[:, None]
    q /= np.linalg.norm(q, axis=1)[:, None]
    pq = np.array([hamilton(a, b) for a, b in zip(p, q)])
    qp = np.array([hamilton(b, a) for a, b in zip(p, q)])
    # The product does not commute, so an operand swap cannot pass.
    assert np.min(np.linalg.norm(pq - qp, axis=1)) > 1e-3
    assert np.max(np.abs(_unpair(_qmul(_pair(p), _pair(q))) - pq)) < 1e-15
    assert np.max(np.abs(_unpair(_qmul(_pair(q), _pair(p))) - qp)) < 1e-15


def test_complex_pair_round_trip_and_conjugate():
    q = np.random.default_rng(8).standard_normal((50, 4))
    z = _pair(q)
    assert np.array_equal(z, np.stack([q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]]))
    assert np.array_equal(_unpair(z), q)
    assert np.array_equal(_unpair(_conj(z)), q * np.array([1.0, -1.0, -1.0, -1.0]))
