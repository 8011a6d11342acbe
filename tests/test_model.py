"""Parameterization, drift/diffusion, and the quadrature map."""

import math

import numpy as np
import pytest

from opo3 import (
    DomainError,
    ModelParams,
    PhaseSpaceState,
    derive_params,
    drift_and_diffusion,
    fixed_point,
    state_channels,
)
from opo3.moments import OPO_CHANNELS


def random_params(rng):
    return ModelParams(
        mu=float(rng.uniform(0.0, 0.95)),
        gamma_r=float(10.0 ** rng.uniform(-3, 3)),
        g=float(10.0 ** rng.uniform(-3, 0.5)),
    )


def quadratures(state, params):
    """state_channels of one PhaseSpaceState, by channel name."""
    return dict(zip(OPO_CHANNELS, state_channels(state.as_array(), params)))


def random_state(rng, scale=1.0):
    v = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    return PhaseSpaceState.from_array(v)


class TestParams:
    def test_eps_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_params(rng)
            assert p.eps == pytest.approx(p.g * math.sqrt(2.0 * p.gamma_r),
                                          rel=1e-14)

    def test_derive_params_example(self):
        p = derive_params(0.01, 100.0, 0.7)
        assert p.g == pytest.approx(7.0710678118654755e-4, rel=1e-12)
        assert p.eps == pytest.approx(0.01, rel=1e-12)
        assert p.mu == 0.7 and p.gamma_r == 100.0

    def test_derive_params_inverts_eps(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            chi = float(10.0 ** rng.uniform(-4, 1))
            gr = float(10.0 ** rng.uniform(-3, 3))
            p = derive_params(chi, gr, float(rng.uniform(0, 0.99)))
            assert p.eps == pytest.approx(chi, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ModelParams(mu=-0.1, gamma_r=1.0, g=0.05)
        with pytest.raises(DomainError):
            ModelParams(mu=0.5, gamma_r=0.0, g=0.05)
        with pytest.raises(DomainError):
            ModelParams(mu=0.5, gamma_r=1.0, g=0.0)
        with pytest.raises(DomainError):
            ModelParams(mu=float("nan"), gamma_r=1.0, g=0.05)
        with pytest.raises(DomainError):
            derive_params(0.0, 1.0, 0.5)

    def test_above_threshold_constructs(self):
        # construction is permissive; simulation/analytic entry points reject
        p = ModelParams(mu=1.2, gamma_r=1.0, g=0.05)
        assert p.mu == 1.2


class TestQuadratures:
    def test_all_zero_state(self):
        p = ModelParams(mu=0.5, gamma_r=1.0, g=0.05)
        q = quadratures(PhaseSpaceState(0, 0, 0, 0, 0, 0), p)
        assert list(q.values()) == [0] * 12

    def test_real_pump_example(self):
        # gamma_r=0.5, g=1 makes eps exactly 1
        p = ModelParams(mu=0.5, gamma_r=0.5, g=1.0)
        assert p.eps == pytest.approx(1.0, rel=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = float(rng.uniform(-3, 3))
            q = quadratures(PhaseSpaceState(r, 0, 0, r, 0, 0), p)
            assert q["x0"] == pytest.approx(2.0 * r, abs=1e-14)
            assert q["y0"] == pytest.approx(0.0, abs=1e-14)

    def test_signal_example(self):
        p = ModelParams(mu=0.5, gamma_r=0.5, g=1.0)
        q = quadratures(
            PhaseSpaceState(a0=0, a1=1.0, a2=0, a0p=0, a1p=0, a2p=1j), p)
        assert q["x"] == pytest.approx(1.0 + 1.0j, abs=1e-14)
        assert q["y"] == pytest.approx(-1.0 - 1.0j, abs=1e-14)

    def test_round_trip(self):
        # the sign convention x +- i*y = 2*g*(a1, a2p), xp +- i*yp =
        # 2*g*(a2, a1p), x0 +- i*y0 = 2*eps*(a0, a0p) recovers the state,
        # and the amplitude channels carry it unchanged
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_params(rng)
            s = random_state(rng, scale=3.0)
            q = quadratures(s, p)
            g2, eps2 = 2.0 * p.g, 2.0 * p.eps
            back = [(q["x0"] + 1j * q["y0"]) / eps2,
                    (q["x"] + 1j * q["y"]) / g2,
                    (q["xp"] + 1j * q["yp"]) / g2,
                    (q["x0"] - 1j * q["y0"]) / eps2,
                    (q["xp"] - 1j * q["yp"]) / g2,
                    (q["x"] - 1j * q["y"]) / g2]
            np.testing.assert_allclose(back, s.as_array(),
                                       rtol=1e-12, atol=1e-12)
            assert [q[n] for n in ("a0", "a1", "a2", "a0p", "a1p", "a2p")] \
                == list(s.as_array())

    def test_linearity(self):
        rng = np.random.default_rng(13)
        fields = ("x0", "y0", "x", "y", "xp", "yp")
        for _ in range(25):
            p = random_params(rng)
            u, v = random_state(rng), random_state(rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            w = PhaseSpaceState.from_array(u.as_array() + c * v.as_array())
            qu, qv, qw = (quadratures(s, p) for s in (u, v, w))
            for f in fields:
                assert qw[f] == pytest.approx(qu[f] + c * qv[f],
                                              rel=1e-12, abs=1e-12)

    def test_intensity_identity(self):
        # x^2 + y^2 = 4 g^2 a1 a2p is exact for every single sample
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_params(rng)
            s = random_state(rng, scale=2.0)
            q = quadratures(s, p)
            lhs = q["x"]**2 + q["y"]**2
            rhs = 4.0 * p.g**2 * s.a1 * s.a2p
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestDrift:
    def test_fixed_point_drift_vanishes(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = random_params(rng)
            drift, _ = drift_and_diffusion(fixed_point(p), p)
            np.testing.assert_allclose(drift.as_array(), 0.0, atol=1e-12)

    def test_pump_drift_from_origin(self):
        # all amplitudes zero: pump drift is gamma_r * mu / eps
        p = derive_params(0.01, 1.0, 0.7)
        drift, amp = drift_and_diffusion(PhaseSpaceState(0, 0, 0, 0, 0, 0), p)
        assert drift.a0 == pytest.approx(70.0, rel=1e-12)
        assert drift.a0p == pytest.approx(70.0, rel=1e-12)
        assert drift.a1 == drift.a2 == drift.a1p == drift.a2p == 0
        assert amp[0] == 0 and amp[1] == 0

    def test_noise_amp_principal_branch(self):
        # eps * a0 = -1 must give +i, not -i
        p = derive_params(1.0, 0.5, 0.5)
        assert p.eps == pytest.approx(1.0, rel=1e-15)
        state = PhaseSpaceState(a0=-1.0, a1=0, a2=0, a0p=-1.0, a1p=0, a2p=0)
        _, amp = drift_and_diffusion(state, p)
        assert amp[0] == pytest.approx(1j, abs=1e-14)
        assert amp[1] == pytest.approx(1j, abs=1e-14)

    def test_noise_amp_at_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_params(rng)
            _, amp = drift_and_diffusion(fixed_point(p), p)
            assert amp[0] == pytest.approx(math.sqrt(p.mu), rel=1e-12)
            assert amp[0].imag == 0.0

    def test_drift_formulas_random_state(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            p = random_params(rng)
            s = random_state(rng)
            drift, amp = drift_and_diffusion(s, p)
            m = p.mu / p.eps
            assert drift.a0 == pytest.approx(
                p.gamma_r * (m - s.a0) - p.eps * s.a1 * s.a2, rel=1e-12)
            assert drift.a1 == pytest.approx(
                -s.a1 + p.eps * s.a2p * s.a0, rel=1e-12, abs=1e-14)
            assert drift.a2p == pytest.approx(
                -s.a2p + p.eps * s.a1 * s.a0p, rel=1e-12, abs=1e-14)
            assert amp[0] ** 2 == pytest.approx(p.eps * s.a0, rel=1e-12)
            # principal branch: nonnegative real part
            assert amp[0].real >= 0 and amp[1].real >= 0

    def test_is_finite(self):
        assert PhaseSpaceState(1, 2, 3, 4, 5, 6).is_finite()
        assert not PhaseSpaceState(float("inf"), 0, 0, 0, 0, 0).is_finite()
        assert not PhaseSpaceState(0, complex(0, float("nan")), 0, 0, 0,
                                   0).is_finite()
