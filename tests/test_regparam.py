import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdeblur.bench import SCENARIOS, degrade, gaussian_field
from gfdeblur.errors import BracketFailure, ImageTooSmall
from gfdeblur.image_core import centered_sq_norm
from gfdeblur.regparam import (
    NoiseEstimate,
    choose_lambda,
    compute_rho,
    estimate_sigma,
    rho_terms,
)
from gfdeblur.spectral import Psf, SpectralPlan, circ_convolve

from conftest import discrepancy, natural_image, rand_image


def random_psf(seed, size=5):
    gen = np.random.default_rng(seed)
    return Psf.from_taps(gen.uniform(0.1, 1.0, (size, size)))


def plan_and_spectrum(g, psf, v):
    plan = SpectralPlan(g, psf)
    return plan, plan.spectrum(v)


# ------------------------------------------------------ estimate_sigma


def test_estimate_sigma_constant_image():
    assert estimate_sigma(np.full((16, 16), 8.0)).sigma == 0.0


def test_estimate_sigma_too_small():
    with pytest.raises(ImageTooSmall):
        estimate_sigma(np.ones((1, 5)))


def test_estimate_sigma_pure_gaussian():
    hits = 0
    for seed in range(50):
        field = gaussian_field((256, 256), 10.0, seed)
        if abs(estimate_sigma(field).sigma - 10.0) <= 0.5:
            hits += 1
    assert hits >= 48  # 95% coverage with slack


def test_estimate_sigma_odd_dimensions():
    field = gaussian_field((255, 257), 5.0, 3)[:255, :257]
    assert estimate_sigma(field).sigma == pytest.approx(5.0, rel=0.05)


def test_estimate_sigma_blurred_natural_scene():
    clean = natural_image(1, 256)
    scn = SCENARIOS[1]  # rational blur; override the noise level to 2
    errs = []
    for seed in range(10):
        pair = degrade(clean, scn, seed)
        g = circ_convolve(clean, pair.psf) + gaussian_field(clean.shape, 2.0, seed)
        errs.append(abs(estimate_sigma(g).sigma - 2.0) / 2.0)
    assert np.median(errs) <= 0.15


# --------------------------------------------------------- compute_rho


def test_rho_is_one_when_centered_energy_equals_noise_energy():
    g = rand_image(0)
    sigma = np.sqrt(centered_sq_norm(g) / g.size)
    rho = compute_rho(rho_terms(g, NoiseEstimate(sigma)), rand_image(1), tau=0.6)
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_rho_zero_v_forces_square_branch():
    g = rand_image(2)
    est = NoiseEstimate(5.0)
    v = np.zeros_like(g)
    rho = compute_rho(rho_terms(g, est), v, tau=0.6)
    g_sq = float(np.sum(g * g))
    s = 1.0 - (centered_sq_norm(g) - g.size * est.variance) / g_sq
    s = min(max(s, 0.05), 1.0)
    assert rho == pytest.approx(s * s, rel=1e-12)


def test_rho_matches_scripted_formula():
    # Independent re-evaluation of the s / thresh / branch rules.
    for seed in range(20):
        g = rand_image(seed, (24, 24))
        v = rand_image(seed + 1000, (24, 24), lo=50, hi=150)
        est = NoiseEstimate(np.random.default_rng(seed).uniform(0.5, 20.0))
        tau = 0.6
        npix = g.size
        ne = npix * est.variance
        s = 1.0 - (centered_sq_norm(g) - ne) / float(np.sum(g * g))
        s = min(max(s, 0.05), 1.0)
        cvar_v = centered_sq_norm(v)
        excess = centered_sq_norm(g) - ne
        thresh = np.sqrt(max(excess, 0.0) / (ne * cvar_v)) if cvar_v > 0 and ne > 0 else np.inf
        expected = s * s if thresh > tau else s
        assert compute_rho(rho_terms(g, est), v, tau) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), sigma=st.floats(0.0, 100.0, allow_nan=False))
def test_rho_always_in_unit_interval(seed, sigma):
    g = rand_image(seed)
    v = rand_image(seed + 1)
    rho = compute_rho(rho_terms(g, NoiseEstimate(sigma)), v, tau=0.6)
    assert 0.0 < rho <= 1.0


def test_square_branch_never_exceeds_linear_branch():
    g = rand_image(3)
    v = rand_image(4)
    est = NoiseEstimate(4.0)
    squared = compute_rho(rho_terms(g, est), np.zeros_like(g), tau=0.6)  # thresh = inf
    linear = compute_rho(rho_terms(g, est), v, tau=np.inf)  # thresh <= tau
    assert squared <= linear + 1e-15


# ------------------------------------------------------- choose_lambda


def test_perfect_preestimate_returns_infinity():
    g = rand_image(5)
    choice = choose_lambda(*plan_and_spectrum(g, Psf.delta(), g), 1.0)
    assert choice.is_infinite
    assert choice.residual <= 1.0


def test_infinity_implies_v_meets_bound():
    g = rand_image(6)
    psf = random_psf(7)
    v = circ_convolve(g, psf)  # decent pre-estimate
    bound = float(np.sum((circ_convolve(v, psf) - g) ** 2)) * 1.5
    choice = choose_lambda(*plan_and_spectrum(g, psf, v), bound)
    assert choice.is_infinite
    assert float(np.sum((circ_convolve(v, psf) - g) ** 2)) <= bound


def test_closed_form_lambda_equals_one():
    g = rand_image(8)
    z = np.zeros_like(g)
    bound = 0.25 * float(np.sum(g * g))
    choice = choose_lambda(
        *plan_and_spectrum(g, Psf.delta(), z), bound, rel_tol=1e-8, max_iter=200
    )
    assert choice.value == pytest.approx(1.0, abs=1e-6)


def test_returned_residual_meets_tolerance():
    g = rand_image(9, (32, 32))
    psf = random_psf(10)
    v = np.zeros_like(g)
    bound = 0.3 * float(np.sum((circ_convolve(v, psf) - g) ** 2))
    choice = choose_lambda(*plan_and_spectrum(g, psf, v), bound, rel_tol=1e-3, max_iter=60)
    assert abs(choice.residual - bound) <= 1e-3 * bound
    assert choice.residual == pytest.approx(discrepancy(g, psf, v, choice.value), rel=1e-12)


def test_lambda_unique_up_to_tolerance():
    g = rand_image(11, (32, 32))
    psf = random_psf(12)
    v = np.zeros_like(g)
    bound = 0.4 * float(np.sum((circ_convolve(v, psf) - g) ** 2))
    plan, v_hat = plan_and_spectrum(g, psf, v)
    coarse = choose_lambda(plan, v_hat, bound, rel_tol=1e-3, max_iter=200)
    fine = choose_lambda(plan, v_hat, bound, rel_tol=1e-4, max_iter=200)
    # The finer solve's residual still satisfies the coarser band.
    assert abs(discrepancy(g, psf, v, fine.value) - bound) <= 1e-3 * bound
    assert abs(discrepancy(g, psf, v, coarse.value) - bound) <= 1e-3 * bound


def test_choose_lambda_rejects_bad_tolerances():
    g = rand_image(13)
    plan, v_hat = plan_and_spectrum(g, Psf.delta(), np.zeros_like(g))
    with pytest.raises(ValueError):
        choose_lambda(plan, v_hat, 1.0, rel_tol=0.5, max_iter=60)
    with pytest.raises(ValueError):
        choose_lambda(plan, v_hat, 1.0, max_iter=0)


def test_unreachable_bound_raises_bracket_failure():
    # Delta PSF and v = 0: the residual approaches ||g||^2 only as lambda
    # grows without bound, so a bound just below it is not bracketed
    # below the cap.
    g = rand_image(14)
    bound = float(np.sum(g * g)) * (1 - 1e-15)
    plan, v_hat = plan_and_spectrum(g, Psf.delta(), np.zeros_like(g))
    with pytest.raises(BracketFailure):
        choose_lambda(plan, v_hat, bound)


def test_noise_estimate_variance_consistency():
    est = NoiseEstimate(3.0)
    assert est.variance == pytest.approx(9.0, abs=1e-12)


def test_choose_lambda_rejects_bad_bound():
    g = rand_image(13)
    plan, v_hat = plan_and_spectrum(g, Psf.delta(), np.zeros_like(g))
    for bound in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bound_c"):
            choose_lambda(plan, v_hat, bound)
