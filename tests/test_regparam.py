import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfdeblur.regparam as regparam
from gfdeblur.bench import SCENARIOS, degrade, gaussian_field, parse_psf_spec
from gfdeblur.errors import DimensionMismatch, ImageTooSmall
from gfdeblur.image_core import centered_sq_norm
from gfdeblur.regparam import (
    NoiseEstimate,
    choose_lambda,
    compute_rho,
    estimate_sigma,
    rho_terms,
)
from gfdeblur.spectral import (
    INFINITY,
    SINGULAR,
    Psf,
    SpectralPlan,
    circ_convolve,
    discrepancy_terms,
    solve_guidance,
)

from conftest import discrepancy, natural_image, rand_image


def random_psf(seed, size=5):
    gen = np.random.default_rng(seed)
    return Psf(gen.uniform(0.1, 1.0, (size, size)))


def plan_and_spectrum(g, psf, v):
    plan = SpectralPlan(g, psf)
    return plan, plan.spectrum(v)


# ------------------------------------------------------ estimate_sigma


def test_estimate_sigma_constant_image():
    assert estimate_sigma(np.full((16, 16), 8.0)).sigma == 0.0


def test_estimate_sigma_too_small():
    with pytest.raises(ImageTooSmall):
        estimate_sigma(np.ones((1, 5)))


def test_estimate_sigma_refuses_nan():
    # One NaN among finite details, or only NaNs: the median is NaN, as
    # np.median's is, and NoiseEstimate refuses it.
    for shape, spots in (((16, 16), [(3, 4)]), ((15, 9), [(14, 8)]), ((2, 2), [(0, 0)])):
        g = rand_image(61, shape)
        for spot in spots:
            g[spot] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_sigma(g)
    with pytest.raises(ValueError, match="finite"):
        estimate_sigma(np.full((6, 6), np.nan))


def test_estimated_sigma_restore_leaves_numpy_ma_unimported():
    # np.median's NaN check imports numpy.ma, about 1.1 MB of module
    # objects in the first restore's peak; the restore takes its median
    # without it.
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from gfdeblur.pipeline import GfdConfig, run_gfd\n"
        "from gfdeblur.spectral import Psf\n"
        "before = 'numpy.ma' in sys.modules\n"
        "g = np.random.default_rng(0).uniform(0, 255, (32, 32))\n"
        "run_gfd(g, Psf(np.ones((3, 3))), GfdConfig(iterations=2))\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


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


def test_rho_refuses_v_of_another_shape():
    terms = rho_terms(rand_image(0), NoiseEstimate(1.0))
    with pytest.raises(DimensionMismatch, match=r"g \(16, 16\) and v \(16, 15\) differ"):
        compute_rho(terms, rand_image(1, (16, 15)), tau=0.6)


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


def test_rho_takes_square_branch_when_thresh_denominator_underflows():
    # At 2^-400 scale noise_energy * cvar_v underflows to 0 while the
    # excess stays positive; thresh is then at its limit, infinity.
    scale = 2.0 ** -400
    g = scale * rand_image(5)
    terms = rho_terms(g, NoiseEstimate(scale))
    v = scale * rand_image(6)
    assert terms.excess > 0 and terms.noise_energy * centered_sq_norm(v) == 0.0
    assert compute_rho(terms, v, tau=0.6) == terms.s * terms.s


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
    choice = choose_lambda(*plan_and_spectrum(g, Psf([[1.0]]), g), 1.0, np.empty_like(g))
    assert choice.is_infinite
    assert choice.residual <= 1.0


def test_infinity_implies_v_meets_bound():
    g = rand_image(6)
    psf = random_psf(7)
    v = circ_convolve(g, psf)  # decent pre-estimate
    bound = float(np.sum((circ_convolve(v, psf) - g) ** 2)) * 1.5
    choice = choose_lambda(*plan_and_spectrum(g, psf, v), bound, np.empty_like(g))
    assert choice.is_infinite
    assert float(np.sum((circ_convolve(v, psf) - g) ** 2)) <= bound


def test_closed_form_lambda_equals_one(monkeypatch):
    monkeypatch.setattr(regparam, "REL_TOL", 1e-8)
    monkeypatch.setattr(regparam, "MAX_BISECT", 200)
    g = rand_image(8)
    z = np.zeros_like(g)
    bound = 0.25 * float(np.sum(g * g))
    choice = choose_lambda(*plan_and_spectrum(g, Psf([[1.0]]), z), bound, np.empty_like(g))
    assert choice.value == pytest.approx(1.0, abs=1e-6)


def test_returned_residual_meets_tolerance():
    g = rand_image(9, (32, 32))
    v = np.zeros_like(g)
    # [-1, 3, -1] has max |H|^2 = 25: the doubling still brackets with no cap.
    for psf in (random_psf(10), Psf([[-1, 3, -1]])):
        bound = 0.3 * float(np.sum((circ_convolve(v, psf) - g) ** 2))
        choice = choose_lambda(*plan_and_spectrum(g, psf, v), bound, np.empty_like(g))
        assert abs(choice.residual - bound) <= regparam.REL_TOL * bound
        assert choice.residual == pytest.approx(discrepancy(g, psf, v, choice.value), rel=1e-12)


def test_bound_below_b_where_H_is_tiny_is_met_when_reachable():
    # A 25x25 Gaussian of std 1.6 puts |H|^2 below SINGULAR at 144 of a
    # 64x64 half-plane's frequencies, from 1e-15 down to 2e-21, so b
    # summed there is no floor: a bound 0.9 times that sum is met, near
    # lambda = 1.4e-15, and the guidance solve takes that lambda.  Only
    # a search that ends above the bound is refused.
    g, v = rand_image(1, (64, 64)), rand_image(2, (64, 64))
    plan, v_hat = plan_and_spectrum(g, parse_psf_spec("gaussian:25:1.6"), v)
    a, b = plan.H_sq(np.empty_like(g)), discrepancy_terms(plan, v_hat)
    zeros = a < SINGULAR
    assert np.count_nonzero(zeros) == 144
    bound = 0.9 * float(np.sum(b[zeros]) / plan.npix)
    choice = choose_lambda(plan, v_hat, bound, np.empty_like(g))
    assert abs(choice.residual - bound) <= regparam.REL_TOL * bound
    assert np.all(np.isfinite(solve_guidance(plan, rand_image(3, (64, 64)), choice.value, v_hat)))


def test_lambda_unique_up_to_tolerance(monkeypatch):
    g = rand_image(11, (32, 32))
    psf = random_psf(12)
    v = np.zeros_like(g)
    bound = 0.4 * float(np.sum((circ_convolve(v, psf) - g) ** 2))
    plan, v_hat = plan_and_spectrum(g, psf, v)
    monkeypatch.setattr(regparam, "MAX_BISECT", 200)
    monkeypatch.setattr(regparam, "REL_TOL", 1e-3)
    coarse = choose_lambda(plan, v_hat, bound, np.empty_like(g))
    monkeypatch.setattr(regparam, "REL_TOL", 1e-4)
    fine = choose_lambda(plan, v_hat, bound, np.empty_like(g))
    # The finer solve's residual still satisfies the coarser band.
    assert abs(discrepancy(g, psf, v, fine.value) - bound) <= 1e-3 * bound
    assert abs(discrepancy(g, psf, v, coarse.value) - bound) <= 1e-3 * bound


def test_asymptote_within_tolerance_of_bound_returns_infinity():
    # Delta PSF and v = 0: the residual approaches ||g||^2 only as lambda
    # grows without bound.  A bound that the asymptote exceeds by less
    # than REL_TOL is met at lambda = inf, by the bisection's own band.
    g = rand_image(14)
    g_sq = float(np.sum(g * g))
    plan, v_hat = plan_and_spectrum(g, Psf([[1.0]]), np.zeros_like(g))
    for bound in (g_sq * (1 - 1e-15), g_sq / (1 + 0.999 * regparam.REL_TOL)):
        choice = choose_lambda(plan, v_hat, bound, np.empty_like(g))
        assert choice.value == INFINITY
        assert choice.residual == pytest.approx(g_sq, rel=1e-12)
        assert choice.iterations == 0


def test_choose_lambda_writes_work_only_on_a_finite_search():
    # run_gfd passes v as work: the lambda = inf branch reads v again, so
    # only a finite search may write |H|^2 over its front, and the choice
    # is the one made with a buffer of its own.
    g, v = rand_image(15, (24, 20)), rand_image(16, (24, 20))
    psf = random_psf(17)
    plan, v_hat = plan_and_spectrum(g, psf, v)
    asymptote = float(np.sum((circ_convolve(v, psf) - g) ** 2))
    work = v.copy()
    assert choose_lambda(plan, v_hat, 2 * asymptote, work).is_infinite
    assert np.array_equal(work, v)
    choice = choose_lambda(plan, v_hat, 0.5 * asymptote, work)
    assert not choice.is_infinite
    assert choice == choose_lambda(plan, v_hat, 0.5 * asymptote, np.empty_like(v))
    assert np.array_equal(work.ravel()[: plan.H.size], plan.H_sq(np.empty_like(v)).ravel())


def test_noise_estimate_variance_consistency():
    est = NoiseEstimate(3.0)
    assert est.variance == pytest.approx(9.0, abs=1e-12)


def test_noise_estimate_rejects_nonfinite_or_negative():
    for sigma in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            NoiseEstimate(sigma)
    # run_gfd derives eps = (2 * sigma) ** 2, which would raise OverflowError.
    with pytest.raises(ValueError, match=r"sigma too large: the derived eps \(2 \* sigma\)\^2"):
        NoiseEstimate(1e200)


def test_choose_lambda_evaluates_each_lambda_once(monkeypatch):
    # The bisection starts at the bracket's last lambda and first lands on
    # the one before it (bounds here bracket at lambda up to 8); no lambda
    # is evaluated twice in one call.
    evaluated = []
    real = regparam.discrepancy_from_terms

    def spy(a, b, npix, lam):
        evaluated.append(lam)
        return real(a, b, npix, lam)

    monkeypatch.setattr(regparam, "discrepancy_from_terms", spy)
    for seed in range(5):
        g = rand_image(20 + seed, (24, 24))
        psf = random_psf(30 + seed)
        v = np.zeros_like(g)
        plan, v_hat = plan_and_spectrum(g, psf, v)
        for frac in (0.05, 0.3, 0.8):
            bound = frac * float(np.sum((circ_convolve(v, psf) - g) ** 2))
            evaluated.clear()
            choice = choose_lambda(plan, v_hat, bound, np.empty_like(g))
            assert not choice.is_infinite
            assert len(evaluated) == len(set(evaluated)), evaluated
            b = regparam.discrepancy_terms(plan, v_hat)
            assert choice.residual == real(plan.H_sq(np.empty_like(g)), b, plan.npix, choice.value)


def test_choose_lambda_rejects_bad_bound():
    g = rand_image(13)
    plan, v_hat = plan_and_spectrum(g, Psf([[1.0]]), np.zeros_like(g))
    for bound in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bound_c"):
            choose_lambda(plan, v_hat, bound, np.empty_like(g))
