import math

import numpy as np
import pytest
from scipy import special

from shockwear import GammaLaw, NormalLaw
from shockwear.kernel import facilitation_pmf, gamma_cdf, iid_sum_normal, normal_cdf
from shockwear.quadrature import integrate
from tests.conftest import facilitation_mass, gamma_density, normal_density


class TestLaws:
    def test_gamma_law_moments(self):
        law = GammaLaw(0.5, 1.2)
        assert law.mean == pytest.approx(0.5 / 1.2)
        assert law.variance == pytest.approx(0.5 / 1.2**2)

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                            (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_gamma_law_rejects(self, shape, rate):
        with pytest.raises(ValueError):
            GammaLaw(shape, rate)

    @pytest.mark.parametrize("mean,stdev", [(0.0, 0.0), (0.0, -1.0), (math.nan, 1.0)])
    def test_normal_law_rejects(self, mean, stdev):
        with pytest.raises(ValueError):
            NormalLaw(mean, stdev)


class TestGammaCdf:
    def test_zero_mass(self):
        for law in (GammaLaw(0.5, 1.0), GammaLaw(2.0, 1.2), GammaLaw(0.005, 1.2)):
            assert gamma_cdf(0.0, law) == 0.0

    def test_exponential_case(self):
        # shape 1 reduces to an exponential law
        assert gamma_cdf(1.0, GammaLaw(1.0, 1.2)) == pytest.approx(1.0 - math.exp(-1.2), abs=1e-12)

    def test_half_shape_equals_erf(self):
        assert gamma_cdf(1.0, GammaLaw(0.5, 1.0)) == pytest.approx(math.erf(1.0), abs=1e-10)

    def test_half_shape_against_quadrature(self):
        # quadrature oracle for the density; the sqrt substitution removes the
        # integrable singularity at zero: pdf(v^2) * 2v is smooth on (0, 1].
        # The clipped [0, 1e-12] sliver contributes ~1.2e-12, below tolerance.
        law = GammaLaw(0.5, 1.0)
        oracle = integrate(lambda v: gamma_density(v * v, law) * 2.0 * v, 1e-12, 1.0, tol=1e-12)
        assert gamma_cdf(1.0, law) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_x(self):
        law = GammaLaw(2.0, 1.2)
        xs = np.linspace(0.0, 10.0, 101)
        vals = [gamma_cdf(x, law) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_monotone_in_shape(self):
        # larger shape pushes mass right, so the CDF at fixed x drops
        shapes = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals = [gamma_cdf(2.0, GammaLaw(s, 1.2)) for s in shapes]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -0.5])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            gamma_cdf(x, GammaLaw(1.0, 1.0))


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(10.0, NormalLaw(10.0, 5.0)) == pytest.approx(0.5, abs=1e-15)

    def test_hard_failure_margin(self):
        # four standard deviations: damage threshold 30 against N(10, 5^2)
        law = NormalLaw(10.0, 5.0)
        got = normal_cdf(30.0, law)
        assert got == pytest.approx(0.99996833, abs=5e-9)
        # quadrature oracle: 0.5 + integral of the density from mean to x
        oracle = 0.5 + integrate(lambda v: normal_density(v, law), 10.0, 30.0, tol=1e-13)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_identity(self):
        law = NormalLaw(3.0, 2.0)
        for x in np.linspace(-8.0, 14.0, 23):
            assert normal_cdf(x, law) + normal_cdf(2 * law.mean - x, law) == pytest.approx(1.0, abs=1e-12)

    def test_one_sigma_pair(self):
        law = NormalLaw(1.0, 0.5)
        total = normal_cdf(0.5, law) + normal_cdf(1.5, law)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            normal_cdf(math.nan, NormalLaw(0.0, 1.0))


class TestFacilitationPmf:
    def test_zero_count_is_plain_exponential(self):
        # (e^{-eta*L})^{1/eta} collapses to e^{-L} regardless of eta
        assert facilitation_pmf(0, 0.2, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        for eta in (0.05, 0.2, 1.0):
            for lam in (0.1, 1.0, 10.0):
                assert facilitation_pmf(0, eta, lam) == pytest.approx(math.exp(-lam), abs=1e-12)

    def test_single_count_closed_form(self):
        # eta=0.2 gives 1/eta = 5: choose(5,1) * (1-e^{-0.2}) * (e^{-0.2})^5
        expected = 5.0 * (1.0 - math.exp(-0.2)) * math.exp(-0.2) ** 5
        assert expected == pytest.approx(0.3334261463, abs=5e-11)
        assert facilitation_pmf(1, 0.2, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_poisson_limit(self):
        for lam in (0.5, 2.0, 5.0):
            sup = 0.0
            for i in range(51):
                poisson = math.exp(-lam) * lam**i / math.factorial(i)
                sup = max(sup, abs(facilitation_pmf(i, 1e-6, lam) - poisson))
            assert sup < 1e-4

    def test_poisson_limit_reference_value(self):
        assert math.exp(-2.0) * 2.0**3 / 6.0 == pytest.approx(0.1804470, abs=5e-8)
        assert facilitation_pmf(3, 1e-6, 2.0) == pytest.approx(0.1804470, abs=1e-5)

    @pytest.mark.parametrize("eta", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_normalization(self, eta, lam):
        mass = facilitation_mass(eta, lam, tail_tol=1e-12)
        assert mass >= 1.0 - 1e-9

    def test_values_are_probabilities(self):
        for eta in (0.05, 0.3, 2.0):
            for lam in (0.0, 0.7, 4.0):
                for i in (0, 1, 5, 40):
                    p = facilitation_pmf(i, eta, lam)
                    assert 0.0 <= p <= 1.0

    def test_zero_hazard(self):
        assert facilitation_pmf(0, 0.2, 0.0) == 1.0
        assert facilitation_pmf(3, 0.2, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            facilitation_pmf(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            facilitation_pmf(1, -0.5, 1.0)
        with pytest.raises(ValueError):
            facilitation_pmf(-1, 0.2, 1.0)
        with pytest.raises(ValueError):
            facilitation_pmf(1, 0.2, -2.0)


class TestAgainstScipy:
    """The kernel's special functions, computed without scipy, against scipy's."""

    @pytest.mark.parametrize("shape", np.geomspace(1e-3, 1e3, 19))
    def test_gamma_cdf(self, shape):
        # values of x on both sides of the series/continued-fraction switch at
        # rate*x = shape + 1, out to the far tails. At shape 1e3, a prefactor
        # built on lgamma alone errs by 6e-13, so 1e-13 also checks the
        # Stirling form used from shape 10 up.
        law = GammaLaw(shape, 1.2)
        fractions = np.concatenate([np.geomspace(1e-6, 0.999, 25), [1.0],
                                    np.linspace(1.001, 3.0, 25), [5.0, 20.0]])
        for z in sorted(set(fractions * (shape + 1.0)) | {shape, shape + math.sqrt(shape)}):
            x = z / law.rate
            assert gamma_cdf(x, law) == pytest.approx(special.gammainc(shape, z), abs=1e-13), x

    def test_normal_cdf(self):
        law = NormalLaw(3.0, 2.0)
        for z in np.linspace(-37.0, 9.0, 461):
            want = special.ndtr(z)
            assert normal_cdf(3.0 + 2.0 * z, law) == pytest.approx(want, rel=1e-12, abs=1e-300), z

    @pytest.mark.parametrize("eta", [0.05, 0.2, 1.0, 5.0])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_facilitation_pmf(self, eta, lam):
        r = 1.0 / eta
        for i in range(61):
            log_p = (special.gammaln(r + i) - special.gammaln(i + 1.0) - special.gammaln(r)
                     + i * math.log1p(-math.exp(-eta * lam)) - lam)
            assert facilitation_pmf(i, eta, lam) == pytest.approx(math.exp(log_p), rel=1e-12), i


class TestGammaSampler:
    def test_small_shape_mean(self):
        # one wear increment at dt=0.01: shape 0.005, rate 1.2
        law = GammaLaw(0.005, 1.2)
        rng = np.random.default_rng(2024)
        draws = rng.gamma(law.shape, 1.0 / law.rate, size=10**6)
        se = math.sqrt(law.variance / draws.size)
        assert abs(draws.mean() - 0.0041667) < 3 * se + 1e-7

    @pytest.mark.parametrize("shape,rate", [(50.0, 2.0), (2.0, 1.2), (0.05, 0.7)])
    def test_moments_within_four_se(self, shape, rate):
        law = GammaLaw(shape, rate)
        rng = np.random.default_rng(17)
        n = 10**6
        draws = rng.gamma(law.shape, 1.0 / law.rate, size=n)
        se_mean = math.sqrt(law.variance / n)
        assert abs(draws.mean() - law.mean) < 4 * se_mean
        # variance of the sample variance from the fourth central moment
        kurt_excess = 6.0 / shape
        se_var = law.variance * math.sqrt((2.0 + kurt_excess) / n)
        assert abs(draws.var() - law.variance) < 4 * se_var


class TestIidSumNormal:
    def test_identity(self):
        law = NormalLaw(0.5, 0.1)
        assert iid_sum_normal(1, law) == law

    def test_four_fold(self):
        out = iid_sum_normal(4, NormalLaw(0.5, 0.1))
        assert out.mean == pytest.approx(2.0)
        assert out.stdev == pytest.approx(0.2)

    def test_nine_fold(self):
        out = iid_sum_normal(9, NormalLaw(0.5, 0.1))
        assert out.mean == pytest.approx(4.5)
        assert out.stdev == pytest.approx(0.3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            iid_sum_normal(0, NormalLaw(0.5, 0.1))
