import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

from shockwear import GammaLaw, NormalLaw, kernel
from shockwear.kernel import facilitation_pmf, gamma_cdf, normal_cdf
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
        # integrable singularity at zero: pdf(v^2) * 2v is smooth on (0, 1],
        # and the quadrature never evaluates it at v = 0
        law = GammaLaw(0.5, 1.0)
        oracle = integrate(lambda v: gamma_density(v * v, law) * 2.0 * v, 0.0, 1.0, tol=1e-12)
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

    def test_huge_shape_at_its_mean(self):
        # rate*x + 1 - shape rounds to 0 here; half the mass lies below the mean
        assert gamma_cdf(1e300, GammaLaw(1e300, 1.0)) == special.gammainc(1e300, 1e300) == 0.5

    def test_overflowing_rate_times_x_returns(self):
        # rate*x is inf; in a subprocess, so that a CDF that never returns
        # fails this test instead of stalling the suite
        script = ("from shockwear.kernel import GammaLaw, gamma_cdf\n"
                  "print(gamma_cdf(1e308, GammaLaw(1.0, 10.0)))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1.0\n"

    def test_one_module_load_serves_both_names(self):
        for name in ("gammainc", "gammaincinv"):
            assert kernel._scipy_ufunc(name) is getattr(kernel._special_ufuncs(), name)
        assert kernel._special_ufuncs.cache_info().misses == 1


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

    # facilitation_pmf(i, eta, big_lambda) at 50 digits, from mpmath's loggamma,
    # expm1 and exp at the float arguments: eta in {1e-6, 1e-3, 0.05, 0.2, 1, 5},
    # big_lambda in {0.1, 1, 10}, i in {1, 5, 58, 200, 1000}, leaving out the
    # cells below 1e-290
    REFERENCE = {
        (1e-06, 0.1, 1): 9.0483737279409022e-2,
        (1e-06, 0.1, 5): 7.540385335251859e-8,
        (1e-06, 0.1, 58): 3.855809597564869e-137,
        (1e-06, 1.0, 1): 3.6787925723178305e-1,
        (1e-06, 1.0, 5): 3.065685002267968e-3,
        (1e-06, 1.0, 58): 1.5676142808435588e-79,
        (1e-06, 10.0, 1): 4.5399702763592703e-4,
        (1e-06, 10.0, 5): 3.7832707307425593e-2,
        (1e-06, 10.0, 58): 1.9340848512588899e-25,
        (1e-06, 10.0, 200): 5.8664332341286584e-180,
        (0.001, 0.1, 1): 9.0479217767308248e-2,
        (0.001, 0.1, 5): 7.6140754822825117e-8,
        (0.001, 0.1, 58): 1.9437982124580436e-136,
        (0.001, 1.0, 1): 3.6769556274877155e-1,
        (0.001, 1.0, 5): 3.0886953279342439e-3,
        (0.001, 1.0, 58): 7.6993151701960231e-79,
        (0.001, 10.0, 1): 4.517368489128176e-4,
        (0.001, 10.0, 5): 3.7270229369238691e-2,
        (0.001, 10.0, 58): 7.3207370130194844e-25,
        (0.001, 10.0, 200): 2.7876368213645733e-172,
        (0.05, 0.1, 1): 9.0257908993879209e-2,
        (0.05, 0.1, 5): 1.1869268581902194e-7,
        (0.05, 0.1, 58): 1.3789044558282913e-116,
        (0.05, 1.0, 1): 3.5883384120573934e-1,
        (0.05, 1.0, 5): 4.3144428714788553e-3,
        (0.05, 1.0, 58): 1.5293694533125264e-59,
        (0.05, 1.0, 200): 1.7042966449716567e-236,
        (0.05, 10.0, 1): 3.5726960825475387e-4,
        (0.05, 10.0, 5): 1.8198662443687193e-2,
        (0.05, 10.0, 58): 7.371180539748061e-11,
        (0.05, 10.0, 200): 4.7151792803753986e-59,
        (0.2, 0.1, 1): 8.9584906594010293e-2,
        (0.2, 0.1, 5): 3.4706637699120923e-7,
        (0.2, 0.1, 58): 8.1536649643519583e-94,
        (0.2, 1.0, 1): 3.3342614629620112e-1,
        (0.2, 1.0, 5): 9.0718678590778363e-3,
        (0.2, 1.0, 58): 1.9725073549611897e-38,
        (0.2, 1.0, 200): 1.1912255677946903e-141,
        (0.2, 10.0, 1): 1.962785870457832e-4,
        (0.2, 10.0, 5): 2.7648044152832896e-3,
        (0.2, 10.0, 58): 5.504748853381786e-3,
        (0.2, 10.0, 200): 7.4484361988763513e-10,
        (0.2, 10.0, 1000): 1.34560637868486e-57,
        (1.0, 0.1, 1): 8.6106664957977719e-2,
        (1.0, 0.1, 5): 7.0615759766184313e-6,
        (1.0, 0.1, 58): 5.1004809493877573e-60,
        (1.0, 0.1, 200): 4.4649224910979907e-205,
        (1.0, 1.0, 1): 2.3254415793482963e-1,
        (1.0, 1.0, 5): 3.7128302598437466e-2,
        (1.0, 1.0, 58): 1.0282544783977752e-12,
        (1.0, 1.0, 200): 5.3172685196257223e-41,
        (1.0, 1.0, 1000): 2.3207100890810793e-200,
        (1.0, 10.0, 1): 4.5397868608862413e-5,
        (1.0, 10.0, 5): 4.5389624930092473e-5,
        (1.0, 10.0, 58): 4.5280537402885662e-5,
        (1.0, 10.0, 200): 4.4989555637633398e-5,
        (1.0, 10.0, 1000): 4.3384819447118077e-5,
        (5.0, 0.1, 1): 7.1205156388386631e-2,
        (5.0, 0.1, 5): 5.0463455162851496e-4,
        (5.0, 0.1, 58): 2.4443738465589206e-26,
        (5.0, 0.1, 200): 2.7280961437227751e-84,
        (5.0, 1.0, 1): 7.3080137798955193e-2,
        (5.0, 1.0, 5): 2.1031811582395118e-2,
        (5.0, 1.0, 58): 2.0997785832342049e-3,
        (5.0, 1.0, 200): 2.9893996063172261e-4,
        (5.0, 1.0, 1000): 3.6950650083889609e-7,
        (5.0, 10.0, 1): 9.0799859524969703e-6,
        (5.0, 10.0, 5): 2.6847702464343042e-6,
        (5.0, 10.0, 58): 3.8354844211692531e-7,
        (5.0, 10.0, 200): 1.4261489015163776e-7,
        (5.0, 10.0, 1000): 3.9366601664356114e-8,
    }

    def test_matches_high_precision_reference(self):
        # a difference of log-gammas lost up to 2.5e-8 here (i=58, eta=1e-6)
        for (eta, lam, i), want in self.REFERENCE.items():
            assert facilitation_pmf(i, eta, lam) == pytest.approx(want, rel=1e-13), (eta, lam, i)

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

    def test_tiny_eta(self):
        # eta = 1e-300 is the Poisson limit; at 1e-320 1/eta overflows, which
        # is refused rather than returned as nan
        assert facilitation_pmf(3, 1e-300, 1.0) == pytest.approx(math.exp(-1.0) / 6.0, rel=1e-14)
        with pytest.raises(ValueError, match="1/eta"):
            facilitation_pmf(3, 1e-320, 1.0)


class TestAgainstScipy:
    """The kernel's special functions against scipy.special's: the gamma CDF
    is scipy's own ufunc, the normal CDF and the count law use the math module."""

    @pytest.mark.parametrize("shape", np.geomspace(1e-3, 1e3, 19))
    def test_gamma_cdf(self, shape):
        # the ufunc loaded from scipy's module file gives scipy.special's bits,
        # as a Python float, from z = 1e-6 * (shape + 1) out to the far tail
        law = GammaLaw(shape, 1.2)
        fractions = np.concatenate([np.geomspace(1e-6, 0.999, 25), [1.0],
                                    np.linspace(1.001, 3.0, 25), [5.0, 20.0]])
        for z in sorted(set(fractions * (shape + 1.0)) | {shape, shape + math.sqrt(shape)}):
            x = z / law.rate
            got = gamma_cdf(x, law)
            assert type(got) is float
            assert got == special.gammainc(shape, law.rate * x), x

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
