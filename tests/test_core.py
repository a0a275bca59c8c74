import numpy as np
import pytest

from pemsim.core import (AnisotropicModuli, ModelParams, ParameterError,
                         lame_star, mixture_fields)


def make_params(**overrides):
    return ModelParams.reference(**overrides)


class TestValidation:
    def test_reference_set_accepted(self):
        p = make_params()
        assert p.k == 1.0 and p.R0 == 2.0

    def test_all_restrictions_reported_at_once(self):
        with pytest.raises(ParameterError) as err:
            make_params(k=-1.0, D=0.0, S_sieve=1.5)
        msg = str(err.value)
        assert "k must be > 0" in msg
        assert "D must be > 0" in msg
        assert "S_sieve" in msg

    @pytest.mark.parametrize("field,value,fragment", [
        ("k", 0.0, "k must be > 0"),
        ("D", -2.0, "D must be > 0"),
        ("rho_f0", 0.0, "rho_f0 must be > 0"),
        ("S_sieve", 1.0, "0 < S < 1"),
        ("S_sieve", 0.0, "0 < S < 1"),
        ("lam", 0.0, "lam must be > 0"),
        ("mu", -1.0, "mu must be > 0"),
        ("r0", 0.0, "r0 must be > 0"),
        ("p_a", float("nan"), "p_a must be finite"),
        ("p_st", float("inf"), "p_st must be finite"),
        ("sigma1", float("-inf"), "sigma1 must be finite"),
        ("F0", float("nan"), "F0 must be finite"),
        ("k", float("inf"), "k must be finite"),
        ("lam", float("inf"), "lam must be finite"),
        ("mu", float("inf"), "mu must be finite"),
        ("rho_f0", float("inf"), "rho_f0 must be finite"),
        ("D", float("inf"), "D must be finite"),
        ("R0", float("inf"), "R0 must be finite"),
    ])
    def test_single_violations(self, field, value, fragment):
        with pytest.raises(ParameterError, match=fragment.replace("(", "\\(")):
            make_params(**{field: value})

    def test_geometry_ordering(self):
        with pytest.raises(ParameterError, match="r0 < R0"):
            make_params(r0=2.0, R0=1.0)


class TestLameStar:
    @pytest.mark.parametrize("lam,mu,expected", [
        (1.0, 1.0, 3.0),
        (1e-12, 1.0, 2.0 + 1e-12),
        (2.0, 0.5, 3.0),
    ])
    def test_values(self, lam, mu, expected):
        assert lame_star(make_params(lam=lam, mu=mu)) == pytest.approx(
            expected, rel=0, abs=0)


class TestMixture:
    def test_hand_value(self):
        thetaM, rhoM = mixture_fields(0.5, 1.5, make_params(rho_f0=1.0))
        assert thetaM == 0.5
        assert rhoM == 2.0

    def test_pure_matrix_limit(self):
        _, rhoM = mixture_fields(1e-12, 1.7, make_params(rho_f0=1.0))
        assert rhoM == pytest.approx(1.7, rel=1e-11)

    def test_equal_density_mixture(self):
        _, rhoM = mixture_fields(0.5, 1.0, make_params(rho_f0=1.0))
        assert rhoM == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("thetaF", [0.0, 1.0, -0.2, 1.5])
    def test_porosity_domain(self, thetaF):
        with pytest.raises(ValueError, match="porosity"):
            mixture_fields(thetaF, 1.0, make_params())

    def test_nonpositive_matrix_density(self):
        with pytest.raises(ValueError, match="matrix density"):
            mixture_fields(0.9, 0.9, make_params(rho_f0=1.0))

    def test_mixture_closure_inverts(self):
        # rho_f0*thetaF + rhoM*thetaM must reproduce rho.
        rng = np.random.default_rng(42)
        p = make_params(rho_f0=1.3)
        for _ in range(200):
            thetaF = rng.uniform(0.05, 0.95)
            rho = rng.uniform(p.rho_f0 * thetaF + 0.01, 5.0)
            thetaM, rhoM = mixture_fields(thetaF, rho, p)
            back = p.rho_f0 * thetaF + rhoM * thetaM
            assert back == pytest.approx(rho, rel=1e-14)


class TestAnisotropicModuli:
    def test_isotropic_embedding_round_trip(self):
        m = AnisotropicModuli.isotropic(1.7, 0.4)
        assert m.e11 == 1.7 + 0.8
        assert m.e22 == m.e11
        assert m.e33 == 0.4
        assert m.e12 == 1.7
        assert m.e13 == 0.0 and m.e23 == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(ParameterError, match="e11"):
            AnisotropicModuli(e11=0.0, e22=1.0, e33=1.0, e12=0.0,
                              e13=0.0, e23=0.0)
        with pytest.raises(ParameterError, match="e13"):
            AnisotropicModuli(e11=1.0, e22=1.0, e33=1.0, e12=0.0,
                              e13=-0.1, e23=0.0)

    @pytest.mark.parametrize("name", ["e11", "e22", "e33", "e12", "e13",
                                      "e23"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_finiteness_enforced(self, name, value):
        entries = dict(e11=3.0, e22=2.0, e33=1.0, e12=0.7, e13=0.4, e23=0.2)
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            AnisotropicModuli(**{**entries, name: value})

    def test_all_violations_reported_at_once(self):
        inf = float("inf")
        with pytest.raises(ParameterError) as err:
            AnisotropicModuli(e11=inf, e22=1.0, e33=1.0, e12=inf, e13=-1.0,
                              e23=0.0)
        assert err.value.violations == [
            "e13 must be >= 0 (got -1.0)", "e11 must be finite (got inf)",
            "e12 must be finite (got inf)"]
