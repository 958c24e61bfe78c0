import math

import numpy as np
import pytest

from vofie.specialfns import (
    MLParams,
    MittagLefflerConvergenceError,
    mittag_leffler,
)


class TestMittagLeffler:
    def test_exponential_special_case(self):
        p = MLParams(1.0, 1.0)
        assert mittag_leffler(p, 1.0) == pytest.approx(math.e, abs=1e-11)

    def test_matches_exp_on_interval(self):
        p = MLParams(1.0, 1.0)
        for z in np.linspace(-5, 5, 21):
            assert mittag_leffler(p, z) == pytest.approx(math.exp(z), abs=1e-10 * math.exp(abs(z)))

    def test_value_at_zero(self):
        for pv in (0.5, 1.0, 2.0):
            assert mittag_leffler(MLParams(pv, 1.0), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_cosh_identity(self):
        # E_{2,1}(z^2) = cosh(z); cross-checked against a direct series sum
        got = mittag_leffler(MLParams(2.0, 1.0), 1.0)
        direct = sum(1.0 / math.gamma(2 * k + 1) for k in range(30))
        assert got == pytest.approx(math.cosh(1.0), abs=1e-11)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MLParams(-1.0, 1.0)

    def test_nonconvergence_raises(self):
        # terms z^k / Gamma(1 + p k) with tiny p shrink far too slowly
        with pytest.raises(MittagLefflerConvergenceError):
            mittag_leffler(MLParams(0.01, 1.0), 2.0)
