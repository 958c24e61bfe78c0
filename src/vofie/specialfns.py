"""The Mittag-Leffler series.

Pure and stateless. The Mittag-Leffler function is summed directly from its
defining series; it is only used as an analytic oracle at moderate arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


class MittagLefflerConvergenceError(RuntimeError):
    """Raised when the Mittag-Leffler series fails to meet tolerance."""


# The series' stopping tolerance and term cap (see mittag_leffler)
ML_TOL, ML_MAX_TERMS = 1e-12, 10_000


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function E_{p,q}."""

    p: float
    q: float = 1.0

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"MLParams.p must be positive, got {self.p}")


def mittag_leffler(params: MLParams, z: float) -> float:
    """Evaluate E_{p,q}(z) = sum_k z^k / Gamma(p k + q) by direct summation.

    Terms are accumulated until the next one falls below
    ML_TOL * (1 + |partial sum|), for at most ML_MAX_TERMS terms; both are
    read at each call. Intended for |z| <= 50, where the series is usable
    at double precision. Reciprocal gamma handles the poles of
    Gamma(p k + q) (those terms vanish).
    """
    p, q = params.p, params.q
    total = 0.0
    zk = 1.0
    for k in range(ML_MAX_TERMS):
        term = zk * special.rgamma(p * k + q)
        total += term
        if not np.isfinite(total):
            raise MittagLefflerConvergenceError(
                f"Mittag-Leffler series overflowed at term {k} (p={p}, q={q}, z={z})"
            )
        if abs(term) <= ML_TOL * (1.0 + abs(total)) and k > 0:
            return total
        zk *= z
    raise MittagLefflerConvergenceError(
        f"Mittag-Leffler series did not converge within {ML_MAX_TERMS} terms "
        f"(p={p}, q={q}, z={z})"
    )
