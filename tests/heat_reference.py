"""Heat-semigroup smoothing of an initial profile: the deterministic reference
the kernel and solver tests compare against.

No run of shelab needs it, so it lives beside its callers and keeps scipy
(``ndtr`` for indicators, adaptive quadrature for expressions) out of the
runtime dependencies.
"""

import math

from scipy import integrate
from scipy.special import ndtr

from shelab import expr as _expr
from shelab.kernel import InitialCondition, _check_time, heat_kernel

# 12 standard deviations: Gaussian tail mass < 1e-31, far below every
# tolerance used here, so finite windows are safe for all quadrature.
TAIL_WIDTH_SDS = 12.0


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def initial_convolution(u0: InitialCondition, t: float, x: float) -> float:
    """Heat-semigroup smoothing ``(p_t * u0)(x)`` of the initial profile.

    Closed form (Gaussian CDF differences) for constant and indicator
    profiles; adaptive quadrature with absolute tolerance 1e-9 otherwise.
    """
    _check_time(t)
    x = float(x)
    if u0.kind == "constant":
        return u0.value  # unit mass of the kernel
    sd = math.sqrt(t)
    if u0.kind == "indicator":
        a, b = u0.interval
        return float(ndtr((b - x) / sd) - ndtr((a - x) / sd))

    def integrand(y):
        return heat_kernel(t, y - x) * _expr.evaluate(u0.compiled, 0.0, y)

    lo, hi = x - TAIL_WIDTH_SDS * sd, x + TAIL_WIDTH_SDS * sd
    val, abserr = integrate.quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    if abserr > 1e-9:
        raise QuadratureError(f"convolution quadrature error {abserr:g} exceeds 1e-9 at (t={t}, x={x})")
    return float(val)
