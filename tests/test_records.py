"""Record types that validate their fields do so whenever an instance is built:
by keyword, by position, through a classmethod, or inside a method that
returns a changed copy."""

import math

import pytest

from shelab.bounds import ProblemConstants
from shelab.grid import GridError, GridSpec
from shelab.kernel import InitialCondition


@pytest.mark.parametrize("build, error, message", [
    (lambda: ProblemConstants(drift_growth=-1.0), ValueError, "^drift_growth must be non-negative$"),
    (lambda: ProblemConstants(diffusion_growth=-0.5), ValueError, "^diffusion_growth must be non-negative$"),
    (lambda: ProblemConstants(1.0, 1.0, -1e-300), ValueError, "^u0_sup must be non-negative$"),
    (lambda: ProblemConstants(diffusion_sup=-2.0), ValueError, "^diffusion_sup must be non-negative$"),
    (lambda: GridSpec(R=2.0, dx=0.1, dt=0.005, T=0.1, boundary="neumann"), GridError, "^boundary must be one of"),
    (lambda: InitialCondition(kind="constant", value=1.0, bound=math.inf), ValueError, "finite sup-norm bound$"),
    (lambda: InitialCondition.from_expression("x", bound=math.nan), ValueError, "finite sup-norm bound$"),
], ids=["drift_growth", "diffusion_growth", "u0_sup", "diffusion_sup", "boundary", "u0_bound", "u0_expr_bound"])
def test_construction_rejects_each_invalid_field(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("drift_growth, diffusion_growth", [(16.0, 1.0), (0.0, 0.0)])
def test_inflated_constants_are_validated(drift_growth, diffusion_growth):
    checks = []

    class Counted(float):
        """A proof constant that records each ``> other`` comparison, as validation makes one."""

        def __gt__(self, other):
            checks.append(other)
            return float(self) > other

    constants = ProblemConstants(drift_growth, diffusion_growth, proof_constant=Counted(2.0))
    assert checks == [1]
    inflated = constants.inflate_diffusion_growth()
    assert type(inflated) is ProblemConstants and inflated.diffusion_growth > diffusion_growth
    assert inflated.proof_constant is constants.proof_constant
    assert checks == [1, 1]  # the changed copy was built anew, and validated
