"""Validated numerics for alpha-patch contour dynamics.

Rigorous pieces: outward-rounded interval arithmetic, order-4 interval jets,
the bump/sine proof curve with certified derivative hulls, bisection sign
certificates, Gauss-Legendre enclosures with an explicit remainder, the
curvature-derivative integrand families, and the work-queue driver for the
convexity certificates.  Floating-point piece: a spectral contour-dynamics
simulator for patch boundaries.
"""

from .interval import (
    Interval,
    SignOutcome,
    IntervalError,
    DivisionByZeroInterval,
    DomainViolation,
    EndpointOverflow,
    PI,
    TWO_PI,
)
from .jets import Jet4
from .curves import Bump, ZoneViolation, lemma_poly, hull_enclosure
from .signcheck import SignTask, SignResult, validate_sign
from .quadrature import Tolerance, QuadratureResult, NonEvaluable, gl2_enclosure, adaptive_integrate
from .integrands import (
    Regime,
    IntegrandSpec,
    make_kt_integrand,
    singular_residual,
    ellipse_rotation_integrand,
    ellipse_rotation_check,
)
from .pipeline import ParameterSet, RegionVerdict, StraddlesBoundary, regime_select, process, run_queue

__version__ = "0.1.0"
