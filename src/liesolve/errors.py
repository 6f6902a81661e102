"""Exception hierarchy shared by all liesolve modules."""


class LiesolveError(Exception):
    """Base class for every error raised by this package."""


# --- special functions ---------------------------------------------------

class PoleError(LiesolveError, ValueError):
    """Evaluation requested exactly at a pole (e.g. gamma at 0, -1, -2, ...)."""


class DivergenceError(LiesolveError, ArithmeticError):
    """Series / continued fraction failed to converge within the iteration cap
    (or a spectral ODE factor within its degree cap), or the arguments fall
    outside the supported parameter box."""


class DomainError(LiesolveError, ValueError):
    """Arguments outside the mathematical domain of the requested function."""


class SpecfunDomain(DomainError):
    """A closed-form factor requests special-function values outside the
    supported box."""


# --- expression language --------------------------------------------------

class ExprSyntaxError(LiesolveError, SyntaxError):
    """Parse failure; carries the byte offset and the expected token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(sorted(expected))

    def __str__(self):
        base = super().__str__()
        if self.expected:
            return f"{base} at offset {self.offset} (expected {', '.join(self.expected)})"
        return f"{base} at offset {self.offset}"


class UnboundSymbol(LiesolveError, KeyError):
    """Evaluation hit a variable/parameter/opaque function with no binding."""


class EvalDomainError(LiesolveError, ArithmeticError):
    """Division by zero, log of a non-positive number, and similar."""


class AmbiguousMatch(LiesolveError):
    """Two or more templates fit within tolerance; carries all of them."""

    def __init__(self, matches):
        super().__init__(f"{len(matches)} templates fit within tolerance")
        self.matches = list(matches)


# --- transform ------------------------------------------------------------

class OutOfRange(LiesolveError, ValueError):
    """(x, y) is not attained by the coordinate map."""


class QuadratureFailure(LiesolveError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class GaugeObstruction(LiesolveError):
    """curl Q exceeds tolerance somewhere: the scalar gauge is ill-defined."""

    def __init__(self, message, gauge=None):
        super().__init__(message)
        self.gauge = gauge


class AlphaOne(LiesolveError, ValueError):
    """alpha = 1 is the lognormal special case, excluded from the CEV chain."""


# --- symmetry / reductions -------------------------------------------------

class SamplingError(LiesolveError, ValueError):
    """Sampling region intersects a singular locus."""


class SingularPoint(LiesolveError, ValueError):
    """Similarity map evaluated on its singular locus."""


class UnsupportedF1Form(LiesolveError, ValueError):
    """The time-scaling group action is only integrated for the linear form."""


class NotRadialPotential(LiesolveError, ValueError):
    """Rotation-derived solutions need a potential of the radial c*(x^2+y^2) type."""


class NoClosedForm(LiesolveError):
    """The catalog provides a reduced operator but no closed-form factors."""


# --- verification ----------------------------------------------------------

class UnstableConfig(LiesolveError, ValueError):
    """Time step / grid combination fails the growth-factor check."""


class BoundaryContamination(LiesolveError, Warning):
    """Boundary influence reaches the comparison subregion (warning category)."""


class PathExplosion(LiesolveError, ArithmeticError):
    """More simulated paths exceeded the cap than the configuration allows."""


class DomainMismatch(LiesolveError, ValueError):
    """compare() received oracles on incompatible domains."""


class ConfigError(LiesolveError, ValueError):
    """Run configuration failed schema validation; message carries JSON pointers."""
