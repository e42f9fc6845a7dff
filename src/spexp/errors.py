"""Exception hierarchy shared by all modules. Each class carries the exit code
and the message label of its errors on the command line; subclasses inherit both."""


class SpexpError(Exception):
    """Base class for every error raised by this package: an input error."""

    exit_code = 2
    label = ""


class InvalidMatrix(SpexpError):
    """Input is not a finite 2-D complex matrix."""


class InvalidExponent(SpexpError):
    """Schatten/embedding exponent outside [1, inf)."""


class InvalidExponentOrder(SpexpError):
    """Inequality checker called with p < q."""


class InvalidDimension(SpexpError):
    """Zero or negative dimension where a positive count is required."""


class DimensionTooLarge(SpexpError):
    """Subspace dimension exceeds floor(n/2)."""

    exit_code = 3
    label = "infeasible configuration: "


class RankDeficient(SpexpError):
    """Matrix does not have full column rank."""


class ShapeMismatch(SpexpError):
    """Operands have incompatible shapes."""


class InvalidPermutation(SpexpError):
    """Sequence is not a bijection on range(n)."""


class InstanceTooLarge(SpexpError):
    """Exhaustive search requested beyond the supported size."""

    exit_code = 3
    label = "infeasible configuration: "


class UnsupportedStrategy(SpexpError):
    """Search strategy that the requested ratio mode does not support."""

    exit_code = 3
    label = "infeasible configuration: "


class InvalidParameters(SpexpError):
    """Infeasible or inconsistent construction parameters."""


class NotRegular(SpexpError):
    """Graph row/column sums are not all equal to d."""


class DisconnectedGraph(SpexpError):
    """Operation requires a connected graph."""


class DegenerateMetric(SpexpError):
    """Metric has a vanishing pair-sum (e.g. a single point)."""


class DegenerateEmbedding(SpexpError):
    """All images coincide; the expansion ratio is undefined."""


class NonSmoothConfiguration(SpexpError):
    """Smoothing epsilon = 0 requested with p < 2."""


class NumericalFailure(SpexpError):
    """Optimizer produced a non-finite objective."""

    exit_code = 4
    label = "numerical failure: "
