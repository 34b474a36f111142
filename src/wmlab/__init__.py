"""Gaussian random fields on the unit interval via B-spline Galerkin
discretization, with kriging under covariance misspecification and
operator-comparison diagnostics.

The package is organized around a small pipeline:

``model_config``
    coefficient fields and validated model specifications;
``fem1d``
    B-spline bases, boundary constraints, and bilinear-form assembly;
``spectral``
    generalized eigendecompositions, covariance square roots F with
    C = F F' (spectral and direct routes), fractional inverses, sampling;
``matern``
    modified Bessel functions and the stationary Matern covariance used
    as an analytic cross-check;
``matio``
    the WMLABMAT binary matrix format and ``write_csv``, the one writer
    of every CSV artifact;
``kriging``
    prediction error variances under correct and misspecified models,
    efficiency curves for point and integral observation designs;
``diagnostics``
    cross-operator comparisons (Hilbert-Schmidt curves, norm-equivalence
    constants) and the exponent/boundary decision rules for equivalence
    and asymptotic optimality;
``cli``
    the ``wmlab`` experiment runner.

Each module lists its public names in ``__all__``; the package
re-exports exactly those (``cli`` excepted), and ``wmlab.__all__`` is
their concatenation.
"""

__version__ = "0.1.0"

from . import diagnostics, errors, fem1d, kriging, matern, matio, model_config, spectral
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fem1d import *  # noqa: F401,F403
from .kriging import *  # noqa: F401,F403
from .matern import *  # noqa: F401,F403
from .matio import *  # noqa: F401,F403
from .model_config import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *errors.__all__,
    *model_config.__all__,
    *fem1d.__all__,
    *spectral.__all__,
    *matern.__all__,
    *matio.__all__,
    *kriging.__all__,
    *diagnostics.__all__,
]
