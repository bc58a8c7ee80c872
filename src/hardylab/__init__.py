"""hardylab: a numerical laboratory for diffusion operators built from
vector-field frames, their Hardy-type inequalities, and the weighted
contractivity of the associated heat semigroups.

numpy is always needed.  scipy is needed only by the heat-semigroup API
(``evolve``, ``subcommutation_check``, ``contraction_trace``,
``ContractionTrace``, ``symmetry_defect``); those names are loaded from
``hardylab.semigroup`` on first use, so the rest of the package runs without
importing scipy.
"""

from .calculus import (Diffusion, FrameDiffusion, chain_rule_defect, eval_L,
                       gamma, gamma_definition_defect, gamma_w, ibp_defect)
from .catalog import (GeometrySpec, Weight, estimate_kappa, make_geometry,
                      make_weight)
from .conditions import (QcondReport, check_curvature, check_suffcond,
                         interior_powers, power_range, qcond_report)
from .errors import (DegenerateInputError, DomainError, NumericError,
                     PreconditionError, UsageError)
from .fields import (ConstField, CoordinateField, FuncField, NormField,
                     PolyField, ScalarField, SmoothMap, VectorField, with_fd)
from .grid import Grid, default_grid, integrate, make_grid
from .inequalities import (HardyReport, dilation_hardy_report,
                           dilation_log_hardy_report, estimate_best_constant,
                           funcineq_report, funcineqgeneral_report,
                           hardy_report, homogeneous_norm_report,
                           log_hardy_report, radial_hardy_report,
                           radial_log_hardy_report, rayleigh_ratio,
                           weighted_log_hardy_report)
from .operators import (dilation_operator, drifted_operator, radial_operator,
                        weighted_operator)
from .testfunctions import (bump_corpus, make_test_function, radial_bump,
                            smoothed_power, tensor_bump)

__version__ = "0.1.0"

# names re-exported from .semigroup, which imports scipy; loaded on first use
_SEMIGROUP_NAMES = ("ContractionTrace", "contraction_trace", "evolve",
                    "subcommutation_check", "symmetry_defect")


def __getattr__(name):
    if name in _SEMIGROUP_NAMES:
        from . import semigroup
        return getattr(semigroup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SEMIGROUP_NAMES])
