"""Numerical workbench for SKT and balanced Hermitian metrics on invariant-form models."""

import os as _os
import sys as _sys

# BLAS reads its thread count once, when numpy loads.  Report bits depend on it, and
# the small matrices here run slower threaded, so default to one thread unless the
# caller set it or a program loaded numpy first.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .errors import (DegreeOutOfRange, DimensionMismatch, DirectionNotAdmissible,
                     EmptyCone, HermiconeError, InfeasibleStart, ModelInvalid,
                     ModelNotUnimodular, NotBalanced, NotPositive, NotSKT,
                     SchemaError, StepTooLarge, ToleranceFailure, UnknownCatalogName)
from .exterior import ExteriorAlgebra, Form, random_form, wedge, wedge_power
from .model import (ComplexLieModel, StructureTerm, ValidationReport,
                    algebra_for, catalog, catalog_names, make_model, parse_model,
                    serialize_model, validate_model)
from .metric import (HermitianMetric, OperatorBundle, build_bundle,
                     identity_suite, random_metric)
from .hodge import (MetricPredicates, TorsionReport, coimage_projector,
                    green_operator, harmonic_projector, image_projector,
                    potential, predicates, root_n_minus_1,
                    three_space_residuals, torsion_gamma, torsion_rho)
from .functionals import (FunctionalValue, eval_F, eval_F_tilde, eval_G,
                          eval_H, normalization_integral)
from .variation import (Direction, FunctionalVariation, ProjectorVariation,
                        VariationCheck, default_step, fd_derivative,
                        first_variation, make_direction,
                        metric_direction_of_volume, var_harmonic_projector,
                        variation_battery)
from .optimizer import (ConstraintBasis, DescentTrace, IterationRecord,
                        constraint_basis, descend, real_block_basis)

__version__ = "0.1.0"
