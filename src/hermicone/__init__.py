"""Numerical workbench for SKT and balanced Hermitian metrics on invariant-form models."""

from .errors import (DegenerateDimension, DegreeOutOfRange, DimensionMismatch,
                     DirectionNotAdmissible, EmptyCone, HermiconeError,
                     InfeasibleStart, KernelJump, LineSearchFailure,
                     ModelInvalid, ModelNotUnimodular, NotBalanced,
                     NotPositive, NotPositiveDefinite, NotSKT, SchemaError,
                     StepTooLarge, ToleranceAmbiguity, ToleranceFailure,
                     UnknownCatalogName)
from .exterior import ExteriorAlgebra, Form, basis, random_form, wedge, wedge_power
from .model import (ComplexLieModel, StructureTerm, ValidationReport,
                    algebra_for, catalog, catalog_names, differential_matrices,
                    make_model, parse_model, serialize_model, validate_model)
from .metric import (HermitianMetric, OperatorBundle, build_bundle,
                     identity_suite, random_metric)
from .hodge import (MetricPredicates, TorsionReport, coimage_projector,
                    green_operator, harmonic_projector, image_projector,
                    kernel_dimension, potential, predicates, root_n_minus_1,
                    three_space_residuals, torsion_gamma, torsion_rho)
from .functionals import (FunctionalValue, eval_F, eval_F_tilde, eval_G,
                          eval_H, normalization_integral)
from .variation import (Direction, FunctionalVariation, ProjectorVariation,
                        VariationCheck, default_step, fd_derivative,
                        make_direction, metric_direction_of_volume, var_F,
                        var_F_tilde, var_G, var_H, var_harmonic_projector,
                        variation_battery)
from .optimizer import (ConstraintBasis, DescentTrace, IterationRecord,
                        constraint_basis, descend, real_block_basis)

__version__ = "0.1.0"
