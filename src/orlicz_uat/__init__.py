"""Gauge norms on discrete measures, Young-function algebra, exact ReLU
constructions, and distributionally robust approximation experiments."""

from .box import Box
from .errors import (AbsoluteContinuityError, BracketingError, FitSolverError,
                     HypothesisViolation, OrliczError, UnboundedConjugateError,
                     ValidationError)
from .fit import (TargetFunction, constant, draw_features, fit_random_features,
                  from_table, gaussian_blob, make_target, sin_product, smooth_step)
from .measure import (DiscreteMeasure, MeasureFamily, make_discrete, radon_nikodym,
                      sample_empirical)
from .net import (AdditiveFamilyReport, AffineFamily, AffineMap, Layer,
                  LinearOnlyFamily, Network, RegisterNetwork,
                  WeightCompatReport, ZeroFamily, box_indicator, bump_1d,
                  check_additive_family, check_weight_compatibility,
                  clip_and_localize, identity_gadget, max_gadget, min_gadget,
                  quadratic_weight, quadratic_weight_scalar, to_register_form,
                  zero_network)
from .orlicz import (FunctionTable, GaugeNormResult, HolderReport, gauge_norm,
                     holder_check, l1_norm, modular)
from .robust import (CurveRow, DlvpCertificate, RobustReport, RobustRunResult,
                     approximation_curve, build_family, curve_csv_rows,
                     default_psi_candidates, dlvp_certificate, report_json_dict,
                     robust_error, run_robust_experiment, verify_robust_bound)
from .young import (YoungFunction, YoungInequalityReport,
                    check_young_inequality, complementary, entropy,
                    exp_minus_linear, power, tabulated)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
