"""Gauge norms on discrete measures, Young-function algebra, exact ReLU
constructions, and distributionally robust approximation experiments."""

from .box import Box
from .errors import (AbsoluteContinuityError, BracketingError, FitSolverError,
                     HypothesisViolation, OrliczError, UnboundedConjugateError,
                     ValidationError)
from .fit import (TargetFunction, constant, draw_features, fit_random_features,
                  gaussian_blob, make_target, sin_product, smooth_step)
from .measure import DiscreteMeasure, MeasureFamily, make_discrete, sample_empirical
from .net import (Layer, Network, RegisterNetwork, box_indicator, bump_1d, clip_and_localize,
                  identity_gadget, max_gadget, min_gadget, to_register_form, zero_network)
from .orlicz import FunctionTable, GaugeNormResult, gauge_norm, l1_norm, modular
from .robust import (CurveRow, DlvpCertificate, RobustReport, RobustRunResult,
                     approximation_curve, build_family, curve_csv_rows,
                     default_psi_candidates, dlvp_certificate, report_json_dict,
                     robust_error, run_robust_experiment, verify_robust_bound)
from .young import (YoungFunction, complementary, entropy, exp_minus_linear, power,
                    tabulated)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
