"""Endograph, sendograph and levelwise Hausdorff metrics on finitely
represented fuzzy sets over metric spaces, with convergence diagnostics and
compactness-style certificates.

All values are immutable and all operations are pure, so everything here is
safe for concurrent use without coordination.
"""

from .certificates import Certificate, Verdict, default_window, tail_verdict, trend_verdict
from .common import InputError, TOL
from .document import Document, load_document, parse_document
from .families import (
    FuzzyFamily,
    GeneratorTag,
    cauchy_tail_profile,
    closedness_witness,
    erc_modulus,
    fuzzy_family,
    rel_compact_send_report,
    tb_end_report,
    tb_send_report,
)
from .fuzzy import (
    PlatformSet,
    StepFuzzySet,
    alpha_cut,
    crisp,
    make_fuzzy,
    p0_points,
    platform_points,
    same_representation,
    strict_cut_closure,
    support,
)
from .metrics import (
    default_alpha_grid,
    endograph_convergence,
    endograph_metric,
    endograph_oracle,
    gamma_diagnostic,
    levelwise_profile,
    metric_matrix,
    send_decomposition_check,
    sendograph_metric,
    sendograph_oracle,
)
from .sets import (
    FiniteSet,
    cauchy_limit_construct,
    directed_hausdorff,
    eps_net,
    finite_set,
    hausdorff,
    kuratowski_tail_diagnostic,
    union_family,
)
from .space import (
    MetricSpace,
    validate_metric,
)

__all__ = [
    "Certificate",
    "Document",
    "FiniteSet",
    "FuzzyFamily",
    "GeneratorTag",
    "InputError",
    "MetricSpace",
    "PlatformSet",
    "StepFuzzySet",
    "TOL",
    "Verdict",
    "alpha_cut",
    "cauchy_limit_construct",
    "cauchy_tail_profile",
    "closedness_witness",
    "crisp",
    "default_alpha_grid",
    "default_window",
    "directed_hausdorff",
    "endograph_convergence",
    "endograph_metric",
    "endograph_oracle",
    "eps_net",
    "erc_modulus",
    "finite_set",
    "fuzzy_family",
    "gamma_diagnostic",
    "hausdorff",
    "kuratowski_tail_diagnostic",
    "levelwise_profile",
    "load_document",
    "make_fuzzy",
    "metric_matrix",
    "p0_points",
    "parse_document",
    "platform_points",
    "rel_compact_send_report",
    "same_representation",
    "send_decomposition_check",
    "sendograph_metric",
    "sendograph_oracle",
    "strict_cut_closure",
    "support",
    "tail_verdict",
    "tb_end_report",
    "tb_send_report",
    "trend_verdict",
    "union_family",
    "validate_metric",
]
