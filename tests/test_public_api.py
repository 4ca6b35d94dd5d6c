"""The package's public surface: exactly the names the CLI, the document
loader and the acceptance criteria use, each bound by a star import."""

import fuzzymetrics

PUBLIC = {
    "Certificate", "Document", "FiniteSet", "FuzzyFamily", "GeneratorTag", "InputError", "MetricSpace",
    "PlatformSet", "StepFuzzySet", "TOL", "Verdict", "alpha_cut", "cauchy_limit_construct", "cauchy_tail_profile",
    "closedness_witness", "crisp", "default_alpha_grid", "default_window", "directed_hausdorff",
    "endograph_convergence", "endograph_metric", "endograph_oracle", "eps_net", "erc_modulus", "finite_set",
    "fuzzy_family", "gamma_diagnostic", "hausdorff", "kuratowski_tail_diagnostic", "levelwise_profile",
    "load_document", "make_fuzzy", "metric_matrix", "p0_points", "parse_document", "platform_points",
    "rel_compact_send_report", "same_representation", "send_decomposition_check", "sendograph_metric",
    "sendograph_oracle", "strict_cut_closure", "support", "tail_verdict", "tb_end_report", "tb_send_report",
    "trend_verdict", "union_family", "validate_metric",
}

# the per-point API and the one-line wrappers that only tests called
REMOVED = ("Point", "membership", "levelwise_distance", "covering_number")


def test_all_is_the_public_set():
    assert len(fuzzymetrics.__all__) == len(PUBLIC)
    assert set(fuzzymetrics.__all__) == PUBLIC


def test_star_import_binds_each_public_name():
    namespace: dict = {}
    exec("from fuzzymetrics import *", namespace)
    assert all(namespace[name] is getattr(fuzzymetrics, name) for name in PUBLIC)


def test_removed_names_are_gone():
    assert not any(hasattr(fuzzymetrics, name) for name in REMOVED)
