"""Spectra of Hermitian x PSD products and eigenvalue-sum bound verification."""

from .bounds import (
    BoundReport,
    IndexSequence,
    Inertia,
    OstrowskiReport,
    count_selected_nonnegative,
    gap_bound,
    inertia_of,
    main_bound_report,
    main_bounds,
    ostrowski_ratios,
    pair_bounds,
    psd_product_bounds,
    selected_sum,
    stable_bounds,
    trace_bounds,
    wielandt_sum_bounds,
)
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    PSDMatrix,
    Spectrum,
    frobenius_norm,
    hermitian_eig,
    product_spectrum,
    psd_sqrt,
    validate_hermitian,
    validate_psd,
)
from .matfile import parse_matrix, write_matrix

# The campaign layer (harness) is loaded, and its names bound here, on first
# access: the CLI commands that do not run it start without it.
_HARNESS_NAMES = (
    "CampaignConfig",
    "CampaignReport",
    "GeneratorSpec",
    "Tolerances",
    "VerificationRecord",
    "gen_hermitian",
    "gen_psd",
    "run_campaign",
)

__all__ = [
    "BoundReport",
    "CampaignConfig",
    "CampaignReport",
    "EigenDecomposition",
    "GeneratorSpec",
    "HermitianMatrix",
    "IndexSequence",
    "Inertia",
    "OstrowskiReport",
    "PSDMatrix",
    "Spectrum",
    "Tolerances",
    "VerificationRecord",
    "count_selected_nonnegative",
    "frobenius_norm",
    "gap_bound",
    "gen_hermitian",
    "gen_psd",
    "hermitian_eig",
    "inertia_of",
    "main_bound_report",
    "main_bounds",
    "ostrowski_ratios",
    "pair_bounds",
    "parse_matrix",
    "product_spectrum",
    "psd_product_bounds",
    "psd_sqrt",
    "run_campaign",
    "selected_sum",
    "stable_bounds",
    "trace_bounds",
    "validate_hermitian",
    "validate_psd",
    "wielandt_sum_bounds",
    "write_matrix",
]


def __getattr__(name: str):
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness

    globals().update((n, getattr(harness, n)) for n in _HARNESS_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
