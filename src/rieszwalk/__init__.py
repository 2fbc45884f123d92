"""Exact Verblunsky data and quantum-walk dynamics for the Riesz measure.

The package namespace holds the exact layer only (``series``, ``riesz``,
``schur``, ``ansatz``), which is pure Python: importing it never imports
numpy.  The numeric layer is imported from ``rieszwalk.cmv`` and
``rieszwalk.walk``.
"""

from .series import (
    NonzeroConstantTerm,
    TruncatedSeries,
    ZeroConstantTerm,
)
from .riesz import MeasureVariant, caratheodory_series, moment, signed_quartic_digits
from .schur import (
    FirstReturnSeries,
    InsufficientPrecision,
    ParameterOutOfDisk,
    PrecisionExhausted,
    cumulative_return_probability,
    extract_verblunsky,
    first_return_series,
    renewal_first_return,
    schur_from_caratheodory,
)
from .ansatz import (
    IndexDecomposition,
    LimitFamilies,
    VerificationReport,
    alpha,
    backbone,
    backbone_constant,
    decompose_index,
    limit_values,
    nonzero_alpha,
    verify_ansatz,
)

__all__ = [
    "FirstReturnSeries",
    "IndexDecomposition",
    "InsufficientPrecision",
    "LimitFamilies",
    "MeasureVariant",
    "NonzeroConstantTerm",
    "ParameterOutOfDisk",
    "PrecisionExhausted",
    "TruncatedSeries",
    "VerificationReport",
    "ZeroConstantTerm",
    "alpha",
    "backbone",
    "backbone_constant",
    "caratheodory_series",
    "cumulative_return_probability",
    "decompose_index",
    "extract_verblunsky",
    "first_return_series",
    "limit_values",
    "moment",
    "nonzero_alpha",
    "renewal_first_return",
    "schur_from_caratheodory",
    "signed_quartic_digits",
    "verify_ansatz",
]

__version__ = "0.1.0"
