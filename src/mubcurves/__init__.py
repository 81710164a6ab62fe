"""Discrete-phase-space curves and mutually unbiased bases for n qubits."""

from .field import GF2n, make_field, field_from_config
from .curves import (
    ParametricCurve,
    ExplicitCurve,
    StructuralEquation,
    CurveClassification,
    point_set,
    classify_points,
    explicit_form,
    explicit_curve,
    structural_equations,
    exceptional_equal,
    exceptional_unequal,
    enumerate_curves,
    nonintersecting,
    all_nonintersecting,
    atlas_size,
)
from .bundles import (
    Bundle,
    make_bundle,
    ray_bundle,
    build_regular_bundle,
    closure_bundle,
    search_bundles,
)
from .pauli import (
    factorization_partition,
    bundle_structure,
    transform_curve,
)
from .verify import (
    MubBasis,
    eigenbasis,
    check_unbiased,
    check_trace_orthogonality,
    verify_bundle,
    verify_atlas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
