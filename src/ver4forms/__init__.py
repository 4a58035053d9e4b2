"""Exact bilinear and quadratic form classification on K[t]/(t^2)-modules
with the braiding twisted by R = 1 (x) 1 + t (x) t, over GF(2^k).
"""

import importlib

from .bform import BilinearForm, Subobject, standard_subobject
from .classify import (
    CanonicalClass,
    GoodPairSpace,
    InternalCheckError,
    canonical_rep,
    canonicalize,
    canonicalize_batch,
    class_inventory,
    classify,
    classify_batch,
    form_invariant,
    good_pairs,
    x_function,
    x_matrix,
)
from .field import Field, make_field
from .verobj import (
    Morphism,
    RawTModule,
    VerObject,
    braiding,
    check_r_matrix_axioms,
    dual,
    hexagons_hold,
    random_equivariant_automorphism,
    random_equivariant_matrix,
    standard_basis,
    tensor,
    tensor_raw,
    unit_object,
)

# `classify` and `canonicalize` call nothing in `divided`, `witt` or `oracle`, so their
# exports load on first use: `__getattr__` imports the module and binds the name here
_LAZY = {
    **dict.fromkeys("Gamma2Basis QuadraticForm a2_iso_check beta_q classify_quadratic frobenius_twist_rank gamma2 "
                    "gamma2_dim_formula hyperbolic_quadratic quad_from_parts quad_product quad_restrict quad_sum "
                    "quad_transform quadratic_from_bilinear".split(), "divided"),
    **dict.fromkeys("direct_sum emit_tables expected_product_class expected_sum_class table_cell tensor_product "
                    "tensor_product_via_braiding".split(), "witt"),
    **dict.fromkeys("OrbitReport enumerate_forms orbit_classes".split(), "oracle"),
}


def __getattr__(name: str):
    if name in _LAZY.values():  # the submodule itself, as in `ver4forms.witt`
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "BilinearForm",
    "CanonicalClass",
    "Field",
    "GoodPairSpace",
    "InternalCheckError",
    "Morphism",
    "RawTModule",
    "Subobject",
    "VerObject",
    "braiding",
    "canonical_rep",
    "canonicalize",
    "canonicalize_batch",
    "check_r_matrix_axioms",
    "class_inventory",
    "classify",
    "classify_batch",
    "dual",
    "form_invariant",
    "good_pairs",
    "hexagons_hold",
    "make_field",
    "random_equivariant_automorphism",
    "random_equivariant_matrix",
    "standard_basis",
    "standard_subobject",
    "tensor",
    "tensor_raw",
    "unit_object",
    "x_function",
    "x_matrix",
    *_LAZY,
]

__version__ = "0.1.0"
