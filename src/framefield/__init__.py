"""Tight and orthogonal wavelet frames over Laurent-series local fields.

The field GF(q)((t)) is modeled exactly (finite Laurent polynomials over
GF(q)), masks are finite generalized-Walsh polynomials, and every frame
condition is certified by sweeping coset-representative grids on which the
identities hold exactly.

Modules
-------
galois      residue-field parameters and the field state of the kernels
localfield  field elements, the index group of u(n), grids
mask        masks, banks and frame pairs, grid evaluation, condition checkers
construct   canonical banks, paraunitary matrices, pair/family algorithms
verify      cascade, discrete transforms, Parseval/orthogonality experiments
reference   the per-point reference route: exact arithmetic, characters,
            mask values and matrices at one point; no command imports it
cli         the ``framefield`` command-line tool
"""

from importlib import import_module

# public name -> the module that defines it; a name's module is imported on
# first access, so a command imports only the modules it runs
_EXPORTS = {
    "FieldParams": "galois",
    **dict.fromkeys(("FieldElement", "index_add", "index_sub"), "localfield"),
    **dict.fromkeys(
        ("CheckReport", "FilterBank", "FramePair", "Mask", "check_mixed_orthogonality",
         "check_polyphase_unitary", "check_subqmf", "check_uep", "mask_mul"),
        "mask",
    ),
    **dict.fromkeys(
        ("Paraunitary", "compose", "constant_paraunitary", "delay_block", "derive_pair",
         "haar_bank", "orthogonal_family"),
        "construct",
    ),
    **dict.fromkeys(
        ("HatGrid", "analysis_step", "cascade_phihat", "mixed_frame_experiment",
         "multiplier_orthogonality_check", "parseval_experiment", "partition_of_unity_check",
         "synthesis_step"),
        "verify",
    ),
    **dict.fromkeys(
        ("GFElem", "MatrixSample", "chi", "chi_n", "eval_mask", "gf_add", "gf_from_digit",
         "gf_mul", "gf_proj0", "gf_to_digit", "grid", "lf_add", "lf_mul", "modulation_matrix",
         "polyphase_matrix", "polyphase_split", "u_map"),
        "reference",
    ),
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
