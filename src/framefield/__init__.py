"""Tight and orthogonal wavelet frames over Laurent-series local fields.

The field GF(q)((t)) is modeled exactly (finite Laurent polynomials over
GF(q)), masks are finite generalized-Walsh polynomials, and every frame
condition is certified by sweeping coset-representative grids on which the
identities hold exactly.

Modules
-------
galois      exact GF(p^c) digit arithmetic
localfield  field elements, the coset map u(n), characters, grids
mask        masks, modulation/polyphase matrices, condition checkers
construct   canonical banks, paraunitary matrices, pair/family algorithms
verify      cascade, discrete transforms, Parseval/orthogonality experiments
cli         the ``framefield`` command-line tool
"""

from .galois import FieldParams, GFElem, gf_add, gf_from_digit, gf_mul, gf_proj0, gf_to_digit
from .localfield import (
    FieldElement,
    chi,
    chi_n,
    grid,
    index_add,
    index_sub,
    lf_add,
    lf_mul,
    u_map,
)
from .mask import (
    CheckReport,
    FilterBank,
    Mask,
    MatrixSample,
    check_mixed_orthogonality,
    check_polyphase_unitary,
    check_subqmf,
    check_uep,
    eval_mask,
    mask_mul,
    modulation_matrix,
    polyphase_matrix,
    polyphase_split,
)
from .construct import (
    FramePair,
    Paraunitary,
    compose,
    constant_paraunitary,
    delay_block,
    derive_pair,
    haar_bank,
    orthogonal_family,
)
from .verify import (
    HatGrid,
    analysis_step,
    cascade_phihat,
    mixed_frame_experiment,
    multiplier_orthogonality_check,
    parseval_experiment,
    partition_of_unity_check,
    synthesis_step,
)

__version__ = "0.1.0"
