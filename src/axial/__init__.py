"""Exact-arithmetic toolkit for axial algebras.

Construct algebras from structure constants or from 3-transposition data,
find and certify axes against fusion laws, and bound automorphism groups via
joint eigenspace decompositions, extension spaces and sign kernels.
"""

from axial._backend import kernel_backend
from axial.algebra import (
    Algebra,
    AlgebraError,
    DegenerateFormError,
    MissingFormError,
    MissingUnitError,
    diagonal_algebra,
)
from axial.axet import (
    Axet,
    AutGroup,
    MiyGroup,
    PairClass,
    aut_from_axis_permutations,
    classify_pair,
    close_axet,
    fixed_subalgebra,
    jordan_axes,
    miyamoto_group,
    tau_realizer,
    twins_of,
)
from axial.decomp import (
    ExtensionSpace,
    JointDecomposition,
    PairingProbe,
    SignKernelResult,
    SquareProbe,
    complement_in,
    decompose_joint,
    extension_space,
    generate_probes,
    partial_decomposition,
    sign_kernel,
)
from axial.fusion import (
    Axis,
    FusionLaw,
    MONSTER_QUARTER,
    NS_UNIT_LENGTHS,
    check_axis,
    check_axis_verbose,
    derivation_space,
    infer_fusion_law,
    is_automorphism,
    jordan_law,
    monster_law,
)
from axial.groebner import (
    CapExceeded,
    ConstantCertificate,
    NotZeroDimensional,
    SolveResult,
    SolverCaps,
    buchberger,
    certify_no_common_root,
    content_primes,
    enumerate_points,
    ideal_dimension_zero,
    is_groebner_basis,
    normal_form,
)
from axial.linalg import (
    IntegerMap,
    Mat,
    Subspace,
    Vec,
    eigenspace,
    frac,
    intersect,
    kernel,
    mat,
    perp_space,
    rref,
    vec,
)
from axial.matsuo import (
    FlipResult,
    ThreeTranspositionData,
    double_axes_and_flip,
    matsuo_algebra,
    symmetric_transpositions,
)
from axial.mpoly import MPoly
from axial.search import (
    NuancedSearchResult,
    SearchConfig,
    Z_LENGTHS,
    axes_from_idempotents,
    determinant_relation,
    naive_idempotents,
    nuanced_axes,
)

__version__ = "0.1.0"
