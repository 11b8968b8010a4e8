"""Group-and-shuffle structured matrices and their orthogonal parametrization."""

__version__ = "0.1.0"

from .blockdiag import BlockDiagonal, SkewGenerators, cayley, cayley_blockdiag, cayley_vjp
from .chain import (
    GSChain,
    butterfly_min_factors,
    flop_count,
    min_factors_dense,
    monarch_member,
    param_count,
    support_mask,
)
from .container import ContainerError, load_container, save_container
from .gs import GSClassSpec, GSMatrix, block_rank_map, gsoft_spec, project, svd_small, to_block_lowrank
from .gsconv import (
    ConvKernel,
    GSConvLayer,
    conv_as_matrix,
    conv_exponential,
    grouped_conv,
    gs_conv_forward,
    maxmin,
    maxmin_permuted,
    skew_kernel,
)
from .gsoft import (
    DoubleGSOFTAdapter,
    GSOFTAdapter,
    fit_blockdiag_target,
    fit_orthogonal_target,
    load_adapter,
    save_adapter,
)
from .ortho import (
    OrthoGSParams,
    is_orthogonal,
    materialize,
    materialize_vjp,
    orthogonalize_representation,
)
from .perm import Permutation, identity_perm, paired_stride_perm, stride_perm
