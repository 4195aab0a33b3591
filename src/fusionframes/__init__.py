"""Tight p-fusion frames: construction, exact certification, Grassmannian
moment integrals, potential bounds, and Riemannian potential minimization."""

from .constructions import (
    ComplexLineSet,
    MatrixGroup,
    catalog,
    catalog_names,
    close_group,
    extend,
    invariance_check,
    load_generators,
    load_line_set,
    mub_lines_c2,
    orbit_frame,
    realify,
    save_generators,
    save_line_set,
    weyl_a2_group,
)
from .errors import (
    DimensionError,
    FrameFormatError,
    FusionFrameError,
    GroupTooLarge,
    LengthMismatch,
    MixedDimensions,
    NotAFrame,
    NotOrthogonal,
    ParameterError,
    RankDeficient,
    SingleSubspace,
    SizeGuardExceeded,
    UnknownName,
)
from .frames import (
    TightnessCertificate,
    WeightedFrame,
    analysis,
    build_frame,
    certify_tight,
    complement_frame,
    evaluate_power_form,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    load_frame,
    pochhammer_ratio,
    power_form,
    reconstruct,
    reweight_down,
    save_frame,
    synthesis,
    tightness_constant,
    union,
)
from .homogeneous import monomial_count, monomials
from .moments import (
    CubatureCertificate,
    TMatrix,
    certify_cubature,
    size_bounds,
    t_exact,
    t_matrix,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerTrace,
    SphereBounds,
    ffp_gradient,
    minimize_ffp,
    sphere_bounds,
    sphere_extrema,
)
from .potential import (
    EquiangularityReport,
    equiangularity,
    ffp,
    ffp_lower_bound_mixed,
    ffp_lower_bound_p,
    gram_matrix,
    max_offdiagonal,
    simplex_bound_rhs,
)
from .subspaces import complement, haar_basis_batch, make_subspace, principal_angles

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
