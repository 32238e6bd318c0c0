"""IMA contrast for mixing functions onto embedded manifolds.

Measures how far the columns of a rectangular Jacobian are from
orthogonal, builds the mixing-function families and spurious solutions
that the contrast separates, and runs the desk-scale Monte Carlo
experiments (concentration, genericity, contrast gaps, invariances).
"""

__version__ = "0.1.0"

from .contrast import (
    hadamard_gap_upper_bound,
    local_ima_contrast,
    offdiag_coherence,
    theoretical_success_bound,
)
from .distributions import (
    Chi,
    FactorialDistribution,
    Gaussian,
    Laplace,
    SphericalSampler,
    TabulatedBeta,
    Uniform,
    sample_isotropic_matrix,
)
from .experiments import (
    ContrastEstimate,
    concentration_sweep,
    estimate_global_contrast,
    genericity_experiment,
    reparam_invariance_check,
    spurious_gap_experiment,
)
from .mixing import (
    ComposedMap,
    ConformalMap,
    LinearMap,
    SmoothGridMap,
    TwoPieceMap,
    injectivity_probe,
    jacobian_fd,
    make_two_piece,
    random_conformal_map,
    sample_grid_map,
    smooth_step,
    smooth_step_deriv,
)
from .mpa import (
    DarmoisMap,
    RotatedGaussianMPA,
    rotation_matrix_2d,
    spurious_darmois,
    spurious_mpa,
)

__all__ = [
    "__version__",
    "hadamard_gap_upper_bound",
    "local_ima_contrast",
    "offdiag_coherence",
    "theoretical_success_bound",
    "Chi",
    "FactorialDistribution",
    "Gaussian",
    "Laplace",
    "SphericalSampler",
    "TabulatedBeta",
    "Uniform",
    "sample_isotropic_matrix",
    "ContrastEstimate",
    "concentration_sweep",
    "estimate_global_contrast",
    "genericity_experiment",
    "reparam_invariance_check",
    "spurious_gap_experiment",
    "ComposedMap",
    "ConformalMap",
    "LinearMap",
    "SmoothGridMap",
    "TwoPieceMap",
    "injectivity_probe",
    "jacobian_fd",
    "make_two_piece",
    "random_conformal_map",
    "sample_grid_map",
    "smooth_step",
    "smooth_step_deriv",
    "DarmoisMap",
    "RotatedGaussianMPA",
    "rotation_matrix_2d",
    "spurious_darmois",
    "spurious_mpa",
]
