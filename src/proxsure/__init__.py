"""Unrolled proximal networks for linear inverse problems with
SURE-based generalization analysis (RSS + DOF) and numerical
verification of the degrees-of-freedom theory."""

from .config import ExperimentConfig, parse_config
from .data import (
    Dataset,
    add_noise,
    generate_sparse_data,
    generate_subspace_data,
    load_dataset,
    sample_correlation,
    save_dataset,
)
from .jacobian import (
    JacobianReport,
    PathTable,
    PathTerm,
    accumulate_jacobian,
    jacobian_report,
    jacobian_trace_exact,
    path_expansion,
    path_surrogates,
    path_table,
)
from .network import (
    ProximalStack,
    forward_map,
    load_stack,
    random_stack,
    save_stack,
    unroll_forward,
)
from .operators import (
    SensingOperator,
    StepParams,
    apply_operator,
    circular_operator,
    dense_operator,
    dft_operator,
    gram_matrix,
    identity_operator,
    step_matrices,
)
from .risk import (
    SureReport,
    dof_finite_difference,
    dof_monte_carlo,
    mse_psnr,
    rss,
    sure,
    sure_report,
)
from .spectrum import spectrum
from .sweep import report_plots, run_cell, run_sweep
from .train import (
    TrainRunResult,
    adam_step,
    loss_and_gradients,
    mask_fixed_point,
    fixed_point_jacobian,
    pca_closed_form,
    projection_objective,
    train,
)

__version__ = "0.1.0"
