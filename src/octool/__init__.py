"""Numerical toolkit for an integral transform with a hyperbolic weight and
for Hausdorff-type averaging operators built on it: special-function
evaluation, adaptive quadrature, the forward/inverse transform pair,
operator application, boundedness constants, and a verification harness."""

from .errors import (
    BudgetExhaustedError,
    DivergentIntegralError,
    KernelNotIntegrableError,
    MonotonicityError,
    NonConvergenceError,
    OctoolError,
    ParameterError,
    PoleError,
    QuadratureError,
    SingularityError,
    SupportError,
)
from .quad import (
    IntegralResult,
    QuadConfig,
    integrate,
    integrate_finite,
    panel_rule,
)
from .specfun import (
    ComplexEval,
    JacobiParams,
    c_function,
    eigenfunction_g,
    gauss_2f1,
    jacobi_phi,
    log_gamma_complex,
    log_weight_a,
    plancherel_density,
    weight_a,
    weight_ratio_extrema,
)
from .octransform import (
    FunctionSpec,
    apply_jacobi_cherednik,
    oc_inverse,
    oc_inverse_result,
    oc_transform,
    oc_transform_result,
    plancherel_residual_detailed,
    transform_grid,
)
from .hausdorff import (
    HausdorffImage,
    KernelSpec,
    commutation_residual,
    hausdorff_apply,
    hausdorff_apply_result,
    hausdorff_log_grid,
    make_kernel,
)
from .bounds import (
    NormResult,
    a_constants,
    b_constants,
    e_constant,
    extremal_function,
    grand_bound_constant,
    grand_norm,
    interval_measure,
    kernel_moment,
    lp_lq_constant,
    lp_norm,
    mphi_check,
    power_lemma_check,
)
from .harness_cli import (
    THEOREM_IDS,
    VerifyReport,
    VerifyScenario,
    build_default_suite,
    emit_report,
    run_scenario,
)

__version__ = "0.1.0"
