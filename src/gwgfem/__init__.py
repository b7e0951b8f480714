"""Generalized weak Galerkin finite elements for planar linear elasticity.

Weak functions pair element-interior fields with single-valued edge
fields; generalized weak gradients and divergences add a constant
per-element correction driven by the boundary jump through an edge
operator R_b.  Interior spaces may be vector linears or activation spans
with random per-element parameters; the discretization is locking-free
for admissible (edge space, R_b) pairs.
"""

from .assembly import (
    DiscreteSystem,
    DofMap,
    apply_dirichlet,
    assemble,
    extract_solution,
    interpolate,
    seminorm,
)
from .cli import RunConfig, check_assumptions, run_convergence
from .mesh import (
    Mesh2D,
    QuadratureRule,
    build_rectangular,
    build_triangular,
    dump_mesh,
    element_quadrature,
)
from .postproc import (
    ConvergenceReport,
    ErrorNorms,
    ManufacturedCase,
    emit,
    error_norms,
    manufactured,
    rates,
)
from .solver import SolveReport, solve, solve_system
from .spaces import (
    BoundarySpaceConfig,
    ElementRandomParams,
    InteriorSpaceConfig,
    SpaceSet,
    build_spaces,
    eval_boundary,
    eval_interior,
    grad_interior,
    parse_boundary,
    parse_interior,
)
from .weakops import (
    EdgeRule,
    ElementKernel,
    RbOperator,
    WeakFunction,
    check_rb_injectivity,
    check_rigid_motion_invariance,
    edge_rule,
    parse_rb,
)

__version__ = "0.1.0"
