"""Hyperbolic inverse mean curvature flow: solvers, closed forms, monitors.

The flow accelerates a convex hypersurface along its outward normal with
d^2X/dt^2 = nu / H.  This package implements the rotationally symmetric
reductions with their closed forms, the support-function PDE and an
independent Lagrangian solver for convex plane curves, and executable checks
of the structural identities (containment, length identities, outcome
classification).
"""
from .errors import (
    BracketViolation,
    CflViolation,
    ConvexityLost,
    DegenerateEdge,
    HimcfError,
    InsufficientData,
    InvalidConfig,
    InvalidForcing,
    InvalidInitialRadius,
    NotConvex,
    OriginNotInterior,
    OutOfDomain,
    PreconditionFailed,
)
from .flow import FlowConfig, FlowTrajectory, Termination, run_support_flow, run_support_flows
from .grids import AngleGrid, periodic_derivative
from .lagrangian import run_lagrangian_flow, tangential_velocity_max
from .monitors import (
    OutcomeInputs,
    OutcomeReport,
    check_containment,
    check_length_identities,
    check_simons_sphere,
    classify_outcome,
    comparison_horizon,
    curvature_evolution_residual,
    mean_curvature_acceleration_residual,
    metric_acceleration_residual,
    outcome_inputs_from_trajectory,
)
from .presets import (
    circle_curve,
    circle_support,
    cosine_series,
    ellipse_curve,
    ellipse_support,
    fourier_support,
)
from .radial import (
    CIRCLE,
    CYLINDER,
    ForcedRunReport,
    RadialGeometry,
    RadialTrajectory,
    RegimeReport,
    classify_regime,
    closed_form_radius,
    closed_form_velocity,
    forced_radial,
    integrate_radial_ode,
    sphere_geometry,
)
from .report import CheckRecord, MonitorReport, margin_record, residual_record
from .support import (
    PlaneCurve,
    SupportState,
    curvature_from_support,
    curve_to_support,
    length_from_support,
    support_to_curve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
