"""Rolling maps of semi-Riemannian symmetric spaces and Stiefel manifolds.

The package computes intrinsic and extrinsic rolling of a curved space on
its flat tangent development inside a sign-diagonal ambient space, checks
the defining no-slip/no-twist conditions numerically, and ships concrete
models (hyperboloid, sphere, pseudo-orthogonal groups, Stiefel manifolds)
plus a small command-line front end.
"""

from .linalg import (
    RigidMotion,
    SignatureForm,
    is_oriented_isometry,
    se_act,
    se_compose,
    se_inverse,
)
from .integrate import TimeGrid, flow_matrix_ode, integrate_vector, reproject
from .rolling import (
    ResidualReport,
    RollingMapPath,
    RollingTriple,
    TangentFramePath,
    compose_rolling,
    invert_rolling,
    no_slip_residual,
    no_twist_residuals,
    parallel_transport_embedded,
    perturb_normal_generator,
    rolling_condition_residuals,
    rolling_point_residual,
    tangency_residual,
)
from .homogeneous import (
    CartanModel,
    ControlCurve,
    EmbeddedCurve,
    GroupPath,
    extrinsic_develop,
    extrinsic_roll,
    horizontal_lift,
    intrinsic_roll,
    model_residual_report,
    transport_homogeneous,
)

__version__ = "0.1.0"

__all__ = [
    "SignatureForm",
    "RigidMotion",
    "se_act",
    "se_compose",
    "se_inverse",
    "is_oriented_isometry",
    "TimeGrid",
    "flow_matrix_ode",
    "integrate_vector",
    "reproject",
    "TangentFramePath",
    "RollingMapPath",
    "RollingTriple",
    "ResidualReport",
    "rolling_point_residual",
    "tangency_residual",
    "no_slip_residual",
    "no_twist_residuals",
    "rolling_condition_residuals",
    "invert_rolling",
    "compose_rolling",
    "perturb_normal_generator",
    "parallel_transport_embedded",
    "CartanModel",
    "ControlCurve",
    "EmbeddedCurve",
    "GroupPath",
    "horizontal_lift",
    "transport_homogeneous",
    "intrinsic_roll",
    "extrinsic_develop",
    "extrinsic_roll",
    "model_residual_report",
    "__version__",
]
