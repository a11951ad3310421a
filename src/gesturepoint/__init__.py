"""gesturepoint: localize pointed targets on a planar workspace from skeleton
keypoint streams, and select targets/areas from the stabilized points."""

__version__ = "0.1.0"

from .geometry import (
    CameraIntrinsics,
    PlanarPoint,
    Plane,
    Point3,
    Quaternion,
    Vec3,
    WorkplaneFrame,
    deproject,
    from_workplane,
    intersect_ray_plane,
    plane_from_corners,
    point_in_bounds,
    project,
    to_workplane,
    workplane_frame,
)
from .pipeline import GesturePipeline
from .snap import (
    Area,
    AreaRegistry,
    SnapRequest,
    SnapResult,
    Target,
    TargetRegistry,
    evaluate_request,
    pick_snap,
    place_snap,
    stability_gate,
)
from .stabilizer import GesturePoint, RunningAverageStabilizer
from .stream import (
    ArmRay,
    GestureScenario,
    KeypointFrame,
    arm_ray,
    generate_scenario,
    parse_frame,
    serialize_frame,
)

__all__ = [
    "__version__",
    "Area",
    "AreaRegistry",
    "ArmRay",
    "CameraIntrinsics",
    "GesturePipeline",
    "GesturePoint",
    "GestureScenario",
    "KeypointFrame",
    "PlanarPoint",
    "Plane",
    "Point3",
    "Quaternion",
    "RunningAverageStabilizer",
    "SnapRequest",
    "SnapResult",
    "Target",
    "TargetRegistry",
    "Vec3",
    "WorkplaneFrame",
    "arm_ray",
    "deproject",
    "evaluate_request",
    "from_workplane",
    "generate_scenario",
    "intersect_ray_plane",
    "parse_frame",
    "pick_snap",
    "place_snap",
    "plane_from_corners",
    "point_in_bounds",
    "project",
    "serialize_frame",
    "stability_gate",
    "to_workplane",
    "workplane_frame",
]
