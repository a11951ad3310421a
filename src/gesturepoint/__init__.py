"""gesturepoint: localize pointed targets on a planar workspace from skeleton
keypoint streams, and select targets/areas from the stabilized points."""

__version__ = "0.1.0"

from .geometry import (
    CameraIntrinsics,
    PlanarPoint,
    Plane,
    Point3,
    Quaternion,
    WorkplaneFrame,
    deproject,
    from_workplane,
    plane_from_corners,
    to_workplane,
    workplane_frame,
)
from .pipeline import GesturePipeline
from .snap import (
    Area,
    AreaRegistry,
    SnapResult,
    Target,
    TargetRegistry,
    pick_snap,
    place_snap,
    stability_gate,
)
from .stabilizer import GesturePoint, RunningAverageStabilizer
from .stream import (
    parse_frame,
    serialize_frame,
)

__all__ = [
    "__version__",
    "Area",
    "AreaRegistry",
    "CameraIntrinsics",
    "GesturePipeline",
    "GesturePoint",
    "PlanarPoint",
    "Plane",
    "Point3",
    "Quaternion",
    "RunningAverageStabilizer",
    "SnapResult",
    "Target",
    "TargetRegistry",
    "WorkplaneFrame",
    "deproject",
    "from_workplane",
    "parse_frame",
    "pick_snap",
    "place_snap",
    "plane_from_corners",
    "serialize_frame",
    "stability_gate",
    "to_workplane",
    "workplane_frame",
]
