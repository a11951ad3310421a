"""Line-protocol sessions: the interactive counterpart of stream replay.

A session accepts skeleton JSONL lines and answers with gesture-point lines;
a control line ``{"cmd": "snap", "strategy": "pick"|"place", ...}`` runs a
snap over the most recent N stabilized points and answers with one result
line ``{"ok": ..., "id": ..., "fallback": ...}``. Malformed input is answered
with ``{"err": ...}`` and never terminates the session.

``LiveServer`` serves any number of concurrent TCP sessions; each session
owns its pipeline state, while every session reads the same load-once
target/area tuples.
"""

from __future__ import annotations

import json
import socketserver
import threading

from .geometry import from_workplane
from .pipeline import HISTORY_CAPACITY, PipelineSettings
from .snap import (
    AreaRegistry,
    SnapError,
    SnapRequest,
    TargetRegistry,
    evaluate_request,
)
from .stabilizer import GesturePoint
from .stream import MalformedRecordError, decode_object, json_int, parse_frame, parse_intrinsics_header


def gesture_point_record(gp: GesturePoint, settings: PipelineSettings) -> str:
    """Serialize one stabilized point in the configured output frame."""
    if settings.frame_mode == "camera":
        world = from_workplane(gp.position, settings.frame)
        doc = {
            "t": gp.timestamp,
            "hand": gp.hand,
            "x": world.x,
            "y": world.y,
            "z": world.z,
            "window": gp.window_size,
        }
    else:
        doc = {
            "t": gp.timestamp,
            "hand": gp.hand,
            "u": gp.position.u,
            "v": gp.position.v,
            "window": gp.window_size,
        }
    return json.dumps(doc, separators=(",", ":"))


class LiveSession:
    """One connection's state: a pipeline plus the shared registries."""

    def __init__(
        self,
        settings: PipelineSettings,
        targets: TargetRegistry,
        areas: AreaRegistry,
    ) -> None:
        self.settings = settings
        self.targets = targets
        self.areas = areas
        self.pipeline = settings.make_pipeline()
        self.intrinsics = None

    def handle_line(self, line: str) -> list[str]:
        """Process one input line, returning response lines (possibly none)."""
        line = line.strip()
        if not line:
            return []
        try:
            obj = decode_object(line, MalformedRecordError)
            if "cmd" in obj:
                return [self._handle_command(obj)]
            if "intrinsics" in obj:
                self.intrinsics = parse_intrinsics_header(obj)
                return []
            frame = parse_frame(obj, self.intrinsics)
        except MalformedRecordError as exc:
            return [json.dumps({"err": str(exc)})]
        points = self.pipeline.process(frame)
        return [gesture_point_record(gp, self.settings) for gp in points]

    def _handle_command(self, obj: dict) -> str:
        if obj.get("cmd") != "snap":
            return json.dumps({"err": f"unknown command {obj.get('cmd')!r}"})
        hand = obj.get("hand", self.settings.hands[0])
        if hand not in self.settings.hands:
            return json.dumps({"err": f"hand {hand!r} not enabled"})
        n = json_int(obj.get("n", self.settings.snap_samples), MalformedRecordError, "snap n")
        if not 1 <= n <= HISTORY_CAPACITY:
            return json.dumps({"err": f"n must be an integer in 1..{HISTORY_CAPACITY}, got {n!r}"})
        group = obj.get("group", self.settings.group)
        samples = self.pipeline.recent(hand, n)
        if not samples:
            return json.dumps({"err": "no samples"})
        if len(samples) < n:
            return json.dumps({"err": f"insufficient samples: {len(samples)} of {n}"})
        request = SnapRequest(
            samples=tuple(samples), strategy=obj.get("strategy", "pick"), group_filter=group
        )
        try:
            result = evaluate_request(
                request,
                self.targets.snapshot(),
                self.areas.snapshot(),
                threshold=self.settings.threshold,
            )
        except SnapError as exc:  # unknown strategy, or nothing registered
            return json.dumps({"err": str(exc)})
        if result is None:
            return json.dumps({"ok": False, "id": None, "fallback": False})
        return json.dumps(
            {
                "ok": True,
                "id": result.selected_id,
                "fallback": result.fallback_used,
                "mean": [result.mean_point.u, result.mean_point.v],
                "max_dev": result.max_radial_deviation,
            }
        )


class _SessionHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        session = LiveSession(
            self.server.settings, self.server.targets, self.server.areas  # type: ignore[attr-defined]
        )
        for raw in self.rfile:
            try:
                responses = session.handle_line(raw.decode("utf-8", errors="replace"))
                for line in responses:
                    self.wfile.write(line.encode("utf-8") + b"\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                break


class _ThreadingServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class LiveServer:
    """TCP server running one LiveSession per connection."""

    def __init__(
        self,
        host: str,
        port: int,
        settings: PipelineSettings,
        targets: TargetRegistry | None = None,
        areas: AreaRegistry | None = None,
    ) -> None:
        self._server = _ThreadingServer((host, port), _SessionHandler)
        self._server.settings = settings  # type: ignore[attr-defined]
        self._server.targets = targets if targets is not None else TargetRegistry()  # type: ignore[attr-defined]
        self._server.areas = areas if areas is not None else AreaRegistry()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        """Release the listening socket; for foreground serving, where the
        serve loop has already returned (shutdown() would block)."""
        self._server.server_close()

    def shutdown(self) -> None:
        """Stop a background serve loop and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "LiveServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
