"""Line-protocol sessions: the interactive counterpart of stream replay.

A session accepts skeleton JSONL lines and answers with gesture-point lines;
a control line ``{"cmd": "snap", "strategy": "pick"|"place", ...}`` runs a
snap over the most recent N stabilized points and answers with one result
line ``{"ok": ..., "id": ..., "fallback": ...}``. Malformed input is answered
with ``{"err": ...}`` and never terminates the session; so is a line longer
than ``MAX_LINE_BYTES``, which is skipped without being held in memory.
The replies to the lines of one socket read go out together, in input order.
Gesture-point lines are written out by ``gesture_point_record``, with the
bytes ``json.dumps`` would give them.

``LiveServer`` serves any number of concurrent TCP sessions; each session
owns its pipeline state, while every session reads the same load-once
target/area tuples.
"""

from __future__ import annotations

import json
import socketserver
import threading

from .pipeline import HISTORY_CAPACITY, PipelineSettings
from .snap import (
    AreaRegistry,
    SnapError,
    SnapRequest,
    TargetRegistry,
    evaluate_request,
)
from .stabilizer import GesturePoint
from .stream import HANDS, MalformedRecordError, decode_object, json_int, parse_frame, parse_intrinsics_header

# the longest input line a session reads, its newline not counted; a longer
# one is skipped and answered with one {"err": ...}, so no line holds more
# than this much memory
MAX_LINE_BYTES = 64 * 1024
# the size of the one receive buffer each session reads the socket into
RECV_BYTES = 8 * 1024


# the JSON text of each hand name the pipeline accepts
_HAND_JSON = {hand: json.dumps(hand) for hand in HANDS}
_float_repr = float.__repr__  # json.dumps's float text, also for numpy floats


def gesture_point_record(gp: GesturePoint, settings: PipelineSettings) -> str:
    """Serialize one stabilized point in the configured output frame, as
    ``json.dumps(doc, separators=(",", ":"))`` would, written out directly;
    camera mode maps (u, v, z_residual) back as ``geometry.from_workplane``
    does. Coordinates must be finite floats (every point the pipeline emits
    is one); an int timestamp prints as an int."""
    t = gp.timestamp
    t = _float_repr(t) if isinstance(t, float) else json.dumps(t)
    hand = _HAND_JSON.get(gp.hand) or json.dumps(gp.hand)
    p = gp.position
    if settings.frame_mode == "camera":
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = settings.frame.rows
        o = settings.frame.origin
        u, v, w = p.u, p.v, p.z_residual
        x = _float_repr(o.x + (r00 * u + r01 * v + r02 * w))
        y = _float_repr(o.y + (r10 * u + r11 * v + r12 * w))
        z = _float_repr(o.z + (r20 * u + r21 * v + r22 * w))
        return f'{{"t":{t},"hand":{hand},"x":{x},"y":{y},"z":{z},"window":{gp.window_size}}}'
    return f'{{"t":{t},"hand":{hand},"u":{_float_repr(p.u)},"v":{_float_repr(p.v)},"window":{gp.window_size}}}'


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


def _send(sock, replies: list[str]) -> None:
    if replies:
        sock.sendall(("\n".join(replies) + "\n").encode("utf-8"))


class _SessionHandler(socketserver.BaseRequestHandler):
    """Reads the socket into one reused buffer, splits each read into lines
    and answers all of a read's lines with one ``sendall``, in input order.
    A line that spans reads builds up in ``partial``, never past the cap;
    beyond it the rest of the line is dropped up to its newline."""

    server: LiveServer

    def handle(self) -> None:
        handle_line = LiveSession(self.server.settings, self.server.targets, self.server.areas).handle_line
        sock = self.request
        buf = bytearray(RECV_BYTES)
        view = memoryview(buf)
        partial = bytearray()
        skipping = False  # inside a line already past the cap
        too_long = json.dumps({"err": f"line longer than {MAX_LINE_BYTES} bytes"})
        try:
            while n := sock.recv_into(buf):
                replies: list[str] = []
                start = 0
                while (end := buf.find(b"\n", start, n)) >= 0:
                    if skipping:
                        skipping = False
                        replies.append(too_long)
                    elif len(partial) + end - start > MAX_LINE_BYTES:
                        partial.clear()
                        replies.append(too_long)
                    elif partial:
                        partial += view[start:end]
                        replies += handle_line(str(partial, "utf-8", "replace"))
                        partial.clear()
                    else:
                        replies += handle_line(str(view[start:end], "utf-8", "replace"))
                    start = end + 1
                if start < n and not skipping:
                    if len(partial) + n - start > MAX_LINE_BYTES:
                        partial.clear()
                        skipping = True
                    else:
                        partial += view[start:n]
                _send(sock, replies)
            # an unterminated last line is answered at EOF
            if skipping:
                _send(sock, [too_long])
            elif partial:
                _send(sock, handle_line(str(partial, "utf-8", "replace")))
        except ConnectionError:  # the client went away
            pass


class LiveServer(socketserver.ThreadingTCPServer):
    """TCP server running one LiveSession per connection. Its ``with`` form
    serves from a background thread and shuts the server down on exit."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str,
        port: int,
        settings: PipelineSettings,
        targets: TargetRegistry | None = None,
        areas: AreaRegistry | None = None,
    ) -> None:
        self.settings = settings
        self.targets = targets if targets is not None else TargetRegistry()
        self.areas = areas if areas is not None else AreaRegistry()
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _SessionHandler)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def __enter__(self) -> "LiveServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
