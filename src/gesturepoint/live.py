"""Line-protocol sessions: the interactive counterpart of stream replay.

A session accepts skeleton JSONL lines and answers with gesture-point lines;
a control line ``{"cmd": "snap", "strategy": "pick"|"place", ...}`` runs
``GesturePipeline.snap`` over exactly the most recent N stabilized points and
answers with one result line: ``snap.snap_fields``'s ``{"ok": ..., "id": ...,
"fallback": ...}``, plus ``mean`` and ``max_dev`` on a selection, or
``{"err": ...}`` when the hand has fewer than N points. Malformed input is
answered with ``{"err": ...}`` and never terminates the session.
``_split_lines`` states how a session cuts its socket reads into lines, and
caps their length; the replies to the lines of one read go out together, in
input order.
Gesture-point lines are written out by ``pipeline.gesture_point_record``,
with the bytes ``json.dumps`` would give them.

``LiveServer`` serves any number of concurrent TCP sessions from one
thread; each session owns its pipeline state, while every session reads the
same load-once target/area tuples.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading

from .pipeline import HISTORY_CAPACITY, PipelineSettings, gesture_point_record
from .snap import AreaRegistry, SnapError, TargetRegistry, snap_fields
from .stream import MalformedRecordError, decode_object, json_int, parse_frame, parse_intrinsics_header

# the longest input line a session reads, its newline not counted; a longer
# one is answered with one {"err": ...} (see _split_lines)
MAX_LINE_BYTES = 64 * 1024
# the size of the one receive buffer the server reads every session into
RECV_BYTES = 8 * 1024
# a session whose client has not taken more reply bytes than this is not read
MAX_UNSENT_BYTES = 256 * 1024
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_TOO_LONG = json.dumps({"err": f"line longer than {MAX_LINE_BYTES} bytes"})


class LiveSession:
    """One connection's state: a pipeline plus the shared registries, the
    unterminated end of its last read, the replies its client has not taken
    yet, and whether the client has sent EOF."""

    def __init__(self, settings: PipelineSettings, targets: TargetRegistry, areas: AreaRegistry) -> None:
        self.settings, self.targets, self.areas = settings, targets, areas
        self.pipeline = settings.make_pipeline()
        self.intrinsics = None
        self.rest, self.unsent, self.eof = b"", bytearray(), False

    def handle_read(self, data: bytes) -> None:
        """Answer one read (``data``; empty at EOF): its lines, cut by
        ``_split_lines``, are answered in input order, and the replies join
        ``unsent`` together."""
        lines, self.rest = _split_lines(self.rest, data)
        replies: list[str] = []
        for line in lines:
            replies += [_TOO_LONG] if line is None else self.handle_line(str(line, "utf-8", "replace"))
        if replies:
            self.unsent += ("\n".join(replies) + "\n").encode("utf-8")
        self.eof = not data

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
        if not (group is None or isinstance(group, str)):
            return json.dumps({"err": f"snap group must be a JSON string or null, got {type(group).__name__}"})
        try:
            result = self.pipeline.snap(hand, n, obj.get("strategy", "pick"), group, self.targets.snapshot(),
                                        self.areas.snapshot(), self.settings.threshold)
        except SnapError as exc:  # too few samples, an unknown strategy, or nothing registered
            return json.dumps({"err": str(exc)})
        fields = snap_fields(result)
        if result is not None:
            fields.update(mean=[result.mean_point.u, result.mean_point.v], max_dev=result.max_radial_deviation)
        return json.dumps(fields)


def _split_lines(rest: bytes | None, data: bytes) -> tuple[list[bytes | None], bytes | None]:
    """Split one read into whole lines: the first piece of ``data`` joins
    ``rest`` (the previous read's unterminated end) and its last piece is the
    new rest. A line or rest longer than ``MAX_LINE_BYTES`` becomes None, and
    the rest stays None up to the next newline, so no more than the cap is
    held. Empty ``data`` is EOF: a rest other than ``b""`` is one more line."""
    if not data:
        return ([] if rest == b"" else [rest]), b""
    pieces = data.split(b"\n")
    pieces[0] = None if rest is None else rest + pieces[0]
    lines = [None if piece is None or len(piece) > MAX_LINE_BYTES else piece for piece in pieces]
    return lines[:-1], lines[-1]


class LiveServer:
    """TCP server running one LiveSession per connection, all on the thread
    that calls ``serve_forever``: one selector loop over the listening socket
    and each session's non-blocking socket, read into one shared buffer. A
    session holding more than ``MAX_UNSENT_BYTES`` of replies is not read
    until its client takes them, so a client that never reads stalls only
    itself. The ``with`` form serves from a background thread and shuts the
    server down on exit."""

    def __init__(self, host: str, port: int, settings: PipelineSettings,
                 targets: TargetRegistry | None = None, areas: AreaRegistry | None = None) -> None:
        self.settings = settings
        self.targets = targets if targets is not None else TargetRegistry()
        self.areas = areas if areas is not None else AreaRegistry()
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind((host, port))
            self.socket.listen()
            # shutdown writes a byte to _wake, so a select waiting on _woken returns at once
            self._woken, self._wake = socket.socketpair()
        except BaseException:
            self.socket.close()
            raise
        self.socket.setblocking(False)
        self._woken.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, _READ)
        self._selector.register(self._woken, _READ)
        self._view = memoryview(bytearray(RECV_BYTES))
        self._stop = False
        self._stopped = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self.socket.getsockname()

    def serve_forever(self) -> None:
        """Serve until ``shutdown`` is called from another thread; the
        selector waits with no timeout, so an idle server does not wake."""
        self._stopped.clear()
        try:
            while not self._stop:
                for key, events in self._selector.select():
                    if key.fileobj is self._woken:
                        self._woken.recv(RECV_BYTES)
                    elif key.data is None:
                        self._accept()
                    else:
                        self._serve(key, events)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Make ``serve_forever`` return, and wait until it has."""
        self._stop = True
        self._wake.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket, every session's socket and the wake-up pair."""
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake.close()

    def _accept(self) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client gave up before it was accepted
            return
        sock.setblocking(False)
        self._selector.register(sock, _READ, LiveSession(self.settings, self.targets, self.areas))

    def _serve(self, key: selectors.SelectorKey, events: int) -> None:
        """One ready connection: read once and answer, send what the socket
        takes, then watch for what the connection waits on, or close it."""
        sock, session = key.fileobj, key.data
        try:
            if events & _READ:
                n = sock.recv_into(self._view)
                session.handle_read(bytes(self._view[:n]))
            if session.unsent:
                del session.unsent[:sock.send(session.unsent)]
        except BlockingIOError:  # nothing to read after all, or no room to send
            pass
        except OSError:  # the client went away
            session.eof, session.unsent = True, bytearray()
        except Exception:  # a fault in one session ends that session, not the server
            import traceback  # here, not at the top: the import costs each start a few ms
            traceback.print_exc()
            session.eof, session.unsent = True, bytearray()
        unsent = len(session.unsent)
        wanted = (_WRITE if unsent else 0) | (0 if session.eof or unsent > MAX_UNSENT_BYTES else _READ)
        if not wanted:
            self._selector.unregister(sock)
            sock.close()
        elif wanted != key.events:  # re-armed only on a change: most reads send all they answer
            self._selector.modify(sock, wanted, session)

    def __enter__(self) -> "LiveServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
