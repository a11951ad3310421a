"""Live line-protocol tests: TCP sessions, snap commands, session isolation,
and replay/live output equivalence."""

from __future__ import annotations

import dataclasses
import errno
import itertools
import json
import math
import random
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    INTRINSICS, default_sigint, desk_corners, make_plane_file, run_cli, wrist_frame, write_scenario_file,
)
from gesturepoint.cli import load_plane_file
from gesturepoint.evaluation import generate_scenario, load_scenario_config
from gesturepoint import live
from gesturepoint.live import (
    MAX_LINE_BYTES,
    MAX_UNSENT_BYTES,
    RECV_BYTES,
    LiveServer,
    LiveSession,
    PipelineSettings,
    _split_lines,
    gesture_point_record,
)
from gesturepoint.geometry import PlanarPoint, Point3, Quaternion, from_workplane, plane_from_corners, workplane_frame
from gesturepoint.snap import Area, AreaRegistry, Target, TargetRegistry, save_layout
from gesturepoint.stabilizer import GesturePoint
from gesturepoint.stream import parse_frame, serialize_frame


def make_settings(tmp_path) -> PipelineSettings:
    plane, frame, _, _ = load_plane_file(str(make_plane_file(tmp_path / "plane.json")))
    return PipelineSettings(plane=plane, frame=frame)


def registries():
    targets, areas = TargetRegistry(), AreaRegistry()
    targets.replace_all([
        Target(id="goal", label="goal", position=PlanarPoint(0.2, 0.3)),
        Target(id="decoy", label="decoy", position=PlanarPoint(0.5, 0.6)),
    ])
    areas.replace_all([Area(id="zone", center=PlanarPoint(0.2, 0.3), half_extent=(0.1, 0.1))])
    return targets, areas


def stream_lines(tmp_path, count=20, target="0.2, 0.3, 0.0", sigma=0.0, seed=42):
    scenario = load_scenario_config(
        write_scenario_file(tmp_path / "s.cfg", target=target, sigma=sigma, seed=seed, count=count)
    )
    return [serialize_frame(f) for f in generate_scenario(*scenario)]


def talk(address, lines) -> list[dict]:
    """Send lines to a live server, half-close, read every response line."""
    with socket.create_connection(address, timeout=10) as sock:
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    text = b"".join(chunks).decode("utf-8")
    return [json.loads(line) for line in text.splitlines()]


def test_session_emits_points_and_snaps(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path) + [json.dumps({"cmd": "snap", "strategy": "pick"})]
        responses = talk(server.address, lines)
    points = [r for r in responses if "u" in r]
    snaps = [r for r in responses if "ok" in r]
    assert len(points) == 20
    assert abs(points[-1]["u"] - 0.2) < 1e-9
    assert len(snaps) == 1
    assert snaps[0]["ok"] is True
    assert snaps[0]["id"] == "goal"
    assert snaps[0]["fallback"] is False


def test_place_snap_over_live(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path) + [json.dumps({"cmd": "snap", "strategy": "place"})]
        responses = talk(server.address, lines)
    snap = [r for r in responses if "ok" in r][0]
    assert snap == {
        "ok": True, "id": "zone", "fallback": False,
        "mean": snap["mean"], "max_dev": snap["max_dev"],
    }
    assert abs(snap["mean"][0] - 0.2) < 1e-9


def test_snap_before_any_points(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        responses = talk(server.address, [json.dumps({"cmd": "snap", "strategy": "pick"})])
    assert responses == [{"err": "no samples"}]


def test_snap_with_too_few_points(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path, count=5) + [json.dumps({"cmd": "snap"})]
        responses = talk(server.address, lines)
    errs = [r for r in responses if "err" in r]
    assert errs == [{"err": "insufficient samples: 5 of 15"}]


@pytest.mark.parametrize("n", [0, -3, 2.7, True, 257, "15"])
def test_snap_rejects_bad_sample_count(tmp_path, n):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    for line in stream_lines(tmp_path):
        session.handle_line(line)
    replies = session.handle_line(json.dumps({"cmd": "snap", "strategy": "pick", "n": n}))
    assert [set(json.loads(r)) for r in replies] == [{"err"}]
    ok = json.loads(session.handle_line(json.dumps({"cmd": "snap", "n": 20}))[0])
    assert ok["ok"] is True and ok["id"] == "goal"


@pytest.mark.parametrize("group, kind", [(5, "int"), ([], "list"), (True, "bool"), ({}, "dict")])
def test_snap_group_that_is_no_json_string_is_answered_with_err(tmp_path, group, kind):
    session = LiveSession(make_settings(tmp_path), *registries())
    for line in stream_lines(tmp_path):
        session.handle_line(line)
    replies = session.handle_line(json.dumps({"cmd": "snap", "strategy": "pick", "group": group}))
    assert replies == [json.dumps({"err": f"snap group must be a JSON string or null, got {kind}"})]


def test_snap_with_an_empty_group_answers_as_without_one(tmp_path):
    """``""`` means no group, as null does, and both override the session's --group."""
    session = LiveSession(dataclasses.replace(make_settings(tmp_path), group="left"), *registries())
    for line in stream_lines(tmp_path):
        session.handle_line(line)
    assert session.handle_line(json.dumps({"cmd": "snap"})) == [
        json.dumps({"ok": False, "id": None, "fallback": False})]
    without = session.handle_line(json.dumps({"cmd": "snap", "group": None}))
    assert json.loads(without[0])["id"] == "goal"
    assert session.handle_line(json.dumps({"cmd": "snap", "group": ""})) == without


def test_overflowing_frame_answered_with_err_and_session_kept(tmp_path):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    huge = {"t": 0.0, "joints": {"right_shoulder": {"x": 1e308, "y": 1e308, "z": 1e308},
                                 "right_wrist": {"x": -1e308, "y": -1e308, "z": -1e308}}}
    replies = session.handle_line(json.dumps(huge))
    assert [set(json.loads(r)) for r in replies] == [{"err"}]
    assert len(session.handle_line(stream_lines(tmp_path, count=1)[0])) == 1


def test_malformed_lines_answered_without_terminating(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = [
            "{broken json",
            json.dumps({"cmd": "launch"}),
            json.dumps({"cmd": "snap", "strategy": "sideways"}),
            json.dumps({"t": 0.0, "joints": {"right_wrist": {"x": 0, "y": 0, "c": 2}}}),
            stream_lines(tmp_path, count=1)[0],
        ]
        responses = talk(server.address, lines)
    assert sum("err" in r for r in responses) == 4
    assert sum("u" in r for r in responses) == 1  # the session survived to process it


def _sessions(server: LiveServer) -> list[LiveSession]:
    """The sessions the server holds a socket for."""
    return [key.data for key in list(server._selector.get_map().values()) if key.data is not None]


def _wait_for_sessions(server: LiveServer, count: int) -> None:
    deadline = time.monotonic() + 10
    while len(_sessions(server)) != count:
        assert time.monotonic() < deadline, f"the server holds {len(_sessions(server))} sessions, not {count}"
        time.sleep(0.01)


def test_shutdown_returns_without_waiting_for_the_poll(tmp_path):
    """``shutdown`` wakes the selector, which waits with no timeout, so it
    returns at once, and the server serves again after."""
    server = LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries())
    try:
        for _ in range(2):
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            assert len(talk(server.address, stream_lines(tmp_path, count=2))) == 2
            start = time.monotonic()
            server.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive() and time.monotonic() - start < 5
    finally:
        server.server_close()


def test_idle_server_does_not_wake(tmp_path):
    """With no client and no shutdown, the selector's wait does not return:
    over 1.25 s idle it returns at most once (a poll every 0.5 s would
    return twice)."""
    server = LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries())
    returns, select = [], server._selector.select

    def counting_select(*args, **kwargs):
        ready = select(*args, **kwargs)
        returns.append(ready)
        return ready

    server._selector.select = counting_select
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    try:
        thread.start()
        time.sleep(1.25)
        idle_returns = len(returns)
        server.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        server.server_close()
    assert idle_returns <= 1


def test_failed_wake_up_pair_closes_the_listening_socket(tmp_path, monkeypatch):
    """When the wake-up pair cannot be made (say, no file descriptor is left),
    the bound listening socket is closed before the error propagates, so its
    port is free again while the error's traceback still holds the server."""
    def no_pair():
        raise OSError(errno.EMFILE, "Too many open files")

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    monkeypatch.setattr(socket, "socketpair", no_pair)
    with pytest.raises(OSError, match="Too many open files") as caught:
        LiveServer("127.0.0.1", port, make_settings(tmp_path), *registries())
    monkeypatch.undo()
    LiveServer("127.0.0.1", port, make_settings(tmp_path), *registries()).server_close()
    assert caught.value.errno == errno.EMFILE


def test_client_that_resets_its_connection_ends_its_session_quietly(tmp_path, capsys):
    frame = stream_lines(tmp_path, count=1)[0]
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall((frame + "\n").encode("utf-8"))
            with sock.makefile("rb") as reader:
                assert "u" in json.loads(reader.readline())  # the session is reading
            sock.sendall(frame[:20].encode("utf-8"))
            # closing with a zero linger time resets the connection mid-line
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        _wait_for_sessions(server, 0)  # the server closed its socket too
        responses = talk(server.address, [frame])
    assert len(responses) == 1 and "u" in responses[0]
    assert "Traceback" not in capsys.readouterr().err


def test_line_past_the_cap_is_skipped_in_bounded_memory(tmp_path):
    """16 MiB without a newline: the session reads it in bounded pieces,
    answers one err and then serves the next frame."""
    frame = stream_lines(tmp_path, count=1)[0]
    chunk = b"x" * (64 * 1024)
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        with socket.create_connection(server.address, timeout=30) as sock:
            tracemalloc.start()
            try:
                for _ in range(256):
                    sock.sendall(chunk)
                sock.sendall(("\n" + frame + "\n").encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                with sock.makefile("rb") as reader:
                    responses = [json.loads(line) for line in reader]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert responses[0] == {"err": f"line longer than {MAX_LINE_BYTES} bytes"}
    assert len(responses) == 2 and "u" in responses[1]


@pytest.mark.parametrize("extra, answer", [(0, "u"), (1, "err")], ids=["at-cap", "one-past"])
def test_line_at_the_cap_gets_its_point_and_one_byte_more_is_refused(tmp_path, extra, answer):
    frame = stream_lines(tmp_path, count=1)[0]
    padded = frame + " " * (MAX_LINE_BYTES + extra - len(frame))
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        responses = talk(server.address, [padded, frame])
    assert len(responses) == 2 and answer in responses[0] and "u" in responses[1]


def test_concurrent_sessions_have_independent_buffers(tmp_path):
    targets, areas = registries()
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), targets, areas) as server:
        lines = stream_lines(tmp_path)
        snap_cmd = json.dumps({"cmd": "snap", "strategy": "pick"})
        with socket.create_connection(server.address, timeout=10) as first:
            # session A accumulates 20 points and holds its connection open
            first.sendall(("\n".join(lines) + "\n").encode("utf-8"))
            reader = first.makefile("r", encoding="utf-8")
            for _ in range(20):
                assert "u" in json.loads(reader.readline())
            # session B, opened while A is live, has no samples of its own
            responses = talk(server.address, [snap_cmd])
            assert responses == [{"err": "no samples"}]
            # session A still snaps fine afterwards
            first.sendall((snap_cmd + "\n").encode("utf-8"))
            snap = json.loads(reader.readline())
            assert snap["ok"] is True and snap["id"] == "goal"


def test_client_that_never_reads_does_not_delay_another_session(tmp_path):
    """Session A is sent lines that each get a reply, and reads none of them,
    until its sends stay blocked: its replies fill both socket buffers, so
    the server can neither send to it nor read from it. Session B is then
    served at once."""
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        with socket.create_connection(server.address, timeout=10) as stalled:
            stalled.setblocking(False)
            chunk = b"{broken\n" * 4096
            deadline = time.monotonic() + 3
            while True:
                assert time.monotonic() < deadline, "the server kept reading a client that reads nothing"
                try:
                    stalled.send(chunk)
                except BlockingIOError:
                    if not select.select([], [stalled], [], 0.25)[1]:
                        break
            start = time.monotonic()
            responses = talk(server.address, ["{broken", "{broken", stream_lines(tmp_path, count=1)[0]])
            elapsed = time.monotonic() - start
    assert len(responses) == 3 and "err" in responses[0] and "err" in responses[1] and "u" in responses[2]
    assert elapsed < 2.0, elapsed


def test_client_that_never_reads_holds_at_most_the_unsent_bound_plus_one_read(tmp_path):
    """A client that sends lines and reads no reply: once the kernel's socket
    buffers are full, the server keeps its replies unsent, stops reading past
    ``MAX_UNSENT_BYTES`` and so holds no more than the replies of one read
    beyond it, while other sessions are answered throughout."""
    line = b"{broken\n"
    reply = LiveSession(_DESK_SETTINGS, *registries()).handle_line("{broken")[0]
    one_read = (RECV_BYTES // len(line)) * (len(reply) + 1)
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        with socket.create_connection(server.address, timeout=10) as stalled:
            stalled.setblocking(False)
            deadline = time.monotonic() + 20
            while True:  # send until the server has stopped reading, with more than the bound unsent
                assert time.monotonic() < deadline, "the server kept reading a client that reads nothing"
                try:
                    stalled.send(line * 4096)
                except BlockingIOError:
                    blocked = not select.select([], [stalled], [], 0.25)[1]
                    if blocked and len(_sessions(server)[0].unsent) > MAX_UNSENT_BYTES:
                        break
            (session,) = _sessions(server)
            assert MAX_UNSENT_BYTES < len(session.unsent) <= MAX_UNSENT_BYTES + one_read
            for _ in range(3):
                responses = talk(server.address, ["{broken", stream_lines(tmp_path, count=1)[0]])
                assert len(responses) == 2 and "err" in responses[0] and "u" in responses[1]
            assert len(session.unsent) <= MAX_UNSENT_BYTES + one_read


_ONE_THREAD = """
import json, sys, threading
from gesturepoint import cli, live

threads = set()
handle_line = live.LiveSession.handle_line

def counted(self, line):
    threads.add(threading.active_count())
    return handle_line(self, line)

live.LiveSession.handle_line = counted
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "threads": sorted(threads), "socketserver": "socketserver" in sys.modules}))
"""


def test_cli_live_serves_concurrent_sessions_on_one_thread(tmp_path):
    """``gesturepoint live`` answers two sessions whose lines interleave, and
    runs every line on its one thread, without importing socketserver."""
    plane = make_plane_file(tmp_path / "plane.json")
    lines = stream_lines(tmp_path, count=20)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_THREAD, "live", "--plane", str(plane), "--listen", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=default_sigint,
    )
    try:
        host, port = json.loads(proc.stdout.readline())["listening"].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as a, \
                socket.create_connection((host, int(port)), timeout=10) as b:
            readers = [a.makefile("rb"), b.makefile("rb")]
            for k in range(0, 20, 5):
                for sock in (a, b):
                    sock.sendall("".join(line + "\n" for line in lines[k:k + 5]).encode("utf-8"))
                for reader in readers:
                    assert all("u" in json.loads(reader.readline()) for _ in range(5))
            for reader in readers:
                reader.close()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert json.loads(out.splitlines()[-1]) == {"code": 0, "threads": [1], "socketserver": False}, err


def test_cli_live_server_answers_as_an_in_process_session(tmp_path):
    """``gesturepoint live`` started as a command, as the benchmark starts it,
    answers every line with the bytes an in-process session gives, and a
    line past the cap, sent in several pieces, with one err."""
    plane = make_plane_file(tmp_path / "plane.json")
    targets, areas = registries()
    layout = tmp_path / "layout.json"
    save_layout(layout, targets.snapshot(), areas.snapshot())
    frames = stream_lines(tmp_path)
    header = json.dumps({"intrinsics": INTRINSICS})
    # wrists in pixels, pointing near (0.1, 0.7) on the desk
    pixel_frames = [json.dumps({"t": 5.0 + k, "joints": {
        "right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9},
        "right_wrist": {"px": 630 + k, "py": 240, "depth": 0.53, "c": 0.9},
    }}) for k in range(4)]
    snaps = [json.dumps({"cmd": "snap", "strategy": s}) for s in ("pick", "place")]
    head = [header] + frames[:10] + ["{broken", json.dumps({"cmd": "launch"})]
    tail = frames[10:] + snaps + pixel_frames  # the last line goes without its newline
    too_long = b"x" * (MAX_LINE_BYTES + 1)
    sends = [
        "\n".join(head).encode("utf-8") + b"\n",
        *(too_long[i:i + 20_000] for i in range(0, len(too_long), 20_000)),
        b"\n" + "\n".join(tail).encode("utf-8"),
    ]
    session = LiveSession(make_settings(tmp_path), targets, areas)
    expected = [reply for line in head for reply in session.handle_line(line)]
    expected.append(json.dumps({"err": f"line longer than {MAX_LINE_BYTES} bytes"}))
    expected += [reply for line in tail for reply in session.handle_line(line)]

    proc = subprocess.Popen(
        [sys.executable, "-m", "gesturepoint.cli", "live", "--plane", str(plane), "--registry", str(layout),
         "--listen", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=default_sigint,
    )
    try:
        host, port = json.loads(proc.stdout.readline())["listening"].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            for data in sends:
                sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as reader:
                received = reader.read()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    assert received == "".join(reply + "\n" for reply in expected).encode("utf-8")
    replies = [json.loads(reply) for reply in expected]
    assert sum(r.get("ok") is True for r in replies) == 2 and sum("err" in r for r in replies) == 3
    assert len(expected) == 20 + 3 + 2 + 4 and all("u" in r for r in replies[-4:])


def test_intrinsics_header_enables_2d_joints(tmp_path):
    targets, areas = registries()
    session = LiveSession(make_settings(tmp_path), targets, areas)
    header = json.dumps(
        {"intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}}
    )
    assert session.handle_line(header) == []
    record = json.dumps(
        {
            "t": 0.0,
            "joints": {
                "right_shoulder": {"x": 0.3, "y": -0.1, "z": 0.6, "c": 0.9},
                "right_wrist": {"px": 320, "py": 240, "depth": 0.2, "c": 0.9},
            },
        }
    )
    out = session.handle_line(record)
    assert len(out) <= 1  # parses; may or may not intersect in-bounds
    no_header = LiveSession(make_settings(tmp_path), targets, areas)
    assert "err" in json.loads(no_header.handle_line(record)[0])


@pytest.mark.parametrize("seed,target,sigma", [
    (11, "0.2, 0.3, 0.0", 0.0),
    (12, "0.45, 0.55, 0.0", 0.008),
    (13, "0.1, 0.7, 0.0", 0.015),
])
def test_replay_and_live_emit_identical_sequences(tmp_path, seed, target, sigma):
    """Replay and live emit the same gesture points; and with pick snaps
    every 5th point, each replay snap record carries the ok/id/fallback of
    live's reply to a snap command sent right after the frame of that point."""
    plane_file = make_plane_file(tmp_path / "plane.json")
    scenario = write_scenario_file(tmp_path / "s.cfg", target=target, sigma=sigma, seed=seed, count=40)
    stream_path = tmp_path / "stream.jsonl"
    assert run_cli(["generate", "--scenario", str(scenario), "--out", str(stream_path)]) == 0
    replay_out = tmp_path / "replay.jsonl"
    assert run_cli(["replay", "--plane", str(plane_file), "--stream", str(stream_path),
                    "--out", str(replay_out)]) == 0
    plane, frame, _, _ = load_plane_file(str(plane_file))
    settings = PipelineSettings(plane=plane, frame=frame)
    frames = stream_path.read_text(encoding="utf-8").splitlines()
    with LiveServer("127.0.0.1", 0, settings) as server:
        live_lines = talk(server.address, frames)
    replay_lines = [json.loads(l) for l in replay_out.read_text(encoding="utf-8").splitlines()]
    assert live_lines == replay_lines

    aimed_u, aimed_v, _ = (float(c) for c in target.split(","))
    targets = [Target(id="aimed", label="aimed", position=PlanarPoint(aimed_u, aimed_v)),
               Target(id="near", label="near", position=PlanarPoint(aimed_u + 0.02, aimed_v))]
    save_layout(tmp_path / "layout.json", targets, [])
    snap_out = tmp_path / "snaps.jsonl"
    assert run_cli(["replay", "--plane", str(plane_file), "--stream", str(stream_path), "--out", str(snap_out),
                    "--snap", "pick", "--registry", str(tmp_path / "layout.json"), "--n", "5"]) == 0
    registry = TargetRegistry()
    registry.replace_all(targets)
    command = json.dumps({"cmd": "snap", "strategy": "pick"})
    with LiveServer("127.0.0.1", 0, dataclasses.replace(settings, snap_samples=5), registry) as server:
        replies = talk(server.address, [line for frame_line in frames for line in (frame_line, command)])
    points, expected = 0, []
    for previous, reply in zip([None, *replies], replies):
        if "t" in reply:
            points += 1
            expected.append(reply)
        elif "t" in (previous or {}) and points % 5 == 0:
            snap = {key: reply[key] for key in ("ok", "id", "fallback")}
            expected.append({"t": previous["t"], "hand": previous["hand"], "snap": snap})
    snap_lines = [json.loads(l) for l in snap_out.read_text(encoding="utf-8").splitlines()]
    assert snap_lines == expected and len(snap_lines) > len(replay_lines)


def test_per_frame_path_runs_no_finiteness_check(tmp_path, monkeypatch):
    base = make_settings(tmp_path)
    sessions = [LiveSession(dataclasses.replace(base, frame_mode=mode), *registries())
                for mode in ("workplane", "camera")]
    for session in sessions:  # the header is a boundary: its intrinsics are checked once
        assert session.handle_line(json.dumps({"intrinsics": INTRINSICS})) == []

    def forbidden(*args):
        raise AssertionError("finiteness check on the per-frame path")

    lines = stream_lines(tmp_path) + [json.dumps(wrist_frame("px", 330))]
    monkeypatch.setattr("gesturepoint.geometry._require_finite", forbidden)
    for session in sessions:
        replies = [session.handle_line(line) for line in lines]
        assert all(len(r) == 1 for r in replies[:-1])


# --- the record formatter --------------------------------------------------------

# signed zeros, a subnormal, values past 2**53 and below 1e-4 (where repr
# switches to exponent notation), and plain decimals
_EDGE_FLOATS = (0.0, -0.0, 1e16, -1e16, 5e-324, 1e-7, -1e-7, 0.1, 1 / 3, 123456.789)


def _json_dumps_record(gp: GesturePoint, settings: PipelineSettings) -> str:
    if settings.frame_mode == "camera":
        world = from_workplane(gp.position, settings.frame)
        doc = {"t": gp.timestamp, "hand": gp.hand, "x": world.x, "y": world.y, "z": world.z,
               "window": gp.window_size}
    else:
        doc = {"t": gp.timestamp, "hand": gp.hand, "u": gp.position.u, "v": gp.position.v,
               "window": gp.window_size}
    return json.dumps(doc, separators=(",", ":"))


def _tilted_frames(count: int):
    """Seeded planes of any orientation, each with a frame at a random corner."""
    rng = random.Random("record-frames")
    for _ in range(count):
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in q))
        rows = Quaternion(*(c / norm for c in q)).to_matrix()
        origin = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        corners = [Point3(*(o + a * u + b * v for o, (a, b, _) in zip(origin, rows)))
                   for u, v in ((0.0, 0.0), (0.7, 0.0), (0.7, 0.5), (0.0, 0.5))]
        plane = plane_from_corners(corners)
        corner = rng.randrange(4)
        yield plane, workplane_frame(plane, corner, (corner + rng.choice((1, 3))) % 4)


@pytest.mark.parametrize("mode", ["workplane", "camera"])
def test_gesture_point_record_writes_the_bytes_of_json_dumps(mode):
    """The written-out record equals ``json.dumps`` of the record object on
    tilted planes, for edge floats in every coordinate, numpy float
    coordinates, and float, numpy and int timestamps."""
    for plane, frame in _tilted_frames(8):
        settings = PipelineSettings(plane=plane, frame=frame, frame_mode=mode)
        for u, v, w in itertools.product(_EDGE_FLOATS, repeat=3):
            for position, t in ((PlanarPoint(u, v, w), u), (PlanarPoint(np.float64(u), np.float64(v), np.float64(w)),
                                                            np.float64(v))):
                gp = GesturePoint(position, t, "left", 3)
                assert gesture_point_record(gp, settings) == _json_dumps_record(gp, settings)
        for t in (0, 7, -2, 10**20):
            gp = GesturePoint(PlanarPoint(0.25, 0.125), t, "right", 5)
            assert gesture_point_record(gp, settings) == _json_dumps_record(gp, settings)


def test_gesture_point_record_matches_json_dumps_on_pipeline_points(tmp_path):
    """Every point of a noisy session, in both output frames."""
    base = make_settings(tmp_path)
    frames = [parse_frame(json.loads(line)) for line in stream_lines(tmp_path, count=60, sigma=0.01)]
    for settings in (base, dataclasses.replace(base, frame_mode="camera")):
        pipe = settings.make_pipeline()
        points = [gp for f in frames for gp in pipe.process(f)]
        assert points
        for gp in points:
            assert gesture_point_record(gp, settings) == _json_dumps_record(gp, settings)


# --- fuzzing the line boundary ---------------------------------------------------

_NUMBERS = (
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, 5e-324, 0, 0.5, 1])
    | st.floats()
    | st.integers()
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _some_of(keys, values):
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


_JOINT_NAMES = st.sampled_from(["right_shoulder", "right_elbow", "right_wrist", "left_wrist", "nose"])
_FRAME = st.fixed_dictionaries({"t": _NUMBERS | _JSON}, optional={
    "joints": st.dictionaries(_JOINT_NAMES, _some_of(["x", "y", "z", "px", "py", "depth", "c"], _NUMBERS) | _JSON,
                              max_size=3) | _JSON,
    "source": _JSON,
})
_HEADER = st.fixed_dictionaries({"intrinsics": _some_of(sorted(INTRINSICS), _NUMBERS) | _JSON})
_SNAP = st.fixed_dictionaries({"cmd": st.just("snap") | _JSON}, optional={
    "strategy": st.sampled_from(["pick", "place"]) | _JSON,
    "n": _NUMBERS | _JSON,
    "hand": st.sampled_from(["right", "left"]) | _JSON,
    "group": _JSON,
})
_LINES = st.lists((_FRAME | _HEADER | _SNAP | _JSON).map(json.dumps) | st.text(max_size=20), max_size=8)
_DESK = plane_from_corners(desk_corners())
_DESK_SETTINGS = PipelineSettings(plane=_DESK, frame=workplane_frame(_DESK))
# 20 points aimed at the "goal" target, so snap lines reach evaluate_request
_WARM_UP = [json.dumps(wrist_frame("t", k / 30)) for k in range(20)]


def _refuse_constant(name):
    raise AssertionError(f"reply holds the non-JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(lines=_LINES)
@example(lines=["1" * 5000, "[" * 100_000, '{"t": 0, "joints": {"right_wrist": {"x": ' + "9" * 400 + ', "y": 0, "z": 1}}}',
                '{"intrinsics": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": Infinity, "height": 480}}',
                '{"cmd": "snap", "n": NaN}', '{"cmd": "snap", "strategy": "place", "n": 20}'])
def test_handle_line_fuzz_never_raises_and_answers_in_json(lines):
    session = LiveSession(_DESK_SETTINGS, *registries())
    for line in _WARM_UP:
        session.handle_line(line)
    for line in lines:
        replies = session.handle_line(line)
        for reply in replies:
            assert isinstance(json.loads(reply, parse_constant=_refuse_constant), dict)
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict) and "cmd" in obj:
            assert len(replies) == 1
    # the session survives whatever came before
    assert len(session.handle_line(json.dumps(wrist_frame("t", 99.0)))) == 1


# --- the session read loop -------------------------------------------------------

def _serve(chunks) -> list[bytes]:
    """Gives ``chunks`` to one session as its reads, each cut to the server's
    buffer size as a socket read would be, then EOF; returns what each read
    added to the unsent replies, for the reads that added any."""
    session = LiveSession(_DESK_SETTINGS, *registries())
    reads = [chunk[i:i + RECV_BYTES] for chunk in chunks for i in range(0, len(chunk), RECV_BYTES)]
    sent = []
    for data in reads + [b""]:
        session.handle_read(data)
        if session.unsent:
            sent.append(bytes(session.unsent))
            session.unsent.clear()
    assert session.eof
    return sent


def _line_at_a_time(stream: bytes, handle_line) -> bytes:
    """The reference: each line read whole with its newline, as ``readline``
    gives it, then answered before the next is read; a line longer than the
    cap gets one err."""
    session = LiveSession(_DESK_SETTINGS, *registries())
    replies = []
    for raw in re.findall(rb"[^\n]*\n|[^\n]+", stream):
        if len(raw.removesuffix(b"\n")) > live.MAX_LINE_BYTES:
            replies.append(json.dumps({"err": f"line longer than {live.MAX_LINE_BYTES} bytes"}))
        else:
            replies += handle_line(session, raw.decode("utf-8", errors="replace"))
    return "".join(reply + "\n" for reply in replies).encode("utf-8")


def _frame(k: int, pad_to: int = 0) -> bytes:
    record = wrist_frame("t", k / 30)
    record["source"] = "cam é€😀"  # two-, three- and four-byte UTF-8 to cut through
    line = json.dumps(record, ensure_ascii=False).encode("utf-8")
    return line + b" " * (pad_to - len(line))


_CAP = 200  # above every frame line below, so padding decides which are too long
_LINE_KINDS = st.sampled_from([
    "frame", _CAP - 1, _CAP, _CAP + 1, _CAP + 2, 3 * _CAP + 7,
    json.dumps(wrist_frame("px", 330)).encode(), json.dumps({"intrinsics": INTRINSICS}).encode(),
    b'{"cmd": "snap", "strategy": "pick", "n": 3}', b'{"cmd": "snap", "strategy": "place", "n": 2}',
    b'{"cmd": "snap"}', b'{"cmd": "launch"}',
    b"", b"   ", b"\r", b"{broken", b"[1, 2]", b"\xff\xfe", b"\xe2\x82", b"\xf0\x9f\x98",
    b'{"t": 0.5, "source": "\xe2\x82", "joints": {}}',
])


def _stream_line(kind, k: int) -> bytes:
    """Line ``k`` of a stream: a frame (padded to ``kind`` bytes when it is a
    number, or plain filler past twice the cap), or the given bytes."""
    if kind == "frame":
        return _frame(k)
    if isinstance(kind, int):
        return _frame(k, kind) if kind <= 2 * _CAP else b"x" * kind
    return kind


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(_LINE_KINDS, max_size=24), terminated=st.booleans(), data=st.data())
def test_any_chunking_answers_as_line_at_a_time(kinds, terminated, data):
    """Whatever the cut points (mid-line, mid-UTF-8, at the cap and one byte
    either side of it), ``_split_lines`` cuts the reads into the lines a
    line-at-a-time reader would see, answered with the same bytes, and never
    holds a rest past the cap."""
    lines = [_stream_line(kind, k) for k, kind in enumerate(kinds)]
    stream = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
    starts = list(itertools.accumulate((len(line) + 1 for line in lines), initial=0))
    near_cap = [s + _CAP + d for s in starts for d in (-1, 0, 1) if 0 < s + _CAP + d < len(stream)]
    cuts = data.draw(st.lists(st.integers(0, len(stream)) | st.sampled_from(near_cap or [0]), max_size=30))
    stride = data.draw(st.none() | st.integers(1, 64))
    if stride:
        cuts += range(stride, len(stream), stride)
    bounds = sorted({0, len(stream), *cuts})
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

    session = LiveSession(_DESK_SETTINGS, *registries())
    too_long = json.dumps({"err": f"line longer than {_CAP} bytes"})
    split, replies, rest = [], [], b""
    with mock.patch.object(live, "MAX_LINE_BYTES", _CAP):
        for chunk in chunks + [b""]:  # the empty read is EOF
            got, rest = _split_lines(rest, chunk)
            assert rest is None or (type(rest) is bytes and len(rest) <= _CAP)
            split += got
            for line in got:
                replies += [too_long] if line is None else session.handle_line(str(line, "utf-8", "replace"))
        expected = _line_at_a_time(stream, LiveSession.handle_line)
    raws = [raw.removesuffix(b"\n") for raw in re.findall(rb"[^\n]*\n|[^\n]+", stream)]
    assert split == [raw if len(raw) <= _CAP else None for raw in raws]
    assert all(line is None or type(line) is bytes for line in split)
    assert "".join(reply + "\n" for reply in replies).encode("utf-8") == expected


def test_unterminated_last_line_is_answered_at_eof(tmp_path):
    frame = stream_lines(tmp_path, count=1)[0]
    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(f"{frame}\n{frame}".encode("utf-8"))
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as reader:
                responses = [json.loads(line) for line in reader]
    assert len(responses) == 2 and all("u" in r for r in responses)


@pytest.mark.parametrize("first", [MAX_LINE_BYTES, MAX_LINE_BYTES + 1], ids=["at-cap", "one-past"])
def test_cap_crossed_at_a_read_boundary_gets_one_err(first):
    """The first reads hold ``first`` bytes of one line (the cap, or one byte
    past it) and end exactly there; the next read carries the rest."""
    head = [b"x" * RECV_BYTES] * (first // RECV_BYTES) + [b"x" * (first % RECV_BYTES)]
    replies = [json.loads(line) for line in b"".join(_serve(head + [b"xx\n" + _frame(1) + b"\n"])).splitlines()]
    assert replies[0] == {"err": f"line longer than {MAX_LINE_BYTES} bytes"}
    assert len(replies) == 2 and "u" in replies[1]


def test_lines_of_one_read_are_answered_with_one_sendall():
    """The replies to the lines of one read join the unsent replies together,
    so the server hands them to the socket in one ``send``."""
    lines = [_frame(k) for k in range(20)] + [b'{"cmd": "snap", "strategy": "pick"}', b"{broken"]
    sent = _serve([b"\n".join(lines) + b"\n"])
    assert len(sent) == 1
    replies = [json.loads(line) for line in sent[0].splitlines()]
    assert len(replies) == 22 and "ok" in replies[20] and "err" in replies[21]


def test_read_of_header_and_blank_lines_sends_nothing():
    header = json.dumps({"intrinsics": INTRINSICS}).encode()
    sent = _serve([header + b"\n\n  \n\r\n", b"\n", _frame(0) + b"\n"])
    assert len(sent) == 1 and b'"u"' in sent[0]


@pytest.mark.parametrize("error", [ConnectionAbortedError, ConnectionResetError, BrokenPipeError])
def test_session_ends_quietly_on_any_connection_error(tmp_path, capsys, error):
    """A session whose socket read fails with a connection error, after it
    answered its first line, is closed without a traceback, and the server
    serves the next session."""
    frame = stream_lines(tmp_path, count=1)[0]
    recv_into, reads = socket.socket.recv_into, []

    def failing_second_read(sock, *args):
        if sock.getsockname()[1] == server.address[1]:  # a session's end, not a client's
            reads.append(sock)
            if sock is reads[0] and reads.count(sock) > 1:
                raise error()
        return recv_into(sock, *args)

    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server, \
            mock.patch.object(socket.socket, "recv_into", failing_second_read):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall((frame + "\n").encode("utf-8"))
            answered = sock.recv(65536)
            sock.sendall((frame + "\n").encode("utf-8"))
            try:  # the server closes the socket with the second line unread, which resets it
                assert sock.recv(65536) == b""
            except ConnectionResetError:
                pass
        assert len(answered.splitlines()) == 1 and b'"u"' in answered
        _wait_for_sessions(server, 0)
        assert len(talk(server.address, [frame])) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_fault_in_one_session_ends_it_with_a_traceback_and_the_server_serves_on(tmp_path, capsys):
    frame = stream_lines(tmp_path, count=1)[0]
    handle_line = LiveSession.handle_line

    def faulty(session, line):
        if line == "boom":
            raise RuntimeError("a fault in handle_line")
        return handle_line(session, line)

    with LiveServer("127.0.0.1", 0, make_settings(tmp_path), *registries()) as server, \
            mock.patch.object(LiveSession, "handle_line", faulty):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"boom\n")
            assert sock.recv(65536) == b""
        _wait_for_sessions(server, 0)
        assert len(talk(server.address, [frame])) == 1
    assert "RuntimeError: a fault in handle_line" in capsys.readouterr().err
