"""The README's examples are tests: its fenced blocks are read from README.md
and run, with no copy of their text here.

- ``bash``: each ``gesturepoint ...`` command runs as ``python -m
  gesturepoint.cli`` in a temporary directory that holds ``conftest``'s desk
  corners (``corners.json``) and scenario (``scenario.cfg``), in README
  order, and exits 0. ``live`` runs with its ``--listen`` port replaced by 0,
  is fed the walkthrough's stream and the README's snap request, and is
  stopped once it has answered them.
- ``json``: the documented point line and snap reply have the key sets and
  value types of the lines that session answered; the snap request is
  accepted; the wire-format frame parses, given an intrinsics header, to a
  ``(timestamp, joints)`` pair that its ``"source"`` does not change.
- ``python``: the "Library surface" block runs in that directory.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import selectors
import shlex
import signal
import socket
import subprocess
import sys

import pytest

from conftest import INTRINSICS, default_sigint, desk_corners, write_corner_file, write_scenario_file
from gesturepoint import stream
from gesturepoint.cli import COMMANDS
from gesturepoint.stream import MalformedRecordError, parse_frame, parse_intrinsics_header

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
TIMEOUT = 30.0


def _blocks(lang: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def _commands() -> list[list[str]]:
    """Every ``gesturepoint`` command of the bash blocks, continuation lines joined."""
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "gesturepoint":
                commands.append(words[1:])
    return commands


def _json_examples() -> dict[str, dict]:
    """The json blocks' objects (a block holds one object, or one per line), by kind."""
    docs = []
    for block in _blocks("json"):
        try:
            docs.append(json.loads(block))
        except ValueError:
            docs += [json.loads(line) for line in block.splitlines() if line.strip()]
    kinds = {"request": "cmd", "reply": "ok", "frame": "joints", "point": "window"}
    found = {kind: [doc for doc in docs if key in doc] for kind, key in kinds.items()}
    assert all(len(v) == 1 for v in found.values()), found
    return {kind: v[0] for kind, v in found.items()}


def _shape(doc: dict) -> dict[str, type]:
    return {key: type(value) for key, value in doc.items()}


def _env() -> dict[str, str]:
    env = dict(os.environ)  # conftest put this tree's src on PYTHONPATH
    env.pop("GESTURE_POINTER_CONFIG", None)
    return env


def _live(argv: list[str], cwd, lines: list[str]) -> tuple[int, str, list[str] | None]:
    """Run ``live`` on port 0 of its README host, send ``lines``, and stop it
    once the last line is answered: its exit code, stderr and replies (None
    when it exited before its ready line)."""
    flag = argv.index("--listen")
    argv = argv[:flag + 1] + [argv[flag + 1].rpartition(":")[0] + ":0"] + argv[flag + 2:]
    proc = subprocess.Popen([sys.executable, "-m", "gesturepoint.cli", *argv], cwd=cwd, env=_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=default_sigint)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            assert sel.select(timeout=TIMEOUT), "live printed no ready line"
        ready = proc.stdout.readline()
        if not ready:  # it exited
            return proc.wait(), proc.stderr.read().decode("utf-8"), None
        host, port = json.loads(ready)["listening"].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=TIMEOUT) as sock:
            sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        proc.send_signal(signal.SIGINT)
        return proc.wait(timeout=TIMEOUT), proc.stderr.read().decode("utf-8"), data.decode("utf-8").splitlines()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The bash blocks' commands run in order: each one's exit code, and the
    replies of the live session to the stream and the README's snap request."""
    root = tmp_path_factory.mktemp("readme")
    write_corner_file(root / "corners.json", desk_corners())
    write_scenario_file(root / "scenario.cfg")
    request = json.dumps(_json_examples()["request"])
    codes, replies = [], None
    for argv in _commands():
        if argv[0] == "live":
            stream_lines = (root / "stream.jsonl").read_text(encoding="utf-8").splitlines()
            code, err, replies = _live(argv, root, stream_lines + [request])
        else:
            done = subprocess.run([sys.executable, "-m", "gesturepoint.cli", *argv], cwd=root, env=_env(),
                                  capture_output=True, text=True, timeout=TIMEOUT)
            code, err = done.returncode, done.stderr
        codes.append((argv, code, err[-300:]))
    return root, codes, replies


def test_every_walkthrough_command_exits_0(walkthrough):
    _, codes, replies = walkthrough
    assert {argv[0] for argv, *_ in codes} == set(COMMANDS)  # the walkthrough shows every command
    assert [c for c in codes if c[1] != 0] == []
    assert replies is not None


def test_documented_point_line_and_snap_reply_match_the_live_session(walkthrough):
    examples = _json_examples()
    replies = [json.loads(line) for line in walkthrough[2]]
    points = [r for r in replies if "window" in r]
    assert points and {tuple(_shape(p).items()) for p in points} == {tuple(_shape(examples["point"]).items())}
    # the snap request is the last line sent, so its reply is the last one
    assert "err" not in replies[-1]
    assert _shape(replies[-1]) == _shape(examples["reply"])
    assert replies[-1]["id"] == examples["reply"]["id"]


def test_documented_wire_frame_parses_to_a_timestamp_joints_pair():
    doc = _json_examples()["frame"]
    with pytest.raises(MalformedRecordError, match="without intrinsics"):
        parse_frame(doc)
    intrinsics = parse_intrinsics_header({"intrinsics": INTRINSICS})
    frame = parse_frame(doc, intrinsics)
    assert type(frame) is tuple and len(frame) == 2 and frame[0] == doc["t"]
    assert set(frame[1]) == set(doc["joints"])
    # "source" is accepted and ignored
    assert parse_frame({k: v for k, v in doc.items() if k != "source"}, intrinsics) == frame


def test_documented_stream_signatures_match_the_code():
    """Each ``stream.name(args)`` the README writes out names the function's parameters."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    calls = re.findall(r"`stream\.(\w+)\(([\w, ]*)\)`", text)
    assert {"parse_frame", "serialize_frame", "write_stream"} <= {name for name, _ in calls}
    for name, args in calls:
        params = list(inspect.signature(getattr(stream, name)).parameters)
        assert [a.strip() for a in args.split(",") if a.strip()] == params, name


def test_library_block_runs(walkthrough, monkeypatch):
    root = walkthrough[0]
    (block,) = [b for b in _blocks("python") if "from gesturepoint import" in b]
    monkeypatch.chdir(root)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert all(type(frame) is tuple and len(frame) == 2 for frame in namespace["frames"])
    assert len((root / "copy.jsonl").read_text(encoding="utf-8").splitlines()) == len(namespace["frames"])
