"""An exact budget for what a command costs before its first line of work:
the source lines of the ``gesturepoint`` modules it loads (with no bytecode
cache, each start compiles all of them), and the bytecode instructions that
``cli.main`` executes on a replay of a file holding only an intrinsics
header, which is argument parsing and set-up alone, and those that
``import gesturepoint.cli`` executes: every module body, class-creation hook
and module-level call, with the import machinery's own work. The counts
repeat to the last digit, unlike start-up time on a noisy host. The loaded
lines are taken in a fresh child for ``replay``, for ``live`` up to its
ready line and for ``define-plane``; ``cli.main``'s instructions in process,
after one warm-up call, with test_opcode_budget's counter; the import's in a
fresh ``python -S`` child (so the host's ``site`` stays out of the count)
with a fixed environment and an empty bytecode cache, so every module,
standard library included, compiles from source as in a fresh checkout.
Each count may be at most its budget + 3%.
A change that moves a count on purpose sets the budget again and says so.
The counts belong to one CPython minor version, so other versions skip.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest

from conftest import default_sigint, desk_corners, make_plane_file, write_corner_file
from test_opcode_budget import INTRINSICS, count_instructions

from gesturepoint import cli

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="instruction counts are pinned for CPython 3.11",
)

# counted on CPython 3.11.7
LOADED_LINES_BUDGET = {"replay": 1877, "live": 2109, "define-plane": 1877}
REPLAY_MAIN_BUDGET = 52367
IMPORT_CLI_BUDGET = 223196
SLACK = 1.03

# the files of the package modules loaded when a CLI run ends, after its exit code
_LOADED_AT_EXIT = """
import json, sys
from gesturepoint import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.__file__ for name, m in sys.modules.items()
                               if name.partition(".")[0] == "gesturepoint")]))
"""


def _loaded_lines(proc: subprocess.Popen) -> int:
    out, _ = proc.communicate(timeout=60)
    code, files = json.loads(out.splitlines()[-1])
    assert code == 0
    total = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A plane file, a corner file and a stream holding only an intrinsics header."""
    root = tmp_path_factory.mktemp("startup")
    make_plane_file(root / "plane.json")
    write_corner_file(root / "corners.json", desk_corners())
    (root / "header.jsonl").write_text(json.dumps({"intrinsics": INTRINSICS}) + "\n", encoding="utf-8")
    return root


def _replay_argv(root) -> list[str]:
    return ["replay", "--plane", str(root / "plane.json"), "--stream", str(root / "header.jsonl"),
            "--out", str(root / "out.jsonl")]


def test_each_command_loads_source_lines_within_budget(inputs):
    runs = {"replay": _replay_argv(inputs),
            "define-plane": ["define-plane", "--corners", str(inputs / "corners.json"),
                             "--out", str(inputs / "defined.json")]}
    lines = {command: _loaded_lines(subprocess.Popen([sys.executable, "-c", _LOADED_AT_EXIT, *argv],
                                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True))
             for command, argv in runs.items()}
    proc = subprocess.Popen([sys.executable, "-c", _LOADED_AT_EXIT, "live", "--plane", str(inputs / "plane.json"),
                             "--listen", "127.0.0.1:0"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, preexec_fn=default_sigint)
    try:
        assert "listening" in json.loads(proc.stdout.readline())
        proc.send_signal(signal.SIGINT)
        lines["live"] = _loaded_lines(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    for command, budget in LOADED_LINES_BUDGET.items():
        assert lines[command] <= budget * SLACK, f"{command} loads {lines[command]} source lines, budget {budget}"


def test_replay_start_up_instructions_stay_within_budget(inputs, monkeypatch):
    argv = _replay_argv(inputs)
    monkeypatch.delenv("GESTURE_POINTER_CONFIG", raising=False)
    for name, value in (("COLUMNS", "80"), ("LINES", "24")):  # argparse asks for them, else for the terminal's
        monkeypatch.setenv(name, value)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(argv) == 0  # warm-up: fills the caches a first call fills (re's, for one)
        count = count_instructions(lambda: cli.main(argv))
    assert err.getvalue().splitlines()[-1] == "frames=0 points=0 warnings=0"
    assert count <= REPLAY_MAIN_BUDGET * SLACK, f"cli.main runs {count} instructions, budget {REPLAY_MAIN_BUDGET}"


# the instructions that importing the CLI runs, counted in every frame it opens, from the source tree in argv[1]
_IMPORT_INSTRUCTIONS = """
import sys
sys.path.insert(0, sys.argv[1])
count = 0

def local(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return local

def on_call(frame, event, arg):
    frame.f_trace_opcodes, frame.f_trace_lines = True, False
    return local

sys.settrace(on_call)
import gesturepoint.cli
sys.settrace(None)
print(count)
"""


def test_importing_the_cli_runs_instructions_within_budget(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    count = int(subprocess.run([sys.executable, "-S", "-B", "-X", f"pycache_prefix={tmp_path / 'cache'}",
                                "-c", _IMPORT_INSTRUCTIONS, src], cwd=tmp_path, env={"PYTHONHASHSEED": "0"},
                               capture_output=True, text=True, timeout=60, check=True).stdout)
    assert count <= IMPORT_CLI_BUDGET * SLACK, f"importing cli runs {count} instructions, budget {IMPORT_CLI_BUDGET}"
