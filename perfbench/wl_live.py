"""live_loopback: `gesturepoint live` in a child process, driven over
loopback TCP by this single-threaded selectors client.

Two phases on the same sessions:
* paced - open loop at PACED_RATE lines/s across the sessions; each line is
  timed from when it was due to the arrival of its reply;
* flood - closed loop, at most FLOOD_WINDOW expected replies in flight per
  session, in FLOOD_CHUNKS back-to-back chunks whose rates give ops_per_s;
  the server's CPU time over it gives cpu_us_per_op. (Over the paced phase,
  CPU per line depends on how the client's timing batches lines into reads;
  it is printed but varied by 25% between runs.)
Every reply is checked against the in-process reference.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import statistics
import subprocess
import time

import inputs
import reference
from common import (
    SETUP_REPEATS,
    BenchError,
    child_env,
    cli_argv,
    out_path,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    latency_summary,
)

SESSIONS = 2
# lines/s over all sessions, about 30% of the flood rate: at half of it the
# host's slow spells pushed the server into queueing and p99 became bimodal
PACED_RATE = 2000.0
FLOOD_NOMINAL = 8000.0  # lines/s used only to size the flood phase
FLOOD_WINDOW = 256
FLOOD_CHUNKS = 15
LATENCY_WINDOWS = 12  # equal slices of the paced phase
PACED_SHARE = 0.6  # of --seconds; the flood is sized to take about 0.3
REPLY_TIMEOUT_S = 30.0


class _Session:
    def __init__(self, sock: socket.socket, lines: list[str], expect: list[list[tuple]]) -> None:
        self.sock = sock
        self.lines = lines
        self.expect = expect
        self.cum = [0]
        for e in expect:
            self.cum.append(self.cum[-1] + len(e))
        self.sent = 0
        self.buf = b""
        self.replies: list[tuple[bytes, float]] = []

    def receive(self, data: bytes, t: float) -> None:
        parts = (self.buf + data).split(b"\n")
        self.buf = parts.pop()
        self.replies.extend((p, t) for p in parts)

    def send(self, upto: int) -> None:
        if upto <= self.sent:
            return
        payload = "".join(line + "\n" for line in self.lines[self.sent:upto])
        self.sock.sendall(payload.encode("utf-8"))
        self.sent = upto


def _default_sigint() -> None:
    # a shell starting the benchmark in the background leaves SIGINT ignored;
    # the server stops cleanly (and writes its spans) only on SIGINT
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _start_server(plane: str, layout: str, trace_path: str | None) -> tuple[subprocess.Popen, float, float, tuple]:
    """Spawn the server; returns it with its wall and CPU seconds to the ready
    line, and its address."""
    argv = cli_argv("live", "--plane", plane, "--registry", layout, "--listen", "127.0.0.1:0",
                    trace_path=trace_path)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            preexec_fn=_default_sigint)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=60):
            _stop_server(proc)
            raise BenchError("live server printed no ready line")
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    ready_cpu = proc_cpu_s(proc.pid)
    try:
        host, port = json.loads(line)["listening"].rsplit(":", 1)
    except (ValueError, KeyError, TypeError) as exc:
        _stop_server(proc)
        raise BenchError(f"bad ready line from live server: {line!r}") from exc
    return proc, ready, ready_cpu, (host, int(port))


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _wait_replies(sel, sessions: list[_Session], targets: list[int]) -> None:
    deadline = time.perf_counter() + REPLY_TIMEOUT_S
    while any(len(s.replies) < n for s, n in zip(sessions, targets)):
        if time.perf_counter() > deadline:
            return
        _pump(sel, 0.5)


def _pump(sel, timeout: float) -> None:
    for key, _ in sel.select(timeout):
        data = key.fileobj.recv(1 << 16)
        t = time.perf_counter()
        if not data:
            raise BenchError("live server closed a session")
        key.data.receive(data, t)


def _paced(sel, sessions: list[_Session], upto: int) -> tuple[list[list[float]], list[float]]:
    """Open loop, sessions interleaved: line i of session s is due at
    start + (i * S + s) / PACED_RATE. Lines due by the time the client looks
    go out in one write per session. Returns each line's due time per
    session, and how late each line was sent."""
    n_s = len(sessions)
    total = upto * n_s
    due = [[0.0] * upto for _ in sessions]
    lags = []
    start = time.perf_counter() + 0.05
    g = 0
    while g < total:
        now = time.perf_counter()
        if now < start + g / PACED_RATE:
            _pump(sel, start + g / PACED_RATE - now)
            continue
        last = min(total, int((now - start) * PACED_RATE) + 1)
        for s_idx, sess in enumerate(sessions):
            sess.send((last - 1 - s_idx) // n_s + 1 if last > s_idx else 0)
        sent_at = time.perf_counter()
        for gi in range(g, last):
            due[gi % n_s][gi // n_s] = start + gi / PACED_RATE
            lags.append(sent_at - (start + gi / PACED_RATE))
        g = last
    _wait_replies(sel, sessions, [s.cum[upto] for s in sessions])
    return due, lags


def _flood(sel, sessions: list[_Session], begin: int, end: int) -> list[float]:
    """Closed loop in chunks, keeping up to FLOOD_WINDOW expected replies in
    flight per session. Returns lines/s per chunk."""
    rates = []
    size = (end - begin) // FLOOD_CHUNKS
    for c in range(FLOOD_CHUNKS):
        lo, hi = begin + c * size, begin + (c + 1) * size
        t0 = time.perf_counter()
        deadline = t0 + REPLY_TIMEOUT_S
        while any(len(s.replies) < s.cum[hi] for s in sessions):
            for sess in sessions:
                k = sess.sent
                while k < hi and sess.cum[k] - len(sess.replies) < FLOOD_WINDOW:
                    k += 1
                if k > sess.sent:
                    sess.send(k)
            _pump(sel, 0.5)
            if time.perf_counter() > deadline:
                return rates
        rates.append(len(sessions) * (hi - lo) / (time.perf_counter() - t0))
    return rates


def _check(sess: _Session, lo: int, hi: int) -> int:
    """Lines in [lo, hi) whose replies are missing or differ from the reference."""
    bad = 0
    for i in range(lo, hi):
        got = sess.replies[sess.cum[i]:sess.cum[i + 1]]
        want = sess.expect[i]
        if len(got) != len(want) or not all(
                reference.reply_matches(w, g.decode("utf-8", "replace")) for w, (g, _) in zip(want, got)):
            bad += 1
    return bad


def _read_reply(sock: socket.socket, buf: bytearray, timeout: float = 5.0) -> str | None:
    """Next reply line that is not a gesture point; None on EOF or timeout."""
    sock.settimeout(timeout)
    while True:
        while b"\n" in buf:
            idx = buf.index(b"\n")
            line = bytes(buf[:idx]).decode("utf-8", "replace")
            del buf[:idx + 1]
            if '"window"' not in line:
                return line
        try:
            data = sock.recv(1 << 16)
        except (socket.timeout, ConnectionError):
            return None
        if not data:
            return None
        buf.extend(data)


def _is_err(reply: str | None) -> bool:
    if reply is None:
        return False
    try:
        return set(json.loads(reply)) == {"err"}
    except (json.JSONDecodeError, TypeError):
        return False


def _probes(address) -> list[tuple[str, bool]]:
    """Known-defect probes on throwaway sessions, outside the timed phases."""
    results = []
    with socket.create_connection(address, timeout=5) as sock:
        buf = bytearray()
        sock.sendall((inputs.HUGE_FRAME + "\n").encode())
        answered = _is_err(_read_reply(sock, buf))
        alive = False
        if answered:
            try:
                sock.sendall(b'{"cmd": "snap"}\n')
                alive = _read_reply(sock, buf) is not None
            except OSError:
                alive = False
        results.append(("live 1e308 frame answered with err, session kept", answered and alive))
    with socket.create_connection(address, timeout=5) as sock:
        buf = bytearray()
        sock.sendall("".join(l + "\n" for l in inputs.steady_lines(20)).encode())
        for n in (0, -3, 2.7):
            try:
                sock.sendall((json.dumps({"cmd": "snap", "strategy": "pick", "n": n}) + "\n").encode())
            except OSError:
                results.append((f"live snap n={n} answered with err", False))
                continue
            results.append((f"live snap n={n} answered with err", _is_err(_read_reply(sock, buf))))
    return results


def measure(seed: int, seconds: float, traced: bool) -> dict:
    plane, layout, _ = inputs.common_files()
    paced_per_session = max(50, int(PACED_RATE * PACED_SHARE * seconds / SESSIONS))
    flood_per_session = max(FLOOD_CHUNKS * 20, int(FLOOD_NOMINAL * 0.3 * seconds / SESSIONS))
    total = paced_per_session + flood_per_session
    streams, expects = [], []
    for s in range(SESSIONS):
        lines = inputs.live_session_lines(seed, s, total)[:total]
        streams.append(lines)
        expects.append(reference.live_expectations(lines, plane, layout))

    setup, setup_cpu = [], []
    trace_path = out_path("traces", "live_server.jsonl") if traced else None
    for _ in range(1 if traced else SETUP_REPEATS - 1):
        proc, ready, cpu, _ = _start_server(plane, layout, None)
        setup.append(ready)
        setup_cpu.append(cpu)
        _stop_server(proc)
    proc, ready, cpu, address = _start_server(plane, layout, trace_path)
    setup.append(ready)
    setup_cpu.append(cpu)
    sel = selectors.DefaultSelector()
    socks = []
    try:
        sessions = []
        for s in range(SESSIONS):
            sock = socket.create_connection(address, timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
            sess = _Session(sock, streams[s], expects[s])
            sel.register(sock, selectors.EVENT_READ, sess)
            sessions.append(sess)
        cpu0 = proc_cpu_s(proc.pid)
        due, lags = _paced(sel, sessions, paced_per_session)
        cpu_paced = proc_cpu_s(proc.pid) - cpu0
        cpu1 = proc_cpu_s(proc.pid)
        rates = _flood(sel, sessions, paced_per_session, total)
        cpu_flood = proc_cpu_s(proc.pid) - cpu1
        flood_lines = (total - paced_per_session) // FLOOD_CHUNKS * FLOOD_CHUNKS
        for sock in socks:
            sel.unregister(sock)
            sock.close()
        socks = []
        probes = _probes(address)
        peak_rss = proc_peak_rss_mb(proc.pid)
    finally:
        for sock in socks:
            sock.close()
        sel.close()
        _stop_server(proc)

    timed = []  # (due, latency) of each paced line with a reply
    for s_idx, sess in enumerate(sessions):
        for i in range(paced_per_session):
            if sess.cum[i + 1] > sess.cum[i] and sess.cum[i + 1] <= len(sess.replies):
                t_due = due[s_idx][i]
                timed.append((t_due, sess.replies[sess.cum[i + 1] - 1][1] - t_due))
    attempted = SESSIONS * (paced_per_session + flood_lines)
    failed = sum(_check(sess, 0, paced_per_session + flood_lines) for sess in sessions)
    if len(timed) < LATENCY_WINDOWS or len(rates) < FLOOD_CHUNKS:
        raise BenchError("live phases did not complete")
    timed.sort()
    size = len(timed) // LATENCY_WINDOWS
    windows = [[lat * 1000.0 for _, lat in timed[k * size:(k + 1) * size]]
               for k in range(LATENCY_WINDOWS)]
    lat = latency_summary(windows)
    replies = sum(len(s.replies) for s in sessions)
    errs = sum(1 for s in sessions for r, _ in s.replies if r.startswith(b'{"err"'))
    return {
        "setup": setup,
        "setup_cpu": setup_cpu,
        "ops_per_s": statistics.median(rates),
        "latency": lat,
        "cpu_us_per_op": cpu_flood / (SESSIONS * flood_lines) * 1e6,
        "cpu_ops": SESSIONS * flood_lines,
        "peak_rss_mb": peak_rss,
        "attempted": attempted,
        "failed": failed,
        "probes": probes,
        "detail": {
            "ops": "input line",
            "sessions": SESSIONS,
            "paced_rate_lines_per_s": PACED_RATE,
            "paced_lines": SESSIONS * paced_per_session,
            "flood_lines": SESSIONS * flood_lines,
            "flood_window": FLOOD_WINDOW,
            "flood_chunk_rates": rates,
            "paced_cpu_us_per_line": cpu_paced / (SESSIONS * paced_per_session) * 1e6,
            "latency_window_median_p90_ms": statistics.median(percentile(w, 90.0) for w in windows),
            "latency_window_median_p95_ms": statistics.median(percentile(w, 95.0) for w in windows),
            "loadgen_lag_ms": {"p50": statistics.median(lags) * 1000.0,
                               "p99": percentile(lags, 99.0) * 1000.0},
            "replies": replies,
            "err_replies": errs,
        },
        "server_cpu_s": cpu_paced + cpu_flood,
        "trace_files": [trace_path] if trace_path else [],
    }
