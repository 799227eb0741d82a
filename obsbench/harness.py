"""Process, build and HTTP plumbing of the benchmark.

The timed runs reach the system only through the built `observatory`
binary: child processes for the CLI and a keep-alive HTTP/1.1 client for
`observatory serve`.
"""

import os
import signal
import socket
import subprocess
import threading
import time

BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def target_dir(root):
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")


def cargo_build(root, manifest=None, bin_name=None):
    """`cargo build --release` of the repository (or of `manifest`)."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        raise BenchError(f"no observatory sources under {root}")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
    if manifest:
        cmd += ["--manifest-path", manifest]
    if bin_name:
        cmd += ["--bin", bin_name]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    try:
        r = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{' '.join(cmd)}: {e}") from e
    if r.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed:\n{r.stderr.decode(errors='replace')[-4000:]}")


def binary(root, name):
    path = os.path.join(target_dir(root), "release", name)
    if not os.path.isfile(path):
        raise BenchError(f"{path} was not built")
    return path


class Child:
    """Outcome of one finished child process."""

    def __init__(self, code, wall_s, maxrss_kb, stderr):
        self.code, self.wall_s, self.maxrss_kb, self.stderr = code, wall_s, maxrss_kb, stderr


def run_child(args, cwd, env=None, timeout_s=120):
    """Run a child to completion: exit code, spawn-to-exit wall time and
    the child's own peak RSS (from wait4, so no other process counts)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        args, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    timer = threading.Timer(timeout_s, p.kill)
    timer.start()
    try:
        err = p.stderr.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stderr.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Child(p.returncode, wall, ru.ru_maxrss, err.decode(errors="replace"))


class Server:
    """`observatory serve` on an ephemeral port.

    `startup_s` is spawn to the ready banner, read by a blocking read of
    the child's stdout (no sleep-polling)."""

    def __init__(self, exe, args, cwd):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [exe, "serve", "--addr", "127.0.0.1:0", *args],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.lines = []
        self.port = None
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            self.lines.append(line)
            if "serving on http://" in line:
                addr = line.split("http://", 1)[1].split()[0]
                self.port = int(addr.rsplit(":", 1)[1])
                break
        self.startup_s = time.perf_counter() - t0
        self._out = threading.Thread(target=self._drain, args=(self.proc.stdout, self.lines))
        self._err_lines = []
        self._err = threading.Thread(target=self._drain, args=(self.proc.stderr, self._err_lines))
        self._out.start()
        self._err.start()
        if self.port is None:
            self.stop()
            raise BenchError("server exited before its banner:\n" + "".join(self._err_lines)[-2000:])

    @staticmethod
    def _drain(stream, sink):
        for raw in stream:
            sink.append(raw.decode(errors="replace"))

    def vm_hwm_mb(self):
        """Peak resident set (VmHWM) of the server so far, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self, timeout_s=60):
        """SIGTERM (graceful drain), wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for t in (getattr(self, "_out", None), getattr(self, "_err", None)):
            if t is not None and t.is_alive():
                t.join()
        return code

    def output(self):
        return "".join(self.lines)

    def errors(self):
        return "".join(self._err_lines)


class Http:
    """A minimal keep-alive HTTP/1.1 client on one TCP connection."""

    def __init__(self, port, timeout_s=60):
        self.port, self.timeout_s = port, timeout_s
        self.sock = None
        self.reconnect()

    def reconnect(self):
        """(Re)open the connection, dropping any half-read response."""
        if self.sock is not None:
            self.sock.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def reset(self):
        """Drop the connection after a failed request; the next request
        reconnects (and fails again, counted, if the server is gone)."""
        self.close()
        self.buf = b""

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method, path, body=b"", headers=()):
        """Send one request; returns (status, {lower-case header: value}, body)."""
        if self.sock is None:
            self.reconnect()
        head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1", "Connection: keep-alive",
                f"Content-Length: {len(body)}"]
        head += [f"{k}: {v}" for k, v in headers]
        self.sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        raw_head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        hdrs = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            hdrs[k.strip().lower()] = v.strip()
        n = int(hdrs.get("content-length", "0"))
        while len(self.buf) < n:
            self._fill()
        data, self.buf = self.buf[:n], self.buf[n:]
        if hdrs.get("connection", "").lower() == "close":
            self.close()
        return status, hdrs, data

    def _fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
