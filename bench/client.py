"""One-thread client for a ``ragate serve`` subprocess, and sample summaries.

The client talks JSON lines over the subprocess's stdin/stdout pipes. Reads
wait at most ``READ_TIMEOUT`` seconds, so a server that stops answering
ends the phase instead of hanging the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import time

READ_TIMEOUT = 60.0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def encode(request: dict) -> bytes:
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


class ServeClient:
    """A running ``serve`` process; ``spawned`` is its perf_counter start."""

    def __init__(self, argv: list[str], cwd: str, env: dict, stderr_path: str):
        self._stderr = open(stderr_path, "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr, bufsize=0
        )
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        self._buf = b""

    def _fill(self, timeout: float) -> bool:
        ready, _, _ = select.select([self._out], [], [], timeout)
        if not ready:
            return False
        chunk = os.read(self._out, 1 << 16)
        if not chunk:
            return False
        self._buf += chunk
        return True

    def read_line(self) -> bytes | None:
        """The next response line, or None on EOF or timeout."""
        while b"\n" not in self._buf:
            if not self._fill(READ_TIMEOUT):
                return None
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def ask(self, payload: bytes) -> bytes | None:
        os.write(self._in, payload)
        return self.read_line()

    def pipeline(self, payloads: list[bytes]) -> tuple[list[bytes], float, float]:
        """Write every payload ahead and collect one line per payload.

        Returns (lines, time of the first write, time the last line arrived).
        Fewer lines than payloads means the server stopped answering.
        """
        data = memoryview(b"".join(payloads))
        lines: list[bytes] = []
        os.set_blocking(self._in, False)
        try:
            start = time.perf_counter()
            end = start
            while len(lines) < len(payloads):
                writers = [self._in] if data else []
                readable, writable, _ = select.select([self._out], writers, [], READ_TIMEOUT)
                if not readable and not writable:
                    break
                if writable:
                    try:
                        data = data[os.write(self._in, data[: 1 << 16]):]
                    except BlockingIOError:
                        pass
                if readable:
                    chunk = os.read(self._out, 1 << 16)
                    if not chunk:
                        break
                    self._buf += chunk
                    *complete, self._buf = self._buf.split(b"\n")
                    lines.extend(complete)
                    end = time.perf_counter()
        finally:
            os.set_blocking(self._in, True)
        return lines, start, end

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's status")

    def close(self) -> int:
        """Close stdin, wait for exit (kill after 30 s) and return the code."""
        try:
            self.proc.stdin.close()
            try:
                return self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                return self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._stderr.close()


def decode(line: bytes | None) -> dict | None:
    if line is None:
        return None
    try:
        obj = json.loads(line)
    except ValueError:
        return {"error": {"reason": f"unparsable line {line[:80]!r}"}}
    return obj if isinstance(obj, dict) else {"error": {"reason": "response is not an object"}}
