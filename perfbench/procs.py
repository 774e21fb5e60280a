"""Child processes: ``repro`` CLI runs, the server, and peak memory."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Seconds a server may take to print its banner before the run fails.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

_BANNER = re.compile(r"repro serve: serving \d+ opinions on http://[^:]+:(\d+)")


class BenchError(RuntimeError):
    """The program misbehaved in a way that ends the run."""


def repro_env(root: Path) -> dict[str, str]:
    """Environment that imports ``repro`` from the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("REPRO_FAST_PATH", "REPRO_PROVENANCE",
                 "REPRO_STRICT_PARITY"):
        env.pop(name, None)
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_roles() -> tuple[int, int]:
    """``(measured, load)``: the CPU the measured processes share with
    the speed probe, and the CPU the load generator runs on (the same
    one when only one is available)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1], cpus[0]


def pin(cpu: int, pid: int = 0) -> None:
    """Pin a process (this one by default) to one CPU. Children
    started afterwards inherit it."""
    os.sched_setaffinity(pid, {cpu})


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time of a live process (all threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15 of proc(5).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_cli(root: Path, args: list[str], cwd: Path) -> float:
    """Run ``python -m repro ARGS`` to completion; its wall seconds."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=repro_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise BenchError(
            f"repro {args[0]} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return time.perf_counter() - started


class Server:
    """One ``repro serve`` process (optionally under a span launcher)."""

    def __init__(
        self, root: Path, args: list[str], workdir: Path,
        spans: Path | None = None,
    ) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [
                sys.executable, str(root / "perfbench" / "traced_serve.py"),
                str(spans), "serve", *args,
            ]
        self.log_path = workdir / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.started_at = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=workdir, env=repro_env(root),
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.port = self._await_banner(self.started_at)
        self.ready_at = time.monotonic()
        self.ready_s = self.ready_at - self.started_at

    def _await_banner(self, started: float) -> int:
        while time.monotonic() - started < START_TIMEOUT:
            match = _BANNER.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(
            "server did not start: " + self.log_path.read_text()[-2000:]
        )

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """Unlabelled samples of ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                try:
                    values[name] = float(value.split()[0])
                except (ValueError, IndexError):
                    continue
        return values

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU the server has used so far."""
        return cpu_seconds(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, and reap (SIGKILL as a last
        resort). Returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode
