"""Start, probe and stop ``repro serve`` processes for one run.

Each server is a separate OS process started the way an operator starts
one (``python -m repro serve --bundle ... --port 0``), or through
``traced_serve.py`` for the traced phase. The benchmark learns the
ephemeral port and the shutdown token from the two lines the command
prints, and stops every server with an authorized ``KIND_SHUTDOWN``
frame so that each one drains and exits on its own.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent

_SERVING = re.compile(r" on ([\w.]+):(\d+) ")
_TOKEN = re.compile(r"^shutdown token: ([0-9a-f]+)$")

#: Seconds a server may take to drain and exit before it is killed.
STOP_TIMEOUT_S = 30.0


def peak_rss_mb(pid="self") -> float:
    """High-water resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


@dataclass
class ServerSpec:
    """One server of a workload: its bundle and extra ``serve`` flags."""

    name: str
    bundle: str
    flags: Sequence[str] = ()


@dataclass
class Server:
    spec: ServerSpec
    process: subprocess.Popen
    log: object
    spans_out: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    token: str = ""
    spans: List[dict] = field(default_factory=list)

    def read_address(self) -> None:
        """Block until the server printed where it listens."""
        for _ in range(2):
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server {self.spec.name} exited before listening "
                    f"(code {self.process.poll()})"
                )
            serving = _SERVING.search(line)
            if serving:
                self.host, self.port = serving.group(1), int(serving.group(2))
            token = _TOKEN.match(line.strip())
            if token:
                self.token = token.group(1)
        if not self.port or not self.token:
            raise RuntimeError(f"server {self.spec.name} printed no address")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def request_shutdown(self) -> None:
        from repro.smc import wire

        if self.process.poll() is not None:
            return
        if not self.token:  # never got as far as listening
            self.process.terminate()
            return
        try:
            with socket.create_connection((self.host, self.port), timeout=5) as sock:
                body = wire.encode(wire.shutdown_payload(self.token))
                wire.send_frame(sock, wire.KIND_SHUTDOWN, body)
                wire.recv_frame(sock)
        except (OSError, wire.WireError):
            pass  # already gone; wait() below reaps or kills it

    def wait(self) -> None:
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.process.stdout.close()
            self.log.close()
        if self.spans_out and os.path.exists(self.spans_out):
            with open(self.spans_out, encoding="utf-8") as handle:
                spans = json.load(handle)
            # Ids and request ids restart in every process: qualify them
            # with the server name so spans of several servers can mix.
            name = self.spec.name
            for span in spans:
                span["id"] = f"{name}:{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"{name}:{span['parent']}"
                if span["request"] is not None:
                    span["request"] = f"{name}:{span['request']}"
            self.spans = spans


class Fleet:
    """The set of servers one workload talks to, started together."""

    def __init__(
        self,
        root: Path,
        run_dir: Path,
        specs: Sequence[ServerSpec],
        traced: bool = False,
        tag: str = "",
    ) -> None:
        self.servers: List[Server] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_CRYPTO_BACKEND", None)
        try:
            for spec in specs:
                self.servers.append(
                    self._spawn(root, run_dir, spec, traced, tag, env)
                )
            for server in self.servers:
                server.read_address()
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _spawn(root, run_dir, spec, traced, tag, env) -> Server:
        serve = ["serve", "--bundle", spec.bundle, "--port", "0", *spec.flags]
        spans_out = None
        if traced:
            spans_out = str(run_dir / f"spans-{spec.name}{tag}.json")
            argv = [sys.executable, str(HERE / "traced_serve.py"), spans_out, *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        log = open(run_dir / f"server-{spec.name}{tag}.log", "w", encoding="utf-8")
        process = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        return Server(spec=spec, process=process, log=log, spans_out=spans_out)

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        """Shut every server down and wait until each has exited."""
        for server in self.servers:
            server.request_shutdown()
        for server in self.servers:
            server.wait()

    def spans(self) -> List[dict]:
        return [span for server in self.servers for span in server.spans]
