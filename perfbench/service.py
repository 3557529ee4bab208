"""The server process and the closed-loop generator that drives it.

:class:`Server` starts ``repro serve`` through ``perfbench/launch.py``
and stops it with SIGTERM; :class:`Generator` runs the user
transactions of one workload over one TCP connection.  The generator
speaks the NDJSON wire protocol with a blocking socket, one request at
a time, so nothing of the benchmark's own scheduling can reorder the
requests the tenant sees.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Program

#: Wire error code of a protocol abort (``repro.service.wire``); the
#: only error reply after which a transaction is retried.
ERR_ABORTED = "txn-aborted"
#: Wire error code of an expired session or operation deadline.
ERR_DEADLINE = "deadline"
#: Begins per user transaction before it counts as failed.
MAX_ATTEMPTS = 64

_SERVING = re.compile(rb"serving on (\S+):(\d+) ")
_WRITTEN = re.compile(r"^T(\d+)\.(\d+)$")


class BenchFailure(Exception):
    """The run cannot go on: time ceiling, lost server, bad reply."""


#: ``repro serve`` flags.  The admission limit and both deadlines sit far
#: above the load (32 sessions, seconds per transaction), so no request
#: is shed and no session expires: the timer sleeps those paths take
#: would otherwise enter the measurement.
SERVE_FLAGS = (
    "--protocol", "rsgt", "--max-sessions", "1024",
    "--session-timeout", "3600", "--op-timeout", "3600",
    "--drain-timeout", "5",
)


def shared_cpu() -> set[int]:
    """The one CPU the generator and the server both run on.

    The two strictly alternate, so sharing a CPU costs no parallelism.
    On separate CPUs every request wakes the other CPU from idle, which
    on a VM (whose idle vCPU the hypervisor may have descheduled) was
    both slower and far more erratic: tx/s spread 0.24-0.45 against
    0.06-0.19 on one CPU, on a 2-vCPU Xeon host.
    """
    return {min(os.sched_getaffinity(0))}


class Server:
    """One ``repro serve --protocol rsgt`` process."""

    def __init__(
        self,
        work: Path,
        seed: int,
        trace: bool,
        cpus: set[int],
    ) -> None:
        self.out = work
        self.out.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, "perfbench/launch.py", "--out", str(self.out),
            *(["--trace"] if trace else []), "--",
            "serve", "--port", "0", *SERVE_FLAGS, "--seed", str(seed),
        ]
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
        self._stderr = open(self.out / "stderr.txt", "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, env=env
        )
        self.pid = self.proc.pid
        os.sched_setaffinity(self.pid, cpus)

    def wait_ready(self, timeout: float) -> tuple[str, int]:
        """Block until the ``serving on`` line; returns (host, port)."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        match = _SERVING.match(line)
        if match is None:
            raise BenchFailure(
                f"server did not report readiness: {line!r} "
                f"{self.stderr_tail()}"
            )
        return match.group(1).decode(), int(match.group(2))

    def cpu_s(self) -> float:
        """User+system CPU seconds the server has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchFailure("no VmHWM in /proc status")

    def stop(self, timeout: float) -> tuple[int, dict]:
        """SIGTERM, wait for the drain; returns (exit code, launcher stats)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure(f"drain did not finish within {timeout:.0f} s")
        finally:
            self.close()
        stats_file = self.out / "stats.json"
        stats = json.loads(stats_file.read_text()) if stats_file.exists() else {}
        return self.proc.returncode, stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.close()

    def close(self) -> None:
        self.proc.stdout.close()
        self._stderr.close()

    def stderr_tail(self) -> str:
        path = self.out / "stderr.txt"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""


class Connection:
    """One blocking NDJSON connection; strictly one request at a time."""

    def __init__(self, host: str, port: int, deadline: float) -> None:
        self.deadline = deadline
        try:
            self.sock = socket.create_connection((host, port), timeout=self._left())
        except OSError as exc:
            raise BenchFailure(f"cannot connect to the server: {exc}") from exc
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.requests = 0
        self.rtt_s = 0.0

    def _left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchFailure("run exceeded its time ceiling")
        return left

    def send(self, payload: bytes) -> dict:
        """One round trip of a pre-encoded request line."""
        self.sock.settimeout(self._left())
        started = time.perf_counter()
        try:
            self.sock.sendall(payload)
            line = self.reader.readline()
        except TimeoutError:
            raise BenchFailure("run exceeded its time ceiling") from None
        except OSError as exc:
            raise BenchFailure(f"connection to the server failed: {exc}") from exc
        self.rtt_s += time.perf_counter() - started
        self.requests += 1
        if not line:
            raise BenchFailure("server closed the connection")
        try:
            return json.loads(line)
        except ValueError:
            raise BenchFailure(f"malformed reply {line[:200]!r}") from None

    def call(self, do: str, **fields) -> dict:
        """One verb; raises :class:`BenchFailure` on an error reply."""
        reply = self.send(_encode({"do": do, **fields}))
        if not reply.get("ok"):
            raise BenchFailure(f"{do} failed: {reply}")
        return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


@dataclass
class _Session:
    """One logical session: the user transaction it is working on."""

    program: Program | None = None
    txn: int | None = None
    #: Next operation index; -1 means the next request is a begin.
    cursor: int = -1
    attempts: int = 0
    started: float = 0.0
    #: Send an abort for ``txn`` next (after a non-protocol error).
    abort_next: bool = False


@dataclass
class PhaseResult:
    """What the generator saw during one measured phase."""

    commits: int = 0
    begins: int = 0
    aborts: int = 0
    failed: int = 0
    requests: int = 0
    rtt_s: float = 0.0
    wall_s: float = 0.0
    committed_ops: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    bad_replies: list[str] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    first_begin_ns: int = 0
    last_commit_ns: int = 0


class Generator:
    """Closed-loop load generator: K logical sessions on one connection.

    Each round the active sessions are shuffled by a seeded RNG and each
    sends exactly one request (begin, the next operation, or commit).
    The request sequence therefore depends only on the seed and the
    server's replies, which RSGT derives deterministically from that
    same sequence.
    """

    def __init__(
        self,
        conn: Connection,
        tenant: str,
        programs: tuple[Program, ...],
        objects: dict[str, int],
        sessions: int,
        order_seed: str,
    ) -> None:
        self.conn = conn
        self.tenant = tenant
        self.programs = programs
        self.objects = objects
        self.sessions = sessions
        self.rng = random.Random(order_seed)
        self.result = PhaseResult()
        self._next = 0
        self._txn_program: dict[int, Program] = {}
        self._hash = hashlib.blake2b(digest_size=12)

    def run(self) -> PhaseResult:
        result = self.result
        sessions = [_Session() for _ in range(self.sessions)]
        active = list(range(self.sessions))
        requests0, rtt0 = self.conn.requests, self.conn.rtt_s
        started = time.perf_counter()
        result.first_begin_ns = time.perf_counter_ns()
        while active:
            self.rng.shuffle(active)
            done = [index for index in active if not self._turn(sessions[index])]
            for index in done:
                active.remove(index)
        result.last_commit_ns = time.perf_counter_ns()
        result.wall_s = time.perf_counter() - started
        result.requests = self.conn.requests - requests0
        result.rtt_s = self.conn.rtt_s - rtt0
        result.digest = self._hash.hexdigest()
        return result

    def _turn(self, session: _Session) -> bool:
        """Send the session's next request; False once it has no work."""
        if session.abort_next:
            session.abort_next = False
            self._send(_encode({"do": "abort", "txn": session.txn}))
            session.program = None
            return True
        if session.program is None:
            if self._next == len(self.programs):
                return False
            session.program = self.programs[self._next]
            self._next += 1
            session.attempts = 0
            session.started = time.perf_counter()
            session.cursor = -1
        if session.cursor < 0:
            self._begin(session)
        elif session.cursor < len(session.program.ops):
            self._step(session)
        else:
            self._commit(session)
        return True

    def _send(self, payload: bytes) -> dict:
        reply = self.conn.send(payload)
        self._hash.update(payload)
        self._hash.update(
            b"+" if reply.get("ok") else reply.get("error", "?").encode()
        )
        return reply

    def _begin(self, session: _Session) -> None:
        program = session.program
        if session.attempts == MAX_ATTEMPTS:
            self._fail(session, "out-of-retries")
            return
        session.attempts += 1
        self.result.begins += 1
        reply = self._send(
            _encode(
                {
                    "do": "begin",
                    "tenant": self.tenant,
                    "program": program.text,
                    "cuts": list(program.cuts),
                }
            )
        )
        if not reply.get("ok"):
            self._fail(session, reply.get("error", "?"))
            return
        session.txn = reply["txn"]
        session.cursor = 0
        self._txn_program[session.txn] = program

    def _step(self, session: _Session) -> None:
        reply = self._send(_encode({"do": "step", "txn": session.txn}))
        if not reply.get("ok"):
            self._error(session, reply)
            return
        kind, key = session.program.ops[session.cursor]
        if reply.get("op") != f"{kind}{session.txn}[{key}]":
            self.result.bad_replies.append(f"T{session.txn} got {reply}")
        elif kind == "r":
            self._check_read(session.txn, key, reply.get("value"))
        session.cursor += 1

    def _check_read(self, txn: int, key: str, value: object) -> None:
        """A read returns the preload or a value some writer of ``key``
        wrote (the server tags writes ``T<txn>.<op index>``)."""
        self._hash.update(str(value).encode())
        if value == self.objects.get(key):
            return
        match = _WRITTEN.match(value) if isinstance(value, str) else None
        if match is not None:
            writer = self._txn_program.get(int(match.group(1)))
            index = int(match.group(2))
            if (
                writer is not None
                and index < len(writer.ops)
                and writer.ops[index] == ("w", key)
            ):
                return
        self.result.bad_replies.append(f"T{txn} read {value!r} from {key}")

    def _commit(self, session: _Session) -> None:
        reply = self._send(_encode({"do": "commit", "txn": session.txn}))
        if not reply.get("ok"):
            self._error(session, reply)
            return
        result = self.result
        result.commits += 1
        result.committed_ops += len(session.program.ops)
        result.latencies_ms.append((time.perf_counter() - session.started) * 1e3)
        session.program = None

    def _error(self, session: _Session, reply: dict) -> None:
        code = reply.get("error", "?")
        if code == ERR_ABORTED:
            self.result.aborts += 1
            session.cursor = -1
            return
        self._fail(session, code)
        # A deadline reply has already undone the session server-side.
        session.abort_next = code != ERR_DEADLINE

    def _fail(self, session: _Session, code: str) -> None:
        self.result.failed += 1
        self.result.errors[code] = self.result.errors.get(code, 0) + 1
        session.program = None
