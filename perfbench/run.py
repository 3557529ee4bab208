"""Deterministic end-to-end benchmark of the RSR transaction service.

Run from the repository root::

    python3 perfbench/run.py --workload disjoint|hot|relative \\
        --seed N --seconds S --trace 0|1

Each run starts ``repro serve --protocol rsgt`` as its own process and
drives one tenant over one TCP connection from a closed-loop generator
(see README.md next to this file for the design, every metric and the
sizing).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones (which adds a traced pass after the untraced ones).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
from service import (
    BenchFailure, Connection, Generator, Server, shared_cpu,
)
from workloads import make_inputs

#: Logical sessions sharing the one connection.
SESSIONS = 32
#: Per workload: user transactions per pass, and measured passes per
#: second of ``--seconds``.  The run's size is a fixed function of its
#: arguments, never of how fast the host is.  Each pass runs its own
#: workload instance; the run reports means over the passes (the median
#: for set-up time).  Passes stay short because certification cost grows
#: faster than linearly with the history; a longer run adds passes.
SIZING = {"disjoint": (400, 0.8), "hot": (160, 0.75), "relative": (200, 0.75)}
#: Warm-up transactions, run on a throwaway tenant before measuring.
WARMUP_TXNS = 64
#: Extra server spawns that only sample set-up time.
SETUP_ONLY_SPAWNS = 2
#: The whole run must end by then (the contract allows 180 s).
RUN_CEILING_S = 170.0
#: A server whose peak RSS exceeds this fails the run.
MEMORY_CEILING_MIB = 1024.0
#: Reference CPU loop for the noise diagnostics.
REFERENCE_LOOP = 1_000_000

BENCH_TENANT = "bench"
WARMUP_TENANT = "warmup"

def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """The highest of p99/p95/p90 that leaves >= 10 samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90):
        rank = -(-len(ordered) * pct // 100)
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def _counter_total(metrics: dict, name: str, **labels: str) -> int:
    """Sum of a counter over every label set that includes ``labels``."""
    total = 0
    for key, value in metrics["counters"].items():
        if key == name or key.startswith(name + "{"):
            body = key[len(name) + 1 : -1] if "{" in key else ""
            pairs = dict(p.split("=", 1) for p in body.split(",") if p)
            if all(pairs.get(k) == v for k, v in labels.items()):
                total += value
    return total


def _hist(metrics: dict, key: str) -> tuple[int, int]:
    entry = metrics["histograms"].get(key)
    return (entry["sum"], entry["count"]) if entry else (0, 0)


def _dispatch_us(before: dict, after: dict, *verbs: str) -> float:
    """Mean server dispatch time of ``verbs`` between two snapshots."""
    total = count = 0
    for verb in verbs:
        key = f"service.verb_latency_us{{verb={verb}}}"
        s1, c1 = _hist(after, key)
        s0, c0 = _hist(before, key)
        total += s1 - s0
        count += c1 - c0
    return total / count if count else 0.0


def reference_loop_ms() -> float:
    """Best of three timings of a fixed CPU loop (noise diagnostic)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i
        best = min(best, time.perf_counter() - started)
    return round(best * 1e3, 2)


def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


class Run:
    """One benchmark invocation: passes, checks and the report."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.perf_counter() + RUN_CEILING_S
        self.count, rate = SIZING[args.workload]
        self.passes = max(1, round(rate * args.seconds))
        self.warmup = make_inputs(args.workload, f"warmup.{args.seed}", WARMUP_TXNS)
        self.cpus = shared_cpu()
        os.sched_setaffinity(0, self.cpus)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._spawns = 0

    def _left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def pass_inputs(self, index: int):
        """Pass ``index``'s own workload instance (sub-seed ``seed.index``)."""
        return make_inputs(self.args.workload, f"{self.args.seed}.{index}", self.count)

    def _spawn(self, trace: bool, inputs) -> tuple[Server, Connection, float]:
        """Start a server; returns it, a connection to the bench tenant
        preloaded with ``inputs``, and the set-up time that took."""
        self._spawns += 1
        started = time.perf_counter()
        server = Server(
            self.work / f"server-{self._spawns}", self.args.seed, trace, self.cpus,
        )
        try:
            host, port = server.wait_ready(min(60.0, self._left()))
            conn = Connection(host, port, self.deadline)
            conn.call(
                "tenant", tenant=BENCH_TENANT, protocol="rsgt",
                objects=inputs.objects,
            )
        except BaseException:
            server.kill()
            raise
        return server, conn, time.perf_counter() - started

    def _stop(self, server: Server, conn: Connection) -> dict:
        conn.close()
        code, stats = server.stop(min(60.0, self._left()))
        if code != 0:
            self.problems.append(
                f"server exited {code} after SIGTERM: {server.stderr_tail()}"
            )
        return stats

    def setup_only(self) -> float:
        server, conn, setup_s = self._spawn(False, self.pass_inputs(0))
        self._stop(server, conn)
        return setup_s

    def measured_pass(self, index: int, trace: bool) -> dict:
        """Spawn, warm up, measure, check, drain; returns the pass record."""
        inputs = self.pass_inputs(index)
        server, conn, setup_s = self._spawn(trace, inputs)
        try:
            record = self._measure(server, conn, setup_s, inputs, index)
        except BaseException:
            conn.close()
            server.kill()
            raise
        stats = self._stop(server, conn)
        bench = stats.get(BENCH_TENANT, {})
        for key in ("forgets", "replayed", "spec_views"):
            record["counts"][key] = bench.get(key)
        record["layers"]["spec.views"] = bench.get("spec_views") or 0
        if bench.get("fallback_rebuilds"):
            self.problems.append("certifier fell back to a full rebuild")
        if trace:
            spans_file = server.out / "spans.json"
            if not spans_file.exists():
                raise BenchFailure("traced server wrote no spans")
            record["spans"] = json.loads(spans_file.read_text())
        return record

    def _measure(
        self, server: Server, conn: Connection, setup_s: float, inputs, index: int
    ) -> dict:
        conn.call(
            "tenant", tenant=WARMUP_TENANT, protocol="rsgt",
            objects=self.warmup.objects,
        )
        Generator(
            conn, WARMUP_TENANT, self.warmup.programs, self.warmup.objects,
            SESSIONS, f"warmup:{self.args.seed}",
        ).run()
        conn.call("certify", tenant=WARMUP_TENANT)

        before = conn.call("metrics")["metrics"]
        cpu0 = server.cpu_s()
        phase = Generator(
            conn, BENCH_TENANT, inputs.programs, inputs.objects,
            SESSIONS, f"order:{self.args.seed}.{index}",
        ).run()
        cpu_s = server.cpu_s() - cpu0
        after = conn.call("metrics")["metrics"]
        census = conn.call("inspect", tenant=BENCH_TENANT)["tenants"][BENCH_TENANT]
        peak_rss = server.peak_rss_mib()
        started = time.perf_counter()
        cert_started_ns = time.perf_counter_ns()
        certify = conn.call("certify", tenant=BENCH_TENANT)
        certify_s = time.perf_counter() - started
        cert_ended_ns = time.perf_counter_ns()
        after_cert = conn.call("metrics")["metrics"]
        health = conn.call("health")

        self.attempted += len(inputs.programs)
        self.failed += phase.failed
        self._check(phase, after, certify, health, peak_rss)

        commits = max(phase.commits, 1)
        latency_tail, tail_pct = tail_percentile(phase.latencies_ms or [0.0])
        dispatch_all = _dispatch_us(before, after, "begin", "step", "commit")
        rsg = census.get("rsg") or {}
        arcs = rsg.get("arcs") or {}
        return {
            "end_to_end": {
                "setup_s": setup_s,
                "tx_per_s": phase.commits / phase.wall_s,
                "txn_p50_ms": statistics.median(phase.latencies_ms or [0.0]),
                "txn_tail_ms": latency_tail,
                "server_cpu_ms_per_txn": cpu_s * 1e3 / commits,
                "server_peak_rss_mb": peak_rss,
                "certify_s": certify_s,
                "attempts_per_commit": phase.begins / commits,
            },
            "tail": {"percentile": tail_pct, "samples": len(phase.latencies_ms)},
            "layers": {
                "wire.requests_per_commit": phase.requests / commits,
                "wire.rtt_us": phase.rtt_s * 1e6 / max(phase.requests, 1),
                "wire.overhead_us": phase.rtt_s * 1e6 / max(phase.requests, 1)
                - dispatch_all,
                "server.dispatch_us.begin": _dispatch_us(before, after, "begin"),
                "server.dispatch_us.step": _dispatch_us(before, after, "step"),
                "server.dispatch_us.commit": _dispatch_us(before, after, "commit"),
                "server.dispatch_us.certify": _dispatch_us(after, after_cert, "certify"),
                "server.wait_retries": _counter_total(
                    after, "service.wait_retries", tenant=BENCH_TENANT
                ),
                "admission.shed": health["shed"],
                "admission.inflight_peak": health["inflight_peak"],
                "scheduler.aborts_per_commit": _counter_total(
                    after, "service.aborts", tenant=BENCH_TENANT
                ) / commits,
                "rsg.nodes": rsg.get("nodes", 0),
                "rsg.arcs.D": arcs.get("D", 0),
                "rsg.arcs.F": arcs.get("F", 0),
                "rsg.arcs.B": arcs.get("B", 0),
                "rsg.arcs_per_op": rsg.get("arc_total", 0) / max(rsg.get("nodes", 0), 1),
            },
            "counts": {
                "commits": phase.commits,
                "begins": phase.begins,
                "aborts": phase.aborts,
                "requests": phase.requests,
                "digest": phase.digest,
                "rsg": {
                    key: rsg.get(key)
                    for key in ("nodes", "arcs", "history", "certified", "rejected")
                },
            },
            "phase": {
                "wall_s": phase.wall_s,
                "cpu_s": cpu_s,
                "commits": phase.commits,
                "committed_ops": phase.committed_ops,
                "requests": phase.requests,
                "window_ns": (phase.first_begin_ns, phase.last_commit_ns),
                "certify_window_ns": (cert_started_ns, cert_ended_ns),
            },
        }

    def _check(self, phase, after, certify, health, peak_rss) -> None:
        """Every correctness condition of a pass; failures go to problems."""
        problems = self.problems
        if phase.failed:
            problems.append(f"{phase.failed} transactions failed: {phase.errors}")
        if phase.bad_replies:
            problems.append(f"invalid replies: {phase.bad_replies[:3]}")
        if not certify.get("all_ok"):
            problems.append("certify did not return all_ok")
        for cert in certify.get("certifications", []):
            flags = {k: cert.get(k) for k in ("certified", "state_ok", "witness_ok")}
            if not all(flags.values()):
                problems.append(f"certify of tenant {cert.get('tenant')}: {flags}")
        tenant = health["tenants"].get(BENCH_TENANT, {})
        if tenant.get("committed") != phase.commits:
            problems.append(
                f"server committed {tenant.get('committed')} but the client "
                f"saw {phase.commits} commit acks"
            )
        if tenant.get("open_sessions"):
            problems.append(f"{tenant['open_sessions']} sessions left open")
        if health["shed"]:
            problems.append(f"admission shed {health['shed']} begins")
        waits = _counter_total(after, "service.wait_retries")
        deadlines = _counter_total(after, "service.aborts", cause="deadline")
        if waits or deadlines:
            problems.append(f"wait_retries={waits} deadline aborts={deadlines}")
        if peak_rss > MEMORY_CEILING_MIB:
            problems.append(
                f"server peak RSS {peak_rss:.0f} MiB exceeds the "
                f"{MEMORY_CEILING_MIB:.0f} MiB ceiling"
            )

    def execute(self) -> tuple[dict, dict]:
        """All passes of the run; returns (report, metric values).

        The values are the end-to-end metrics, or with ``--trace 1`` the
        per-layer ones.
        """
        args = self.args
        diagnostics = {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "reference_loop_ms_before": reference_loop_ms(),
        }
        steal0 = steal_ticks()
        # One spawn warms the bytecode and page caches; not measured.
        self.setup_only()
        # Pass 0 runs last, so that with --trace 1 the traced pass over the
        # same inputs follows it directly: the tracing overhead compares
        # two adjacent passes rather than passes minutes of drift apart.
        order = [*range(1, self.passes), 0]
        records = {index: self.measured_pass(index, trace=False) for index in order}
        passes = [records[index] for index in range(self.passes)]
        traced = self.measured_pass(0, trace=True) if args.trace else None
        setups = [p["end_to_end"]["setup_s"] for p in passes]
        setups += [self.setup_only() for _ in range(SETUP_ONLY_SPAWNS)]
        diagnostics["steal_ticks"] = steal_ticks() - steal0
        diagnostics["reference_loop_ms_after"] = reference_loop_ms()

        counts = [p["counts"] for p in passes]
        if traced is not None and traced["counts"] != counts[0]:
            self.problems.append(
                f"tracing changed the outcome: {traced['counts']} vs {counts[0]}"
            )

        # Means, not medians: host drift and workload instances both vary
        # pass to pass, and over 10 seeds the mean of the passes spread
        # less than their median on most metrics (README.md, Passes).
        end_to_end = {
            name: statistics.fmean(p["end_to_end"][name] for p in passes)
            for name in passes[0]["end_to_end"]
        }
        end_to_end["setup_s"] = statistics.median(setups)
        untraced_layers = {
            name: statistics.fmean(p["layers"][name] for p in passes)
            for name in passes[0]["layers"]
        }
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "transactions": self.count,
            "sessions": SESSIONS,
            "passes": self.passes,
            "setup_samples_s": setups,
            "tail": passes[0]["tail"],
            "counts": counts,
            "end_to_end": end_to_end,
            "per_pass": [p["end_to_end"] for p in passes],
            "diagnostics": diagnostics,
            "problems": self.problems,
        }
        if traced is not None:
            # Overhead against the untraced pass over the same inputs.
            values, report["trace"] = layers.analyse(
                traced, untraced_layers, passes[0]["end_to_end"]["tx_per_s"]
            )
            return report, values
        report["layers_untraced"] = untraced_layers
        return report, end_to_end


def _printed_metrics(trace: bool) -> list[dict]:
    """Names and units this run prints, as ``BENCHMARK.json`` lists them."""
    contract = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return json.loads(contract.read_text())["per_layer" if trace else "end_to_end"]


def _terminate(signum: int, _frame) -> None:
    # Unwind through the passes' cleanup, which kills the server.
    raise BenchFailure(f"benchmark received signal {signum}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "server.py").is_file():
        print(
            "error: run from the root of a repro checkout (src/repro missing)",
            file=sys.stderr,
        )
        return 2
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args, work)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        report, values = run.execute()
    except BenchFailure as exc:
        # The interrupted pass's transactions all count as failed.
        run.problems.append(str(exc))
        print(json.dumps({"problems": run.problems}), flush=True)
        print(json.dumps({
            "correct": False,
            "attempted": run.attempted + run.count,
            "failed": run.failed + run.count,
            "metrics": {},
        }))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in _printed_metrics(bool(args.trace))
    }
    print(layers.render(report), flush=True)
    print(json.dumps(report, default=str), flush=True)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
