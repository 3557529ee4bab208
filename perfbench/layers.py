"""Per-layer metrics from a traced pass, and the human-readable report.

The traced server (``launch.py --trace``) writes one span per call of a
layer's public entry point, with the CPU time the call used.  A span's
*self time* is its CPU time minus that of its child spans; summing self
time by layer (the span name's part before the first dot) attributes
the server's measured-phase CPU to layers without double counting.
Coverage is that sum divided by the server's CPU time over the same
phase, as ``/proc/<pid>/stat`` reports it.  Per-call figures
(``tenant.step_us`` and the like) are CPU time including children.
"""

from __future__ import annotations

from collections import defaultdict

#: Layers whose self time is reported per commit, in request order.
LAYERS = (
    "loop", "server", "wire", "tenant", "spec", "scheduler", "certifier", "rsg",
    "kvstore", "obs",
)


class _Spans:
    """Aggregates of the spans that lie inside one time window."""

    def __init__(self, names: list[str], rows: list[list[int]], window) -> None:
        lo, hi = window
        covered = [0] * len(rows)
        for row in rows:
            if row[3] >= 0 and row[2] >= row[1]:
                covered[row[3]] += row[5]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: name -> [(start, CPU duration)] in call order.
        self.series: dict[str, list[tuple[int, int]]] = defaultdict(list)
        #: try_push calls made by ``certifier.forget`` (replays).
        self.replays = 0
        forget = names.index("certifier.forget") if "certifier.forget" in names else -1
        for index, (nid, start, end, parent, _txn, duration) in enumerate(rows):
            # end < start: still open when the spans were written.
            if start < lo or end > hi or end < start:
                continue
            name = names[nid]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - covered[index]
            self.series[name].append((start, duration))
            if name == "rsg.try_push" and parent >= 0 and rows[parent][0] == forget:
                self.replays += 1

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, value in self.self_ns.items():
            totals[name.split(".", 1)[0]] += value
        return totals


def _growth(series: list[tuple[int, int]]) -> float:
    """Mean duration of the last decile of calls over the first decile."""
    if len(series) < 10:
        return 0.0
    tenth = len(series) // 10
    first = sum(d for _, d in series[:tenth])
    last = sum(d for _, d in series[-tenth:])
    return last / first if first else 0.0


def _cost_growth(spans: _Spans) -> float:
    """Certifier time per commit, last quarter of commits over first."""
    commits = sorted(start for start, _ in spans.series.get("tenant.commit", []))
    if len(commits) < 8:
        return 0.0
    quarter = len(commits) // 4
    first_end = commits[quarter - 1]
    last_start = commits[len(commits) - quarter - 1]
    first = last = 0
    for name in ("certifier.try_certify", "certifier.forget"):
        for start, duration in spans.series.get(name, []):
            if start <= first_end:
                first += duration
            elif start > last_start:
                last += duration
    return last / first if first else 0.0


def analyse(traced: dict, untraced: dict, untraced_tx_per_s: float):
    """Per-layer metrics of one workload; returns (values, report).

    ``untraced`` holds the metrics read from the untraced passes
    (``inspect``, ``metrics``, ``health`` and the launcher's counters);
    the rest come from the traced pass's spans.
    """
    spans = traced["spans"]
    names, rows = spans["names"], spans["rows"]
    phase = traced["phase"]
    run = _Spans(names, rows, phase["window_ns"])
    cert = _Spans(names, rows, phase["certify_window_ns"])
    commits = max(phase["commits"], 1)
    requests = max(run.calls.get("server.dispatch", 0), 1)
    cpu_ns = phase["cpu_s"] * 1e9
    pushes = run.calls.get("rsg.try_push", 0)
    replay_spans = cert.series.get("certify.replay", [])
    layer_self = run.layer_self_ns()
    covered_ns = sum(layer_self.values())
    traced_tx_per_s = phase["commits"] / phase["wall_s"]

    values = dict(untraced)
    values.update(
        {
            "server.self_us_per_req": run.self_ns["server.dispatch"] / requests / 1e3,
            "tenant.new_session_us": run.mean_us("tenant.new_session"),
            "tenant.step_us": run.mean_us("tenant.step"),
            "tenant.commit_us": run.mean_us("tenant.commit"),
            "tenant.kill_us": run.mean_us("tenant.kill"),
            "spec.declare_us": run.mean_us("spec.declare"),
            "spec.declare_growth": _growth(run.series.get("spec.declare", [])),
            "scheduler.request_us": run.mean_us("scheduler.request"),
            "certifier.try_certify_us": run.mean_us("certifier.try_certify"),
            "certifier.forget_us": run.mean_us("certifier.forget"),
            "certifier.forget_share": run.total_ns["certifier.forget"] / cpu_ns
            if cpu_ns else 0.0,
            "certifier.replayed_per_commit": run.replays / commits,
            "certifier.useful_ratio": phase["committed_ops"] / pushes if pushes else 0.0,
            "certifier.cost_growth": _cost_growth(run),
            "rsg.try_push_us": run.mean_us("rsg.try_push"),
            "rsg.pushes_per_commit": pushes / commits,
            "rsg.pop_us": run.mean_us("rsg.pop"),
            "kvstore.read_us": run.mean_us("kvstore.read"),
            "kvstore.write_us": run.mean_us("kvstore.write"),
            "kvstore.commit_us": run.mean_us("kvstore.commit"),
            "kvstore.abort_us": run.mean_us("kvstore.abort"),
            "obs.events_per_commit": run.calls.get("obs.dispatch", 0) / commits,
            "obs.emit_us_per_req": (run.self_ns["obs.emit"] + run.self_ns["obs.dispatch"])
            / requests / 1e3,
            "obs.metrics_us_per_req": run.self_ns["obs.metrics"] / requests / 1e3,
            "certify.restrict_s": cert.total_ns["certify.restrict"] / 1e9,
            "certify.dependency_s": cert.total_ns["certify.dependency"] / 1e9,
            "certify.arcs_s": cert.total_ns["certify.arcs"] / 1e9,
            "certify.replay_s": replay_spans[0][1] / 1e9 if replay_spans else 0.0,
            "certify.witness_s": (
                cert.total_ns["certify.witness"]
                + sum(d for _, d in replay_spans[1:])
            ) / 1e9,
            "trace.coverage_pct": 100.0 * covered_ns / cpu_ns if cpu_ns else 0.0,
            "trace.overhead_pct": 100.0 * (untraced_tx_per_s / traced_tx_per_s - 1.0),
        }
    )
    for layer in LAYERS:
        values[f"{layer}.self_us_per_commit"] = layer_self.get(layer, 0) / commits / 1e3
    report = {
        "coverage_pct": values["trace.coverage_pct"],
        "meets_90pct_bar": values["trace.coverage_pct"] >= 90.0,
        "uncovered_ms_per_commit": max(cpu_ns - covered_ns, 0) / commits / 1e6,
        "uncovered_is": "interpreter and event-loop work outside any "
        "callback: select(), loop bookkeeping, garbage collection",
        "traced_tx_per_s": traced_tx_per_s,
        "untraced_tx_per_s": untraced_tx_per_s,
        "overhead_pct": values["trace.overhead_pct"],
        "server_cpu_ms_per_commit": cpu_ns / commits / 1e6,
        "layer_self_ms_per_commit": {
            layer: layer_self.get(layer, 0) / commits / 1e6
            for layer in sorted(layer_self, key=layer_self.get, reverse=True)
        },
        "spans": len(rows),
        "missing_entry_points": spans.get("missing", []),
    }
    return values, report


def render(report: dict) -> str:
    """A short plain-text summary printed before the JSON lines."""
    lines = [
        f"workload {report['workload']} seed {report['seed']}: "
        f"{report['transactions']} txns, {report['sessions']} sessions, "
        f"{report['passes']} passes",
    ]
    for name, value in report["end_to_end"].items():
        lines.append(f"  {name:<24} {value:14.4f}")
    tail = report["tail"]
    lines.append(
        f"  txn_tail_ms is p{tail['percentile']} of {tail['samples']} samples"
    )
    counts = report["counts"][0]
    lines.append(
        f"  counts: commits={counts['commits']} begins={counts['begins']} "
        f"aborts={counts['aborts']} requests={counts['requests']} "
        f"replayed={counts['replayed']} digest={counts['digest']} (pass 0)"
    )
    diag = report["diagnostics"]
    lines.append(
        f"  host: nproc={diag['nproc']} cpu={diag['cpu']!r} "
        f"python={diag['python']} steal_ticks={diag['steal_ticks']} "
        f"reference_loop_ms={diag['reference_loop_ms_before']}"
        f"->{diag['reference_loop_ms_after']}"
    )
    trace = report.get("trace")
    if trace is not None:
        lines.append(
            f"  trace: coverage {trace['coverage_pct']:.1f}% of server CPU "
            f"(bar 90%: {'met' if trace['meets_90pct_bar'] else 'NOT met'}; "
            f"uncovered {trace['uncovered_ms_per_commit']:.3f} ms/txn in "
            f"{trace['uncovered_is']}), overhead {trace['overhead_pct']:.1f}% "
            f"({trace['untraced_tx_per_s']:.1f} -> "
            f"{trace['traced_tx_per_s']:.1f} tx/s)"
        )
        for layer, ms in trace["layer_self_ms_per_commit"].items():
            lines.append(f"    self {layer:<10} {ms:9.4f} ms/txn")
    for problem in report["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)
