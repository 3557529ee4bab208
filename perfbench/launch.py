"""Run ``repro serve`` in this process, optionally with span tracing.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/launch.py --out DIR [--trace] -- serve --port 0 ...

Everything after ``--`` goes to the CLI's ``main`` unchanged, so the
server is the one ``repro serve`` builds.  The launcher adds two things:

* it keeps a reference to every tenant the server creates and, once the
  server has exited, writes ``DIR/stats.json`` with the counters no wire
  verb exposes (certifier replays and forgets, spec views).  This reads
  state after the run and costs the request path nothing;
* with ``--trace`` it wraps the public entry points of each layer
  (:data:`ENTRY_POINTS`) with ``perf_counter_ns`` spans, keeps the spans
  in memory, and writes them to ``DIR/spans.json`` when the drain
  starts, so the drain's own certification is not in the trace.

A span row is ``[name id, start ns, end ns, parent row or -1, txn or
-1, cpu ns]``.  Start and end are ``perf_counter_ns`` readings (the
clock the generator uses too), which place the span on the run's
timeline.  ``cpu ns`` is the thread CPU time the call used: the
generator shares the server's CPU and may run while a span is open, so
self time is computed from CPU time, not from end minus start.  The
transaction id is read from the call's arguments where the entry point
takes one, inherited from the parent otherwise, and handed up to a
parent that has none (so a request's root span carries the transaction
it served).  An entry point the program no longer has is listed under
``missing`` instead of failing the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

#: Hard address-space limit of the server process: a runaway server
#: fails with MemoryError (failed transactions) instead of exhausting a
#: shared host.  The benchmark's own peak-RSS ceiling is far below it.
ADDRESS_SPACE_LIMIT = 4 << 30


def _tx_id(args):
    """Of a Session or Transaction argument."""
    return args[1].tx_id


def _tx_arg(args):
    return args[1]


def _tx_of_op(args):
    return args[1].tx


#: (module, class or None, attribute, span name, transaction extractor).
#: Span names are ``<layer>.<entry point>``; the benchmark groups self
#: time by the part before the first dot.
ENTRY_POINTS = (
    # Every event-loop callback: socket reads and writes, stream framing
    # and task steps, i.e. the request handling around the dispatcher.
    ("asyncio.events", "Handle", "_run", "loop.callback", None),
    ("repro.service.server", "RsrServer", "_dispatch_line", "server.dispatch", None),
    ("repro.service.wire", None, "encode", "wire.encode", None),
    ("repro.service.tenant", "Tenant", "new_session", "tenant.new_session", _tx_arg),
    ("repro.service.tenant", "Tenant", "step", "tenant.step", _tx_id),
    ("repro.service.tenant", "Tenant", "commit", "tenant.commit", _tx_id),
    ("repro.service.tenant", "Tenant", "abort", "tenant.abort", _tx_id),
    ("repro.service.tenant", "Tenant", "_kill", "tenant.kill", _tx_arg),
    ("repro.service.tenant", "Tenant", "certify", "tenant.certify", None),
    ("repro.service.tenant", "Tenant", "stats", "tenant.stats", None),
    ("repro.core.atomicity", "RelativeAtomicitySpec", "declare_transaction", "spec.declare", _tx_id),
    ("repro.core.atomicity", "RelativeAtomicitySpec", "restricted_to", "certify.restrict", None),
    ("repro.protocols.base", "Scheduler", "admit", "scheduler.admit", _tx_id),
    ("repro.protocols.base", "Scheduler", "request", "scheduler.request", _tx_of_op),
    ("repro.protocols.base", "Scheduler", "finish", "scheduler.finish", _tx_arg),
    ("repro.protocols.base", "Scheduler", "remove", "scheduler.remove", _tx_arg),
    ("repro.protocols.base", "Scheduler", "snapshot", "scheduler.snapshot", None),
    ("repro.protocols.certifier", "RsgCertifier", "declare", "certifier.declare", _tx_id),
    ("repro.protocols.certifier", "RsgCertifier", "try_certify", "certifier.try_certify", _tx_of_op),
    ("repro.protocols.certifier", "RsgCertifier", "forget", "certifier.forget", _tx_arg),
    ("repro.core.rsg", "IncrementalRsg", "add_transaction", "rsg.add_transaction", _tx_id),
    ("repro.core.rsg", "IncrementalRsg", "try_push", "rsg.try_push", _tx_of_op),
    ("repro.core.rsg", "IncrementalRsg", "pop", "rsg.pop", None),
    ("repro.engine.kvstore", "KVStore", "begin", "kvstore.begin", _tx_arg),
    ("repro.engine.kvstore", "KVStore", "read", "kvstore.read", _tx_arg),
    ("repro.engine.kvstore", "KVStore", "write", "kvstore.write", _tx_arg),
    ("repro.engine.kvstore", "KVStore", "commit", "kvstore.commit", _tx_arg),
    ("repro.engine.kvstore", "KVStore", "abort", "kvstore.abort", _tx_arg),
    ("repro.obs.metrics", "MetricsRegistry", "inc", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry", "observe", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry", "hist", "obs.metrics", None),
    ("repro.obs.bus", "TraceBus", "emit", "obs.emit", None),
    ("repro.core.dependency", "DependencyRelation", "__init__", "certify.dependency", None),
    ("repro.core.rsg", "RelativeSerializationGraph", "__init__", "certify.rsg", None),
    ("repro.core.rsg", "RelativeSerializationGraph", "_build_arcs", "certify.arcs", None),
    ("repro.core.rsg", "RelativeSerializationGraph", "equivalent_relatively_serial_schedule", "certify.witness", None),
    ("repro.engine.executor", "ScheduleExecutor", "run", "certify.replay", None),
)


class Tracer:
    """Span recorder: one row per call of a wrapped entry point."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.rows: list[list[int]] = []
        self.missing: list[str] = []
        self.recording = True
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, txn_of, args) -> tuple[list[int], int]:
        stack = self._stack
        parent = stack[-1] if stack else -1
        txn = -1
        if txn_of is not None:
            txn = txn_of(args)
        elif parent >= 0:
            txn = self.rows[parent][4]
        row = [nid, 0, 0, parent, txn, 0]
        index = len(self.rows)
        stack.append(index)
        self.rows.append(row)
        row[1] = time.perf_counter_ns()
        row[5] = time.thread_time_ns()
        return row, index

    def _close(self, row: list[int], index: int) -> None:
        row[5] = time.thread_time_ns() - row[5]
        row[2] = time.perf_counter_ns()
        stack = self._stack
        if stack[-1] == index:
            stack.pop()
        else:  # a coroutine span closing after its task was suspended
            stack.remove(index)
        parent = row[3]
        if parent >= 0 and row[4] >= 0 and self.rows[parent][4] < 0:
            self.rows[parent][4] = row[4]

    def wrap(self, fn, name: str, txn_of=None):
        """``fn`` with a span around every call made while recording."""
        nid = self._name_id(name)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not self.recording:
                    return await fn(*args, **kwargs)
                row, index = self._open(nid, txn_of, args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(row, index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            row, index = self._open(nid, txn_of, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row, index)

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` that exists."""
        for module_name, class_name, attr, name, txn_of in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(
                    ".".join(filter(None, (module_name, class_name, attr)))
                )
                continue
            setattr(owner, attr, self.wrap(fn, name, txn_of))
        self._install_dispatch()

    def _install_dispatch(self) -> None:
        from repro.obs.bus import TraceBus

        rebuild = getattr(TraceBus, "_rebuild_dispatch", None)
        if rebuild is None:
            self.missing.append("repro.obs.bus.TraceBus._rebuild_dispatch")
            return

        def traced_rebuild(bus) -> None:
            rebuild(bus)
            # The sink fan-out that TraceBus.emit and the scheduler's
            # inlined emit sites both call.
            if bus._dispatch is not None:
                bus._dispatch = self.wrap(bus._dispatch, "obs.dispatch")

        TraceBus._rebuild_dispatch = traced_rebuild

    def dump(self, path: Path) -> None:
        """Stop recording and write every span to ``path`` as JSON."""
        self.recording = False
        path.write_text(
            json.dumps(
                {"names": self.names, "rows": self.rows, "missing": self.missing},
                separators=(",", ":"),
            )
        )


def _tenant_stats(tenant) -> dict:
    """Counters of one tenant that no wire verb reports."""
    certifier = getattr(tenant.scheduler, "_certifier", None)
    stats = getattr(certifier, "stats", None)
    views = getattr(tenant.spec, "_views", None)
    return {
        "forgets": getattr(stats, "forgets", None),
        "replayed": getattr(stats, "replayed", None),
        "fallback_rebuilds": getattr(stats, "fallback_rebuilds", None),
        "spec_views": len(views) if views is not None else None,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    resource.setrlimit(
        resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT)
    )
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro import cli
    from repro.service.server import RsrServer

    tenants = []
    make_tenant = RsrServer._make_tenant

    def recording_make_tenant(self, *a, **kw):
        tenant = make_tenant(self, *a, **kw)
        tenants.append(tenant)
        return tenant

    RsrServer._make_tenant = recording_make_tenant

    if args.trace:
        tracer = Tracer()
        tracer.install()
        drain = RsrServer.drain

        async def dumping_drain(self, *a, **kw):
            if tracer.recording:
                tracer.dump(args.out / "spans.json")
            return await drain(self, *a, **kw)

        RsrServer.drain = dumping_drain

    code = cli.main(serve_args)
    (args.out / "stats.json").write_text(
        json.dumps({tenant.name: _tenant_stats(tenant) for tenant in tenants})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
