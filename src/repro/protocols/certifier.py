"""Incremental RSG certification shared by the online protocols.

Maintains the relative serialization graph over the declared operations
of admitted transactions, with D/F/B arcs derived incrementally from the
granted history.  Used by :class:`~repro.protocols.rsgt.RSGTScheduler`
(pure certification) and
:class:`~repro.protocols.relative_locking.RelativeLockingScheduler`
(locking for blocking discipline + certification for soundness).

The heavy lifting lives in :class:`~repro.core.rsg.IncrementalRsg`: a
Pearce–Kelly incrementally ordered graph certifies each granted
operation in amortized sub-linear time (no graph copy, no full DFS), and
``forget`` (restarting a victim) is the engine's dependents-only
removal: it undoes the arcs of the victim and of the survivors that
depend on it, re-pushes only those dependents, and leaves every other
survivor's arcs in place (see :meth:`IncrementalRsg.forget
<repro.core.rsg.IncrementalRsg.forget>`).

A key monotonicity fact makes online use sound: granting more operations
only ever *adds* arcs, so an operation whose tentative insertion closes
a cycle will close it forever — certification failures are final and the
requester must abort, never wait.  The same fact makes the re-pushes of
``forget`` infallible: the survivors' arc set is a subset of the arcs
the graph already held acyclically, so re-pushing them cannot close a
cycle.  A from-scratch :meth:`RsgCertifier.rebuild` is kept purely as a
defensive fallback (and for tests); :attr:`RsgCertifier.stats` records
if it ever fires.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.operations import Operation
from repro.core.rsg import ArcKind, IncrementalRsg
from repro.core.transactions import Transaction
from repro.errors import CycleError
from repro.graphs.incremental import IncrementalDiGraph
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import EventKind, Reason
from repro.obs.explain import RejectionWitness, witness_from_certifier

__all__ = ["CertifierStats", "RsgCertifier"]

#: Interned verdict extras: one of these rides on every certification
#: event, so building the nested tuple per call is pure hot-path waste.
_OK_EXTRA = (("ok", True),)
_REJECT_EXTRA = (("ok", False),)


@dataclass
class CertifierStats:
    """Operational counters of one :class:`RsgCertifier`.

    ``replayed`` counts the survivors ``forget`` re-pushed through the
    engine's ``try_push`` (the victim's dependents; survivors that never
    depended on the victim keep their arcs and are not counted).
    ``fallback_rebuilds`` should stay zero: those re-pushes are provably
    infallible (see the module docstring), so a non-zero count means the
    defensive path fired on a bug worth investigating.
    """

    certified: int = 0
    rejected: int = 0
    forgets: int = 0
    replayed: int = 0
    fallback_rebuilds: int = 0


class RsgCertifier:
    """Incremental relative-serialization-graph acyclicity checking.

    Args:
        spec: the relative atomicity specification covering every
            transaction that will be declared.
    """

    def __init__(self, spec: RelativeAtomicitySpec) -> None:
        self._spec = spec
        self._engine = IncrementalRsg(spec)
        self._declared: dict[int, Transaction] = {}
        self._stats = CertifierStats()
        # Memoized (rejection count, Reason) of the last rejection: the
        # reason is read at least twice per rejection (once for the
        # verdict event, once for the abort Outcome), and building the
        # labelled witness is the expensive part of a rejection.
        self._reason_cache: tuple[int, Reason | None] = (0, None)
        #: Trace bus certification events are emitted to (owning
        #: schedulers propagate theirs through ``_on_bus_change``).
        self.bus: TraceBus = NULL_BUS

    @property
    def graph(self) -> IncrementalDiGraph:
        """The current RSG over all declared operations."""
        return self._engine.graph

    @property
    def history(self) -> tuple[Operation, ...]:
        """The certified (granted) operations, in order."""
        return tuple(self._engine.history)

    @property
    def stats(self) -> CertifierStats:
        """Operational counters (grants, rejections, restarts)."""
        return self._stats

    @property
    def last_rejected_cycle(self) -> list[Operation] | None:
        """Witness cycle from the most recent refused certification."""
        return self._engine.last_rejected_cycle

    @property
    def node_capacity(self) -> int:
        """Node-id slots the engine ever allocated (live + freelisted).

        Bounded by the peak concurrently-declared operation count under
        declare/undeclare churn — the freelist reuses released ids.
        """
        return self._engine.node_capacity

    def rsg_summary(self) -> dict[str, object]:
        """A compact census of the in-flight RSG for live introspection.

        ``nodes``/``arcs`` describe the live graph (arc counts keyed by
        I/D/F/B kind), ``history`` the certified-prefix length,
        ``certified``/``rejected`` the lifetime verdict counters, and
        ``forgets``/``replayed`` the abort-path work (victims removed,
        dependents re-pushed).  Walks the flat engine's arc masks —
        O(arcs), no graph materialization — so the ``inspect`` service
        verb can call it on a busy server.
        """
        arcs = self._engine.arc_census()
        stats = self._stats
        return {
            "nodes": self._engine.node_count,
            "arcs": arcs,
            "arc_total": sum(arcs.values()),
            "history": len(self._engine),
            "certified": stats.certified,
            "rejected": stats.rejected,
            "forgets": stats.forgets,
            "replayed": stats.replayed,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def declare(self, transaction: Transaction) -> None:
        """Add a transaction's vertices and I-arcs to the graph."""
        self._declared[transaction.tx_id] = transaction
        self._engine.add_transaction(transaction)

    def undeclare(self, tx_id: int) -> None:
        """Remove a declared transaction's vertices and I-arcs entirely.

        The inverse of :meth:`declare`, for callers that retire a
        transaction for good (permanent abort) rather than restarting
        it.  The transaction must hold no certified operations — call
        :meth:`forget` first.  The engine returns the freed node ids to
        its freelist, so long campaigns with transaction churn keep the
        graph's node arrays bounded by the live set.
        """
        self._engine.remove_transaction(tx_id)
        del self._declared[tx_id]

    def try_certify(self, op: Operation) -> bool:
        """Tentatively append ``op``; commit the arcs iff still acyclic.

        Returns ``True`` (op recorded) or ``False`` (graph unchanged;
        by monotonicity the op can never be certified in this
        incarnation).
        """
        bus = self.bus
        if bus.active:
            bus.emit(
                EventKind.CERTIFY_ATTEMPT, op.tx, op.label, "certifier"
            )
        if self._engine.try_push(op):
            self._stats.certified += 1
            if bus.active:
                bus.emit(
                    EventKind.CERTIFY_VERDICT,
                    op.tx,
                    op.label,
                    "certifier",
                    None,
                    _OK_EXTRA,
                )
            return True
        self._stats.rejected += 1
        if bus.active:
            bus.emit(
                EventKind.CERTIFY_VERDICT,
                tx=op.tx,
                op=op.label,
                protocol="certifier",
                reason=self.rejection_reason(),
                extra=_REJECT_EXTRA,
            )
        return False

    def labelled_witness(
        self,
    ) -> list[tuple[Operation, Operation, frozenset[ArcKind]]] | None:
        """The last rejection's cycle with per-arc I/D/F/B labels.

        Includes the refused arcs that were rolled back before entering
        the graph (the engine remembers the rejected push's tentative
        arc set).  ``None`` when no rejection has happened.
        """
        return self._engine.labelled_rejection()

    def rejection_reason(self) -> Reason | None:
        """The last rejection as a :class:`~repro.obs.events.Reason`.

        Carries the implicated transaction ids (ascending) and the
        labelled witness cycle; ``None`` when no rejection has happened.
        """
        key, cached = self._reason_cache
        if key == self._stats.rejected:
            return cached
        witness = self.last_rejected_witness
        if witness is None:
            return None
        cycle = self._engine.last_rejected_cycle or []
        blockers = tuple(sorted({op.tx for op in cycle}))
        reason = Reason(
            "rsg-cycle", blockers=blockers, cycle=witness.reason_cycle()
        )
        self._reason_cache = (self._stats.rejected, reason)
        return reason

    @property
    def last_rejected_witness(self) -> RejectionWitness | None:
        """Labelled witness of the most recent refused certification."""
        return witness_from_certifier(self)

    def reset(self) -> None:
        """Forget the entire certified history, keeping declarations.

        The warm-worker reuse hook: a pooled certifier serving repeated
        runs over the same transaction set is reset between runs
        instead of rebuilt, so the engine's allocated node ids and
        buffers survive (see :meth:`IncrementalRsg.reset
        <repro.core.rsg.IncrementalRsg.reset>`).  Counters restart at
        zero — a reset certifier reports the new run's stats only.
        """
        self._engine.reset()
        self._stats = CertifierStats()
        self._reason_cache = (0, None)

    def forget(self, tx_id: int) -> None:
        """Drop a victim's granted operations, keeping everyone else's.

        The transaction stays declared (its vertices and I-arcs remain),
        matching restart semantics.  Delegates to the engine's
        dependents-only :meth:`~repro.core.rsg.IncrementalRsg.forget`:
        the cost is the victim's and its dependents' arcs plus record
        keeping for the popped suffix, not a re-insertion of every
        survivor.
        """
        self._stats.forgets += 1
        engine = self._engine
        self._stats.replayed += engine.forget(tx_id)
        if not engine.acyclic:  # pragma: no cover - provably unreachable
            self._stats.fallback_rebuilds += 1
            self.rebuild(list(self._declared.values()), list(engine.history))

    def rebuild(
        self,
        transactions: Iterable[Transaction],
        history: Iterable[Operation],
    ) -> None:
        """Reconstruct certifier state from scratch for the given history.

        Raises:
            CycleError: when the given history is not certifiable (it
                closes an RSG cycle), carrying the witness.
        """
        self._engine = IncrementalRsg(self._spec)
        self._declared = {}
        self._reason_cache = (-1, None)
        for transaction in transactions:
            self.declare(transaction)
        for op in history:
            if not self._engine.try_push(op):
                raise CycleError(
                    f"rebuild history is not certifiable at {op!r}",
                    cycle=self._engine.last_rejected_cycle,
                )
