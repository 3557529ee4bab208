"""Hypothesis equivalence: incremental certifier vs from-scratch RSG.

Drives :class:`~repro.protocols.certifier.RsgCertifier` through random
admit/grant/restart sequences (including the abort-and-retry path that
exercises ``forget``) and checks, after every event, that the
certifier's state is exactly what rebuilding the relative serialization
graph from scratch over the granted prefix would give:

* same labelled arc set,
* grant/reject decisions match offline RSG acyclicity (Theorem 1),
* ``forget`` drops exactly the victim's operations, preserving order,
  and re-pushes exactly the survivors that depend on a victim operation
  (``stats.replayed``), counted by an offline ``DependencyRelation``.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.dependency import DependencyRelation
from repro.core.operations import read, write
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.protocols.certifier import RsgCertifier

OBJECTS = ("x", "y")

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenarios(draw):
    """A workload plus a random schedule-and-restart driver script."""
    n = draw(st.integers(2, 3))
    transactions = []
    for tx_id in range(1, n + 1):
        length = draw(st.integers(1, 3))
        ops = []
        for _ in range(length):
            obj = draw(st.sampled_from(OBJECTS))
            ops.append(write(obj) if draw(st.booleans()) else read(obj))
        transactions.append(Transaction(tx_id, ops))
    views = {}
    for tx in transactions:
        for other in transactions:
            if tx.tx_id == other.tx_id:
                continue
            cuts = [
                position
                for position in range(1, len(tx))
                if draw(st.booleans())
            ]
            views[(tx.tx_id, other.tx_id)] = cuts
    spec = RelativeAtomicitySpec(transactions, views)
    actions = draw(st.lists(st.integers(0, 20), min_size=5, max_size=40))
    return transactions, spec, actions


def _edge_set(graph):
    return {
        (source, target, labels)
        for source, target, labels in graph.labelled_edges()
    }


def _assert_matches_oracle(certifier, transactions, spec):
    """The certifier state must equal the from-scratch RSG."""
    schedule = Schedule.prefix(transactions, certifier.history)
    oracle = RelativeSerializationGraph(schedule, spec)
    assert oracle.is_acyclic
    assert _edge_set(certifier.graph) == _edge_set(oracle.graph)


def _victim_dependents(transactions, history, victim):
    """Survivors of ``history`` that depend on an operation of ``victim``."""
    dependency = DependencyRelation(Schedule.prefix(transactions, history))
    victim_ops = [op for op in history if op.tx == victim]
    return sum(
        1
        for op in history
        if op.tx != victim
        and any(dependency.depends_on(op, v) for v in victim_ops)
    )


def _forget(certifier, transactions, tx_id):
    """``certifier.forget(tx_id)``, pinning its work: it re-pushes the
    victim's dependents and no other survivor."""
    expected = _victim_dependents(transactions, certifier.history, tx_id)
    before = certifier.stats.replayed
    certifier.forget(tx_id)
    assert certifier.stats.replayed - before == expected


@given(scenarios())
@_SETTINGS
def test_certifier_agrees_with_offline_rsg(scenario):
    transactions, spec, actions = scenario
    certifier = RsgCertifier(spec)
    for transaction in transactions:
        certifier.declare(transaction)
    cursor = {tx.tx_id: 0 for tx in transactions}
    programs = {tx.tx_id: tx.operations for tx in transactions}
    tx_ids = sorted(programs)

    for action in actions:
        tx_id = tx_ids[action % len(tx_ids)]
        if action % 7 == 0 and cursor[tx_id] > 0:
            # Voluntary restart: exercises forget on a victim with
            # granted operations anywhere in the history.
            history_before = certifier.history
            victim_ops = set(programs[tx_id])
            _forget(certifier, transactions, tx_id)
            expected = tuple(
                op for op in history_before if op not in victim_ops
            )
            assert certifier.history == expected
            cursor[tx_id] = 0
            _assert_matches_oracle(certifier, transactions, spec)
            continue
        if cursor[tx_id] >= len(programs[tx_id]):
            continue
        op = programs[tx_id][cursor[tx_id]]
        tentative = Schedule.prefix(
            transactions, list(certifier.history) + [op]
        )
        should_grant = RelativeSerializationGraph(tentative, spec).is_acyclic
        granted = certifier.try_certify(op)
        assert granted == should_grant
        if granted:
            cursor[tx_id] += 1
        else:
            # Protocol behaviour: rejection is final, the requester
            # aborts and restarts from its first operation.
            assert certifier.last_rejected_cycle is not None
            _forget(certifier, transactions, tx_id)
            cursor[tx_id] = 0
        _assert_matches_oracle(certifier, transactions, spec)

    # The defensive rebuild path must never have fired: forget's
    # re-pushes are provably infallible.
    assert certifier.stats.fallback_rebuilds == 0


@given(scenarios())
@_SETTINGS
def test_forget_equals_fresh_certifier(scenario):
    """After any forget, state equals a fresh certifier fed the survivors."""
    transactions, spec, actions = scenario
    certifier = RsgCertifier(spec)
    for transaction in transactions:
        certifier.declare(transaction)
    cursor = {tx.tx_id: 0 for tx in transactions}
    programs = {tx.tx_id: tx.operations for tx in transactions}
    tx_ids = sorted(programs)
    for action in actions:
        tx_id = tx_ids[action % len(tx_ids)]
        if cursor[tx_id] >= len(programs[tx_id]):
            continue
        if not certifier.try_certify(programs[tx_id][cursor[tx_id]]):
            break
        cursor[tx_id] += 1
    victim = tx_ids[actions[0] % len(tx_ids)]
    _forget(certifier, transactions, victim)
    fresh = RsgCertifier(spec)
    for transaction in transactions:
        fresh.declare(transaction)
    for op in certifier.history:
        assert fresh.try_certify(op)
    assert _edge_set(certifier.graph) == _edge_set(fresh.graph)


@given(scenarios())
@_SETTINGS
def test_churn_reuses_node_ids_and_matches_oracle(scenario):
    """Forget/undeclare/redeclare churn reuses freelisted node ids.

    The flat engine's boundedness claim: ``node_capacity`` is pinned by
    the peak live declaration set, not the cumulative number of
    declarations — and a certifier whose victim cycled through released
    and re-acquired ids still agrees with the from-scratch RSG.
    """
    transactions, spec, actions = scenario
    certifier = RsgCertifier(spec)
    for transaction in transactions:
        certifier.declare(transaction)
    peak_capacity = certifier.node_capacity
    assert peak_capacity == sum(len(tx) for tx in transactions)

    by_id = {tx.tx_id: tx for tx in transactions}
    cursor = {tx.tx_id: 0 for tx in transactions}
    tx_ids = sorted(by_id)
    for action in actions:
        tx_id = tx_ids[action % len(tx_ids)]
        if action % 5 == 0:
            # Full retirement round-trip: the victim's node ids go to
            # the freelist and the redeclare must get them back.
            _forget(certifier, transactions, tx_id)
            certifier.undeclare(tx_id)
            cursor[tx_id] = 0
            assert all(op.tx != tx_id for op in certifier.history)
            certifier.declare(by_id[tx_id])
            assert certifier.node_capacity == peak_capacity
            _assert_matches_oracle(certifier, transactions, spec)
            continue
        if cursor[tx_id] >= len(by_id[tx_id]):
            continue
        op = by_id[tx_id].operations[cursor[tx_id]]
        tentative = Schedule.prefix(
            transactions, list(certifier.history) + [op]
        )
        should_grant = RelativeSerializationGraph(
            tentative, spec
        ).is_acyclic
        granted = certifier.try_certify(op)
        assert granted == should_grant
        if granted:
            cursor[tx_id] += 1
        else:
            _forget(certifier, transactions, tx_id)
            cursor[tx_id] = 0
        _assert_matches_oracle(certifier, transactions, spec)

    # Churn never grew the id arrays past the initial declaration set.
    assert certifier.node_capacity == peak_capacity
