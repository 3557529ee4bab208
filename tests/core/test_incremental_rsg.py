"""Tests for the prefix-extension APIs: ``Schedule.prefix``,
``RelativeSerializationGraph.extended_with`` and ``IncrementalRsg``."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.dependency import DependencyRelation
from repro.core.operations import read, write
from repro.core.rsg import ArcKind, IncrementalRsg, RelativeSerializationGraph
from repro.core.schedules import Schedule
from repro.core.transactions import Transaction
from repro.errors import GraphError, InvalidScheduleError
from repro.specs.builders import absolute_spec, finest_spec


def _figure2_like():
    txs = [
        Transaction.from_notation(1, "r[x] w[x]"),
        Transaction.from_notation(2, "r[x] w[x]"),
        Transaction.from_notation(3, "r[x] w[y]"),
    ]
    return txs, finest_spec(txs)


def _edge_set(graph):
    return {(a, b, labels) for a, b, labels in graph.labelled_edges()}


class TestSchedulePrefix:
    def test_prefix_relaxes_completeness_only(self):
        txs, _spec = _figure2_like()
        prefix = Schedule.prefix(txs, [txs[0][0], txs[1][0]])
        assert not prefix.is_complete
        assert len(prefix) == 2
        with pytest.raises(InvalidScheduleError):
            # Program order still enforced.
            Schedule.prefix(txs, [txs[0][1]])

    def test_extended_with_becomes_complete_at_the_end(self):
        txs = [Transaction.from_notation(1, "r[x] w[x]")]
        prefix = Schedule.prefix(txs, [txs[0][0]])
        full = prefix.extended_with(txs[0][1])
        assert full.is_complete

    def test_dependency_extension_matches_scratch(self):
        txs, _spec = _figure2_like()
        order = [txs[0][0], txs[1][0], txs[2][0], txs[0][1], txs[1][1]]
        parent = Schedule.prefix(txs, order[:-1])
        child = parent.extended_with(order[-1])
        extended = DependencyRelation(parent).extended_with(child)
        scratch = DependencyRelation(child)
        for earlier in order:
            for later in order:
                assert extended.depends_on(later, earlier) == (
                    scratch.depends_on(later, earlier)
                )


class TestExtendedWith:
    def test_matches_from_scratch_construction(self):
        txs, spec = _figure2_like()
        order = [
            txs[0][0], txs[1][0], txs[2][0],
            txs[0][1], txs[1][1], txs[2][1],
        ]
        rsg = RelativeSerializationGraph(Schedule.prefix(txs, []), spec)
        for position, op in enumerate(order):
            rsg = rsg.extended_with(op)
            oracle = RelativeSerializationGraph(
                Schedule.prefix(txs, order[: position + 1]), spec
            )
            assert _edge_set(rsg.graph) == _edge_set(oracle.graph)
            assert rsg.is_acyclic == oracle.is_acyclic

    def test_requires_the_full_graph(self):
        txs, spec = _figure2_like()
        partial = RelativeSerializationGraph(
            Schedule.prefix(txs, []), spec, include_b_arcs=False
        )
        with pytest.raises(GraphError):
            partial.extended_with(txs[0][0])


class TestIncrementalRsg:
    def test_push_pop_roundtrip_restores_graph(self):
        txs, spec = _figure2_like()
        engine = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
        baseline = _edge_set(engine.graph)
        assert engine.try_push(txs[0][0])
        assert engine.try_push(txs[1][0])
        assert engine.try_push(txs[0][1])
        assert len(engine) == 3
        for _ in range(3):
            engine.pop()
        assert _edge_set(engine.graph) == baseline

    def test_rejection_is_exact_against_oracle(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x]"),
        ]
        spec = absolute_spec(txs)
        engine = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
        assert not engine.try_push(txs[1][1])
        witness = engine.last_rejected_cycle
        assert witness is not None and witness[0] == witness[-1]
        # Refusal left nothing behind: the op can be re-tried and the
        # answer is stable (monotonicity).
        assert not engine.try_push(txs[1][1])
        assert len(engine) == 3

    def test_push_uncertified_tracks_cyclic_extensions(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x] r[y]"),
        ]
        spec = absolute_spec(txs)
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
        assert not engine.try_push(txs[1][1])
        engine.push_uncertified(txs[1][1])
        assert not engine.acyclic
        assert engine.witness is not None
        engine.push_uncertified(txs[1][2])
        assert not engine.acyclic  # extensions of a cyclic prefix stay cyclic
        schedule = Schedule(txs, engine.history)
        view = engine.materialize(schedule)
        assert not view.is_acyclic
        # Popping back above the first uncertified op clears the state.
        engine.pop()
        engine.pop()
        assert engine.acyclic

    def test_materialized_dependency_matches_scratch(self):
        txs, spec = _figure2_like()
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        order = [txs[0][0], txs[2][0], txs[1][0], txs[2][1]]
        for op in order:
            assert engine.try_push(op)
        schedule = Schedule.prefix(txs, order)
        dependency = engine.dependency_for(schedule)
        scratch = DependencyRelation(schedule)
        assert list(dependency.pairs()) == list(scratch.pairs())


@st.composite
def _forget_scenarios(draw):
    """Three or four transactions over three objects with random cuts,
    plus a script of grants and restarts."""
    transactions = []
    for tx_id in range(1, draw(st.integers(3, 4)) + 1):
        ops = [
            (write if draw(st.booleans()) else read)(
                draw(st.sampled_from("xyz"))
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        transactions.append(Transaction(tx_id, ops))
    views = {
        (tx.tx_id, other.tx_id): [
            cut for cut in range(1, len(tx)) if draw(st.booleans())
        ]
        for tx in transactions
        for other in transactions
        if tx is not other
    }
    actions = draw(st.lists(st.integers(0, 30), min_size=5, max_size=40))
    return transactions, RelativeAtomicitySpec(transactions, views), actions


def _assert_matches_scratch(engine, txs, spec):
    """Arcs and ``depends-on`` of the engine's prefix equal scratch ones."""
    schedule = Schedule.prefix(txs, engine.history)
    scratch = DependencyRelation(schedule)
    assert list(engine.dependency_for(schedule).pairs()) == list(
        scratch.pairs()
    )
    oracle = RelativeSerializationGraph(schedule, spec)
    assert oracle.is_acyclic
    assert _edge_set(engine.graph) == _edge_set(oracle.graph)


class TestForget:
    @given(_forget_scenarios())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_forget_matches_scratch_dependency_and_arcs(self, scenario):
        """After every forget the maintained ``depends-on`` equals a
        scratch DependencyRelation and the arcs the offline RSG; popping
        the result back to empty matches the oracle at every prefix, so
        kept and re-pushed undo batches stay exact."""
        txs, spec, actions = scenario
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        cursor = dict.fromkeys((tx.tx_id for tx in txs), 0)
        programs = {tx.tx_id: tx.operations for tx in txs}
        for action in actions:
            tx_id = txs[action % len(txs)].tx_id
            if action % 6 == 0 or cursor[tx_id] == len(programs[tx_id]):
                before = list(engine.history)
                victim_ops = [op for op in before if op.tx == tx_id]
                dependency = DependencyRelation(Schedule.prefix(txs, before))
                dependents = [
                    op
                    for op in before
                    if op.tx != tx_id
                    and any(dependency.depends_on(op, v) for v in victim_ops)
                ]
                assert engine.forget(tx_id) == len(dependents)
                assert engine.history == [
                    op for op in before if op.tx != tx_id
                ]
                cursor[tx_id] = 0
                _assert_matches_scratch(engine, txs, spec)
                continue
            if engine.try_push(programs[tx_id][cursor[tx_id]]):
                cursor[tx_id] += 1
            else:
                engine.forget(tx_id)
                cursor[tx_id] = 0
                _assert_matches_scratch(engine, txs, spec)
        while len(engine):
            engine.pop()
            _assert_matches_scratch(engine, txs, spec)

    def test_repushed_dependent_widens_a_kept_arc(self):
        """A dependent's B-arc lands on an arc its transaction's kept
        operation created (as an F-arc): the re-push widens the mask and
        popping the dependent narrows it back."""
        txs = [
            Transaction.from_notation(1, "w[y]"),
            Transaction.from_notation(2, "w[x] w[y]"),
            Transaction.from_notation(3, "r[x] r[y] w[z]"),
        ]
        # T3 relative to T2 is cut before w3[z], so r3[x] r3[y] stay one
        # unit and PullBackward(r3[y], T2) is the kept r3[x].
        spec = RelativeAtomicitySpec(txs, {(3, 2): [2], (2, 1): [1]})
        w1y = txs[0][0]
        w2x, w2y = txs[1].operations
        r3x, r3y = txs[2][0], txs[2][1]
        engine = IncrementalRsg(spec, maintain_reach=True)
        for tx in txs:
            engine.add_transaction(tx)
        for op in (w1y, w2x, r3x, w2y, r3y):
            assert engine.try_push(op)
        # w2[x] and r3[x] never depended on w1[y]; w2[y] and r3[y] did.
        assert engine.forget(1) == 2
        assert engine.history == [w2x, r3x, w2y, r3y]
        _assert_matches_scratch(engine, txs, spec)
        assert engine.graph.edge_labels(w2y, r3x) == {
            ArcKind.PUSH_FORWARD, ArcKind.PULL_BACKWARD
        }
        assert engine.pop() is r3y
        # r3[x]'s kept F-arc survives the dependent's undo, B-bit gone.
        assert engine.graph.edge_labels(w2y, r3x) == {ArcKind.PUSH_FORWARD}
        _assert_matches_scratch(engine, txs, spec)
        while len(engine):
            engine.pop()
            _assert_matches_scratch(engine, txs, spec)

    def test_forget_of_an_absent_transaction_is_a_no_op(self):
        txs, spec = _figure2_like()
        engine = IncrementalRsg(spec)
        for tx in txs:
            engine.add_transaction(tx)
        assert engine.try_push(txs[0][0])
        assert engine.forget(2) == 0
        assert engine.history == [txs[0][0]]

    def test_forget_refuses_a_cyclic_prefix(self):
        txs = [
            Transaction.from_notation(1, "r[x] w[x]"),
            Transaction.from_notation(2, "r[x] w[x]"),
        ]
        engine = IncrementalRsg(absolute_spec(txs))
        for tx in txs:
            engine.add_transaction(tx)
        for op in (txs[0][0], txs[1][0], txs[0][1]):
            assert engine.try_push(op)
        assert not engine.try_push(txs[1][1])
        engine.push_uncertified(txs[1][1])
        with pytest.raises(GraphError):
            engine.forget(1)
