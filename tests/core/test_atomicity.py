"""Unit tests for atomic units and relative atomicity specifications."""

import itertools

import pytest

from repro.core.atomicity import Atomicity, AtomicUnit, RelativeAtomicitySpec
from repro.core.transactions import Transaction
from repro.errors import InvalidSpecError, MissingSpecError


@pytest.fixture()
def t1():
    return Transaction.from_notation(1, "r[x] w[x] w[z] r[y]")


@pytest.fixture()
def t2():
    return Transaction.from_notation(2, "r[y] w[y] r[x]")


class TestAtomicUnit:
    def test_contains_index(self):
        unit = AtomicUnit(tx=1, ordinal=1, start=1, end=3)
        assert unit.contains_index(1)
        assert unit.contains_index(3)
        assert not unit.contains_index(0)
        assert not unit.contains_index(4)

    def test_contains_operation(self, t1):
        unit = AtomicUnit(tx=1, ordinal=1, start=0, end=1)
        assert unit.contains(t1[0])
        assert not unit.contains(t1[2])

    def test_contains_rejects_other_transaction(self, t1, t2):
        unit = AtomicUnit(tx=1, ordinal=1, start=0, end=3)
        assert not unit.contains(t2[0])

    def test_operations_slices_transaction(self, t1):
        unit = AtomicUnit(tx=1, ordinal=2, start=2, end=3)
        assert [op.label for op in unit.operations(t1)] == ["w1[z]", "r1[y]"]

    def test_operations_rejects_wrong_transaction(self, t1, t2):
        unit = AtomicUnit(tx=1, ordinal=1, start=0, end=1)
        with pytest.raises(InvalidSpecError):
            unit.operations(t2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidSpecError):
            AtomicUnit(tx=1, ordinal=1, start=2, end=1)

    def test_size(self):
        assert AtomicUnit(tx=1, ordinal=1, start=2, end=4).size == 3


class TestAtomicity:
    def test_absolute_has_one_unit(self):
        view = Atomicity(1, 2, length=4)
        assert view.is_absolute
        assert len(view.units) == 1
        assert view.units[0].start == 0
        assert view.units[0].end == 3

    def test_breakpoints_split_units(self):
        view = Atomicity(1, 2, length=4, breakpoints=[2])
        assert [(unit.start, unit.end) for unit in view.units] == [
            (0, 1),
            (2, 3),
        ]
        assert view.unit(1).ordinal == 1
        assert view.unit(2).ordinal == 2

    def test_finest_view(self):
        view = Atomicity(1, 2, length=3, breakpoints=[1, 2])
        assert view.is_finest
        assert all(unit.size == 1 for unit in view.units)

    def test_unit_of_index(self):
        view = Atomicity(1, 2, length=4, breakpoints=[2, 3])
        assert view.unit_of(0) is view.units[0]
        assert view.unit_of(1) is view.units[0]
        assert view.unit_of(2) is view.units[1]
        assert view.unit_of(3) is view.units[2]

    def test_unit_of_out_of_range(self):
        view = Atomicity(1, 2, length=2)
        with pytest.raises(InvalidSpecError):
            view.unit_of(2)

    def test_push_and_pull_indices(self):
        # Paper example: PushForward(r1[x], T2) = w1[x],
        # PullBackward(r1[y], T2) = w1[z] under Atomicity(T1, T2) =
        # [r1[x] w1[x]] [w1[z] r1[y]].
        view = Atomicity(1, 2, length=4, breakpoints=[2])
        assert view.push_forward_index(0) == 1
        assert view.pull_backward_index(3) == 2

    def test_rejects_self_view(self):
        with pytest.raises(InvalidSpecError):
            Atomicity(1, 1, length=3)

    def test_rejects_out_of_range_breakpoint(self):
        with pytest.raises(InvalidSpecError):
            Atomicity(1, 2, length=3, breakpoints=[3])
        with pytest.raises(InvalidSpecError):
            Atomicity(1, 2, length=3, breakpoints=[0])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidSpecError):
            Atomicity(1, 2, length=0)

    def test_render_uses_pipe_separator(self, t1):
        view = Atomicity(1, 2, length=4, breakpoints=[2])
        assert view.render(t1) == "r1[x] w1[x] | w1[z] r1[y]"

    def test_equality(self):
        a = Atomicity(1, 2, 4, [2])
        b = Atomicity(1, 2, 4, [2])
        c = Atomicity(1, 2, 4, [1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestRelativeAtomicitySpec:
    def test_defaults_to_absolute(self, t1, t2):
        spec = RelativeAtomicitySpec([t1, t2])
        assert spec.atomicity(1, 2).is_absolute
        assert spec.is_absolute

    def test_accepts_breakpoint_iterables(self, t1, t2):
        spec = RelativeAtomicitySpec([t1, t2], {(1, 2): [2]})
        assert spec.atomicity(1, 2).breakpoints == {2}
        assert spec.atomicity(2, 1).is_absolute
        assert not spec.is_absolute

    def test_accepts_view_notation_strings(self, t1, t2):
        spec = RelativeAtomicitySpec(
            [t1, t2], {(1, 2): "r[x] w[x] | w[z] r[y]"}
        )
        assert spec.atomicity(1, 2).breakpoints == {2}

    def test_view_notation_must_match_program(self, t1, t2):
        with pytest.raises(InvalidSpecError):
            RelativeAtomicitySpec([t1, t2], {(1, 2): "w[x] r[x] | w[z] r[y]"})

    def test_view_notation_must_cover_program(self, t1, t2):
        with pytest.raises(InvalidSpecError):
            RelativeAtomicitySpec([t1, t2], {(1, 2): "r[x] w[x]"})

    def test_view_notation_rejects_leading_separator(self, t1, t2):
        with pytest.raises(InvalidSpecError):
            RelativeAtomicitySpec([t1, t2], {(1, 2): "| r[x] w[x] w[z] r[y]"})

    def test_rejects_unknown_transactions(self, t1, t2):
        with pytest.raises(InvalidSpecError):
            RelativeAtomicitySpec([t1, t2], {(1, 9): [1]})

    def test_rejects_self_pair(self, t1, t2):
        with pytest.raises(InvalidSpecError):
            RelativeAtomicitySpec([t1, t2], {(1, 1): [1]})

    def test_atomicity_of_unknown_transaction(self, t1, t2):
        spec = RelativeAtomicitySpec([t1, t2])
        with pytest.raises(MissingSpecError):
            spec.atomicity(9, 1)

    def test_push_forward_and_pull_backward(self, fig1):
        spec = fig1.spec
        t1 = spec.transactions[1]
        # Paper, Section 3: PushForward(r1[x], T2) is w1[x] and
        # PullBackward(r1[y], T2) is w1[z].
        assert spec.push_forward(t1[0], observer=2) == t1[1]
        assert spec.pull_backward(t1[3], observer=2) == t1[2]

    def test_unit_of_requires_bound_operation(self, t1, t2):
        from repro.core.operations import read

        spec = RelativeAtomicitySpec([t1, t2])
        with pytest.raises(InvalidSpecError):
            spec.unit_of(read("x"), observer=2)

    def test_pairs_enumerates_ordered_pairs(self, t1, t2):
        spec = RelativeAtomicitySpec([t1, t2])
        assert set(spec.pairs()) == {(1, 2), (2, 1)}

    def test_render_lists_all_views(self, fig1):
        rendered = fig1.spec.render()
        assert "Atomicity(T1, T2): r1[x] w1[x] | w1[z] r1[y]" in rendered
        assert rendered.count("Atomicity(") == 6


class TestDeclareTransaction:
    """A spec grown one ``declare_transaction`` at a time answers exactly
    like one built at construction time with the views the declared cut
    sets induce, whatever the arrival order."""

    PROGRAMS = {
        1: ("r[x] w[x] w[z] r[y]", (2,)),
        2: ("r[y] w[y] r[x]", (1, 2)),
        3: ("w[z] r[x]", ()),
        4: ("r[z]", ()),
    }

    @classmethod
    def _transactions(cls):
        return {
            tx_id: Transaction.from_notation(tx_id, text)
            for tx_id, (text, _) in cls.PROGRAMS.items()
        }

    @classmethod
    def _built(cls):
        txs = cls._transactions()
        views = {
            (tx_id, observer): cuts
            for tx_id, (_, cuts) in cls.PROGRAMS.items()
            for observer in txs
            if observer != tx_id and cuts
        }
        return RelativeAtomicitySpec(list(txs.values()), views)

    @staticmethod
    def _assert_same(grown, built):
        assert grown.pairs() == built.pairs()
        for tx_id, observer in built.pairs():
            assert grown.atomicity(tx_id, observer) == built.atomicity(
                tx_id, observer
            )
            for op in built.transactions[tx_id].operations:
                assert grown.push_forward(op, observer) == built.push_forward(
                    op, observer
                )
                assert grown.pull_backward(
                    op, observer
                ) == built.pull_backward(op, observer)
        assert grown.render() == built.render()

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(PROGRAMS))[::5]
    )
    def test_growth_matches_construction(self, order):
        txs = self._transactions()
        grown = RelativeAtomicitySpec([])
        for tx_id in order:
            grown.declare_transaction(txs[tx_id], self.PROGRAMS[tx_id][1])
            # Reading views mid-growth must not freeze them against
            # observers that arrive later.
            for pair in grown.pairs():
                grown.atomicity(*pair)
        built = self._built()
        self._assert_same(grown, built)
        for tx_id, (_, cuts) in self.PROGRAMS.items():
            assert grown.declared_cuts(tx_id) == cuts

    @pytest.mark.parametrize("keep", [(1, 2), (2, 3, 4), (1, 3, 4)])
    def test_restriction_carries_declared_cuts(self, keep):
        txs = self._transactions()
        grown = RelativeAtomicitySpec([])
        for tx_id in (4, 2, 1, 3):
            grown.declare_transaction(txs[tx_id], self.PROGRAMS[tx_id][1])
        # Restrict before any view is read: the restricted spec must
        # derive its views from the carried cut sets.
        restricted = grown.restricted_to(keep)
        self._assert_same(restricted, self._built().restricted_to(keep))
        for tx_id in keep:
            assert restricted.declared_cuts(tx_id) == self.PROGRAMS[tx_id][1]

    def test_grows_a_construction_time_spec(self, t1, t2):
        spec = RelativeAtomicitySpec([t1, t2], {(1, 2): [2]})
        t3 = Transaction.from_notation(3, "w[x] r[y]")
        spec.declare_transaction(t3, [1])
        assert spec.atomicity(1, 2).breakpoints == {2}
        assert spec.atomicity(1, 3).is_absolute
        assert spec.atomicity(2, 3).is_absolute
        assert spec.atomicity(3, 1).breakpoints == {1}
        assert spec.atomicity(3, 2).breakpoints == {1}

    @pytest.mark.parametrize("cut", [0, 3, -1])
    def test_out_of_range_cut_raises_at_declare_time(self, t1, cut):
        spec = RelativeAtomicitySpec([t1])
        t2 = Transaction.from_notation(2, "r[y] w[y] r[x]")
        with pytest.raises(InvalidSpecError):
            spec.declare_transaction(t2, [1, cut])
        assert 2 not in spec.transactions

    def test_duplicate_declaration_raises(self, t1):
        spec = RelativeAtomicitySpec([t1])
        with pytest.raises(InvalidSpecError):
            spec.declare_transaction(t1)
