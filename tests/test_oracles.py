"""Brute-force oracles, cross-checked against closed forms and against the
constructive extension path.

Laws under test:
1. The exhaustive ball-coloring search refutes small separation instances
   outright, and on the integer line the counting bound refutes the same
   instances by arithmetic alone — two independent proofs of one fact.
2. A witness outcome really is a witness (the degenerate scale-0 instance),
   and the counting bound agrees there too by NOT refuting.
3. Budget exhaustion is reported as inconclusive, never as a refusal.
   Scales that are negative or not strictly increasing are refused by the
   search and the counting bound alike, before any search, and so is a
   negative node budget by both searches; a budget of 0 is a budget.
4. The extension oracle refuses exactly the patterns that cannot be
   extended on the ball: the two-point parity fixture on two colors, and
   its colorable twin. A negative palette bound is refused, never read as
   an empty palette that nothing extends to.
5. Witnesses returned by the oracle extend the input and are members.
6. Greedy extension and the oracle agree on sampled members when the
   palette dominates the graph degree.
7. The rare-color audit counts one-shot colors and flags repeats; a colour
   past the palette reads as a failed membership check, and any other
   error propagates.
8. Both exhaustive oracles run one iterative search, whose reports equal
   in full (outcome, nodes, witness, valid count, detail) those of the
   recursive backtrackers kept in ``oracle_reference``, and whose depth no
   recursion limit bounds: balls of more than a thousand points are
   searched to a witness.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import oracles
from shiftcolor.groups import FreeAbelian, FreeGroup
from shiftcolor.ideals import (
    DistanceConstrained,
    NotUniversal,
    ProperColoring,
    grow_random_member,
)
from shiftcolor.oracles import (
    INCONCLUSIVE,
    REFUTED,
    WITNESS,
    extension_oracle,
    infty_check,
    infty_counting_bound,
    rare_color_check,
)
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF
from shiftcolor.reports import to_jsonable

from oracle_reference import reference_extension_oracle, reference_infty_check

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = FreeGroup(2)


class TestBallColoringSearch:
    @pytest.mark.parametrize("d,c", [((1,), 0), ((1, 3), 1), ((1, 3, 7), 2)])
    def test_refuted_on_the_line(self, d, c):
        report = infty_check(Z1, d, c)
        assert report.outcome == REFUTED
        assert report.valid_count == 0
        assert report.witness is None
        assert report.nodes <= report.budget

    def test_refuted_on_the_free_group(self):
        # five points pairwise within distance 2 and a single color of gap 2
        report = infty_check(F2, (1,), 0)
        assert report.outcome == REFUTED
        assert report.detail["ball_size"] == 5

    def test_degenerate_witness(self):
        report = infty_check(Z1, (0,), 0)
        assert report.outcome == WITNESS
        assert report.witness == PartialColoring(Z1, {0: 0})
        assert report.valid_count == 1

    def test_budget_yields_inconclusive(self):
        report = infty_check(Z1, (1, 3, 7), 2, node_budget=10)
        assert report.outcome == INCONCLUSIVE
        assert not report.conclusive
        assert report.witness is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            infty_check(Z1, (1, 3), 2)
        with pytest.raises(ValueError):
            infty_check(Z1, (3, 1), 0)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            infty_check(Z1, (1, 3), 1, node_budget=-1)
        assert infty_check(Z1, (1, 3), 1, node_budget=0).outcome == INCONCLUSIVE

    @pytest.mark.parametrize("d,c", [((-2,), 0), ((-1, 3), 1), ((-1, 3), 0)])
    def test_negative_scales_are_refused(self, d, c):
        # a negative scale would search the empty ball and report a witness
        with pytest.raises(ValueError, match="nonnegative"):
            infty_check(Z1, d, c)

    def test_deterministic(self):
        a = infty_check(Z1, (1, 3), 1)
        b = infty_check(Z1, (1, 3), 1)
        assert a.to_jsonable() == b.to_jsonable()


class TestCountingBound:
    def test_capacities_frozen(self):
        out = infty_counting_bound((1, 3), 1)
        assert out == {
            "ball_size": 7,
            "capacities": [3, 1],
            "total_capacity": 4,
            "refuted": True,
        }

    def test_three_scales(self):
        out = infty_counting_bound((1, 3, 7), 2)
        assert out["capacities"] == [5, 3, 1]
        assert out["total_capacity"] == 9 and out["ball_size"] == 15
        assert out["refuted"]

    def test_agrees_with_search_on_witness_case(self):
        assert not infty_counting_bound((0,), 0)["refuted"]
        assert infty_check(Z1, (0,), 0).outcome == WITNESS

    def test_validation(self):
        with pytest.raises(ValueError):
            infty_counting_bound((1,), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            infty_counting_bound((-1, 3), 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            infty_counting_bound((3, 1), 1)


class TestExtensionOracle:
    def test_parity_refusal(self):
        """Two colors on the line force alternation, so equal colors three
        apart pass the pairwise membership check yet cannot be extended."""
        pc2 = ProperColoring(Z1, 2)
        phi = PartialColoring(Z1, {0: 0, 3: 0})
        assert pc2.contains(phi)
        report = extension_oracle(pc2, phi, 3)
        assert report.outcome == REFUTED
        assert report.valid_count == 0

    def test_parity_witness(self):
        pc2 = ProperColoring(Z1, 2)
        phi = PartialColoring(Z1, {0: 0, 3: 1})
        report = extension_oracle(pc2, phi, 3)
        assert report.outcome == WITNESS
        w = report.witness
        assert sorted(w.domain()) == list(range(-3, 7))
        assert w[0] == 0 and w[3] == 1
        assert pc2.contains(w)

    def test_empty_pattern_is_its_own_witness(self):
        pc2 = ProperColoring(Z1, 2)
        report = extension_oracle(pc2, pc2.empty(), 4)
        assert report.outcome == WITNESS
        assert report.search_space == 1 and report.valid_count == 1
        assert len(report.witness) == 0

    def test_budget_yields_inconclusive(self):
        pc2 = ProperColoring(Z1, 2)
        phi = PartialColoring(Z1, {0: 0, 3: 0})
        report = extension_oracle(pc2, phi, 3, node_budget=3)
        assert report.outcome == INCONCLUSIVE
        assert report.witness is None

    @pytest.mark.parametrize("phi", [{}, {0: 0}])
    def test_negative_palette_max_and_budget_are_refused(self, phi):
        """palette_max = -5 once read as the palette of (-4)^n assignments,
        none of them valid, and so refused to extend {0: 0}."""
        pc3 = ProperColoring(Z1, 3)
        phi = PartialColoring(Z1, phi)
        with pytest.raises(ValueError, match="nonnegative"):
            extension_oracle(pc3, phi, 1, palette_max=-5)
        with pytest.raises(ValueError, match="nonnegative"):
            extension_oracle(pc3, phi, 1, node_budget=-1)
        assert extension_oracle(pc3, phi, 1, palette_max=0).conclusive

    def test_non_member_rejected(self):
        pc2 = ProperColoring(Z1, 2)
        with pytest.raises(ValueError):
            extension_oracle(pc2, PartialColoring(Z1, {0: 0, 1: 0}), 2)

    def test_infinite_radius_rejected(self):
        pc2 = ProperColoring(Z1, 2)
        with pytest.raises(ValueError):
            extension_oracle(pc2, PartialColoring(Z1, {0: 0}), INF)

    def test_agrees_with_greedy_on_the_line(self):
        """With more colors than the graph degree both paths must succeed;
        the oracle's witness doubles as the certificate."""
        pc3 = ProperColoring(Z1, 3)
        for seed in range(60):
            phi = grow_random_member(pc3, random.Random(seed), size=5, radius=6)
            report = extension_oracle(pc3, phi, 5)
            assert report.outcome == WITNESS
            for e, c in phi.entries.items():
                assert report.witness[e] == c

    def test_agrees_with_greedy_on_the_free_group(self):
        pc5 = ProperColoring(F2, 5)
        for seed in range(20):
            phi = grow_random_member(pc5, random.Random(seed), size=4, radius=3)
            report = extension_oracle(pc5, phi, 2)
            assert report.outcome == WITNESS
            assert pc5.contains(report.witness)

    def test_refusal_matches_counting_bound(self):
        """The separation instance (1, 3) at two colors: the exhaustive
        search refutes it, the counting bound refutes it, and the extension
        oracle refuses to fill the scale-1 ball with those gap rules."""
        dc = DistanceConstrained(Z1, (1, 3, 7), (0, 0, 0))
        phi = PartialColoring(Z1, {0: 0})
        report = extension_oracle(dc, phi, 3, palette_max=1)
        assert report.outcome == REFUTED
        assert infty_check(Z1, (1, 3), 1).outcome == REFUTED
        assert infty_counting_bound((1, 3), 1)["refuted"]

    def test_not_universal_kind_supported(self):
        nu = NotUniversal(Z1, (1,), (3,))
        phi = PartialColoring(Z1, {0: 0})
        report = extension_oracle(nu, phi, 1)
        # colors within distance 2 of the center may not repeat, and there
        # is no larger color: the one-color palette cannot fill the ball
        assert report.outcome == REFUTED


class TestRareColorAudit:
    def test_one_shot_repeat_flagged(self):
        dc = DistanceConstrained(Z1, (1, 3), (2, INF))
        omega = PartialColoring(Z1, {0: 1, 100: 1})
        report = rare_color_check(dc, omega)
        assert report.violations == [{"color": 1, "occurrences": 2}]
        assert not report.membership_ok
        assert not report.ok

    def test_one_shot_single_use_clean(self):
        dc = DistanceConstrained(Z1, (1, 3), (2, INF))
        omega = PartialColoring(Z1, {0: 1, 5: 0, 9: 0})
        report = rare_color_check(dc, omega)
        assert report.ok
        assert report.counts == {0: 2, 1: 1}

    def test_all_finite_heights_never_flag(self):
        dc = DistanceConstrained(Z1, (1, 3), (1, 2))
        omega = PartialColoring(Z1, {0: 0, 10: 0, 5: 1, 30: 1})
        report = rare_color_check(dc, omega)
        assert report.membership_ok and report.violations == []

    def test_json_layout(self):
        # counts are keyed by int colours; the report writes the keys as strings
        dc = DistanceConstrained(Z1, (1, 3), (2, INF))
        omega = PartialColoring(Z1, {0: 1, 100: 1, 5: 0, 12: 0, 40: 0})
        assert to_jsonable(rare_color_check(dc, omega)) == {
            "membership_ok": False,
            "counts": {"0": 3, "1": 2},
            "violations": [{"color": 1, "occurrences": 2}],
            "ok": False,
        }

    def test_type_checked(self):
        with pytest.raises(TypeError):
            rare_color_check(ProperColoring(Z1, 2), PartialColoring(Z1, {}))

    def test_palette_exhausted_fails_membership(self):
        dc = DistanceConstrained(Z1, (1, 3), (2, INF))
        report = rare_color_check(dc, PartialColoring(Z1, {0: 0, 5: 2}))
        assert not report.membership_ok and report.counts == {0: 1, 2: 1}

    def test_faults_propagate(self, monkeypatch):
        def fault(*args):
            raise KeyError("fault")

        monkeypatch.setattr(oracles, "col_window_check", fault)
        dc = DistanceConstrained(Z1, (1, 3), (2, INF))
        with pytest.raises(KeyError):
            rare_color_check(dc, PartialColoring(Z1, {0: 1}))


def _kinds(g):
    return [
        ProperColoring(g, 2),
        ProperColoring(g, 3),
        ProperColoring(g, 5),
        DistanceConstrained(g, (1, 3), (2, INF)),
        DistanceConstrained(g, (1, 3, 7), (0, 0, 0)),
        NotUniversal(g, (1,), (3,)),
    ]


def _result(oracle, *args, **kwargs):
    """The report's full JSON, or the type and message of what it raised."""
    try:
        return to_jsonable(oracle(*args, **kwargs))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestOneSearchAgreesWithRecursion:
    """The iterative search against the recursive backtrackers it replaced,
    on balls well inside the recursion limit."""

    BUDGETS = (0, 10, 2_000_000)

    @pytest.mark.parametrize("g,top", [(Z1, 7), (Z2, 3), (F2, 3)], ids=["Z1", "Z2", "F2"])
    def test_infty_check(self, g, top):
        for d in [(0,), (1,), (2,), (0, 1), (1, 2), (1, top), (0, 1, 2), (1, 2, top)]:
            for c in range(len(d)):
                for budget in self.BUDGETS:
                    ours = _result(infty_check, g, d, c, node_budget=budget)
                    assert ours == _result(reference_infty_check, g, d, c, node_budget=budget)

    @pytest.mark.parametrize("g", [Z1, Z2, F2], ids=["Z1", "Z2", "F2"])
    @pytest.mark.parametrize("kind", range(6))
    def test_extension_oracle(self, g, kind):
        P = _kinds(g)[kind]
        for seed in range(3):
            phi = grow_random_member(P, random.Random(seed), size=3, radius=2)
            for radius in (1, 2):
                for palette_max in (None, 1):
                    for budget in self.BUDGETS:
                        args = (P, phi, radius)
                        kwargs = dict(palette_max=palette_max, node_budget=budget)
                        ours = _result(extension_oracle, *args, **kwargs)
                        assert ours == _result(reference_extension_oracle, *args, **kwargs)

    @pytest.mark.parametrize("entries", [{0: 0, 3: 0}, {0: 0, 3: 1}, {}])
    def test_parity_dead_end(self, entries):
        pc2 = ProperColoring(Z1, 2)
        phi = PartialColoring(Z1, entries)
        for radius in (1, 3, 6):
            for budget in (0, 3, 10, 2_000_000):
                ours = _result(extension_oracle, pc2, phi, radius, node_budget=budget)
                assert ours == _result(reference_extension_oracle, pc2, phi, radius, node_budget=budget)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.sampled_from([Z1, Z2, F2]),
        kind=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 4),
        radius=st.integers(0, 2),
        palette_max=st.sampled_from([None, 0, 1, 2]),
        budget=st.sampled_from([0, 1, 10, 50, 2_000_000]),
    )
    def test_extension_oracle_on_drawn_inputs(self, g, kind, seed, size, radius, palette_max, budget):
        P = _kinds(g)[kind]
        phi = grow_random_member(P, random.Random(seed), size=size, radius=2)
        kwargs = dict(palette_max=palette_max, node_budget=budget)
        ours = _result(extension_oracle, P, phi, radius, **kwargs)
        assert ours == _result(reference_extension_oracle, P, phi, radius, **kwargs)


class TestDeepSearches:
    """Balls past the interpreter's recursion limit, which stopped the
    recursive searches with a RecursionError."""

    def test_refutation_ball_of_1201_points(self):
        report = infty_check(Z1, (0, 600), 1)
        assert report.outcome == WITNESS and report.valid_count == 1
        assert report.nodes == 1201 and report.detail["ball_size"] == 1201
        assert len(report.witness) == 1201

    def test_extension_of_1012_free_points(self):
        pc5 = ProperColoring(Z2, 5)
        report = extension_oracle(pc5, PartialColoring(Z2, {(0, 0): 0}), 22)
        assert report.outcome == WITNESS and report.valid_count == 1
        assert report.nodes == 1496
        assert report.detail == {"ball_size": 1013, "free_points": 1012, "target_radius": 22, "palette_max": 4}
        assert report.witness[(0, 0)] == 0 and pc5.contains(report.witness)
