"""Ideal kinds: membership, locality radii, extendability, axiom checks.

Laws under test:
1. ProperColoring is the hereditary pairwise kind: colors below k, adjacent
   points differ. It accepts {0->0, 3->0} even though that pattern has no
   total proper 2-coloring of the enclosing interval (the extension oracle
   covers that distinction).
2. DistanceConstrained enforces per-color minimum gaps max(2d_c+1, h_c);
   colors beyond the height table raise the palette error; infinite-height
   colors are one-shot.
3. NotUniversal: around each colored point, equal colors are forbidden up
   to distance 2d_c and smaller-or-equal colors are forbidden in the annulus
   (2d_c, D_c].
4. Every kind passes the closure axioms (restriction + shift); a fixture
   that is deliberately not shift-closed is caught. The batched audit gives
   the report of the per-pattern loop kept in axioms_reference.py on every
   kind, a reduced ideal, the broken fixture, F_18 and F_26 (bases past the
   36 digits int reads) and an F_2 whose products multiply on the left, where the audit must find the
   shift violations that inferring distances from right invariance hides.
   It does so too with blocks of 1, 2 and 7 samples, keeping every
   violation in its place, and each block is judged before the next grows,
   in calls of at most _PAIR_CELLS shifts times slot pairs. A pairwise
   kind's block entries are packed in one call and judged pair by pair, its
   products in Python ints exactly when some entry plus a shift passes
   pack_limit; the pair-by-pair judge gives the reports of the matrix and
   window-judge one it replaced (axioms_reference.py), with violations
   injected by a wrong dist_packed and an off-palette colour, and with an
   UNCODED colour judged pattern by pattern. The slot pairs are laid out
   once per audit.
   A fresh process that runs the audit does not import numpy.ma. A
   negative sampling or shift radius is refused with a ValueError that
   names the parameter, by member growth and by the audit.
5. The windowed membership check agrees with plain membership on the
   shipped local kinds.
6. The pairwise-rule engine behind the three shipped kinds gives the same
   answers, exceptions included, as the three hand-written loops it
   replaced (kept below as references), on every small colouring; its
   extend_at equals the least colour c with phi + (gamma, c) a member, also
   on non-members, on coloured gamma and on out-of-palette patterns.
7. A window judge built once for a slot-distance matrix and a set of
   colour codes (``window_judge``) gives the per-row contains reference's
   answers, for all three kinds, with off-palette and uncoloured slots, and
   in gathers of one cell: on the one matrix of Ball(1, s) shared by every
   row, over Z^1-Z^3 and F_1-F_3 and at every radius the window process
   reaches; with UNCODED among its codes it is the reference, exceptions
   included, so a pair colour or a colour beyond the palette raises as
   contains raises. With ``centre_only`` it reads only the pairs through
   slot 0, and gives the reference's answers on rows whose other slots
   form a member. ``pair_reach`` is the largest hi of the bands between
   its codes, INF for an endless band, UNCODED and an ideal with no bands,
   and no pair of the codes is forbidden past it in the compiled bands.
8. The same holds for the reference judge with one matrix per row
   (``axioms_reference.per_row_judge``, the axioms audit's former form and
   the matrix judge's), each row laying a random choice of the offsets on
   its slots in an order of its own, also on blocks of no rows and on rows
   of no slots.
9. Malformed specs are refused with a ValueError naming the fault: no
   colours, a fractional or too long h, a D of the wrong length, an
   unknown kind and an infinite constant join radius. A spec reads back
   from its JSON, and its repr names its kind and that JSON.
"""

import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations, groupby, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import ideals
from shiftcolor.groups import FreeAbelian, FreeGroup, identity_ball
from shiftcolor.ideals import (
    NO_COLOR,
    OFF_PALETTE,
    UNCODED,
    ConstantJoin,
    PairwiseIdeal,
    DistanceConstrained,
    IdealSpec,
    NotUniversal,
    PaletteExhausted,
    ProperColoring,
    SupRadiiJoin,
    col_window_check,
    grow_random_member,
    ideal_axioms_check,
    ideal_from_json,
    is_extendable_at,
)
from shiftcolor.patterns import PartialColoring, shift
from shiftcolor.radii import INF, Infinity
from shiftcolor.reduction import ReducedIdeal
from shiftcolor.simulate import Region

from axioms_reference import axioms_check_per_pattern, judge_by_matrices, per_row_judge

Z1 = FreeAbelian(1)
F2 = FreeGroup(2)
ROOT = Path(__file__).resolve().parents[1]


class TestProperColoring:
    def test_accepts_proper(self):
        pc = ProperColoring(Z1, 3)
        assert pc.contains(PartialColoring(Z1, {0: 0, 1: 1, 2: 0}))

    def test_rejects_adjacent_equal(self):
        pc = ProperColoring(Z1, 3)
        assert not pc.contains(PartialColoring(Z1, {0: 0, 1: 0}))

    def test_rejects_color_at_or_above_k(self):
        pc = ProperColoring(Z1, 3)
        assert not pc.contains(PartialColoring(Z1, {0: 3}))

    def test_hereditary_accepts_parity_gap(self):
        # pairwise-proper but not extendable to a total proper 2-coloring
        pc2 = ProperColoring(Z1, 2)
        assert pc2.contains(PartialColoring(Z1, {0: 0, 3: 0}))

    def test_locality_radius(self):
        pc = ProperColoring(Z1, 3)
        assert pc.locality_radius(0) == 1
        assert pc.locality_radius(7) == 1

    def test_palette(self):
        assert ProperColoring(Z1, 3).max_color() == 2

    def test_f2_membership(self):
        pc = ProperColoring(F2, 5)
        assert pc.contains(PartialColoring(F2, {"": 0, "a": 1, "b": 2}))
        assert not pc.contains(PartialColoring(F2, {"": 0, "a": 0}))


class TestDistanceConstrained:
    def test_gap_rule(self):
        # color 0: gap max(2*1+1, 1) = 3 -> distance 3 legal, 2 not
        dc = DistanceConstrained(Z1, (1, 3), (1, 2))
        assert dc.contains(PartialColoring(Z1, {0: 0, 3: 0}))
        assert not dc.contains(PartialColoring(Z1, {0: 0, 2: 0}))

    def test_height_dominates(self):
        # h_0 = 5 > 2d_0+1 = 3: the height wins
        dc = DistanceConstrained(Z1, (1, 3), (5, 7))
        assert not dc.contains(PartialColoring(Z1, {0: 0, 4: 0}))
        assert dc.contains(PartialColoring(Z1, {0: 0, 5: 0}))

    def test_infinite_height_one_shot(self):
        dc = DistanceConstrained(Z1, (1, 3), (1, INF))
        assert dc.contains(PartialColoring(Z1, {0: 1}))
        assert not dc.contains(PartialColoring(Z1, {0: 1, 100: 1}))

    def test_palette_exhausted(self):
        dc = DistanceConstrained(Z1, (1, 3, 7), (1, 2))
        with pytest.raises(PaletteExhausted):
            dc.contains(PartialColoring(Z1, {0: 2}))

    def test_locality_radius(self):
        dc = DistanceConstrained(Z1, (1, 3), (1, INF))
        assert dc.locality_radius(0) == 2          # gap 3 -> radius 2
        assert isinstance(dc.locality_radius(1), Infinity)

    def test_height_table_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            DistanceConstrained(Z1, (1, 3), (2, 1))

    def test_scales_strictly_increase(self):
        with pytest.raises(ValueError):
            DistanceConstrained(Z1, (3, 3), (1, 2))


class TestNotUniversal:
    NU = NotUniversal(Z1, (1, 3), (5, 13))

    def test_near_zone_rejects_equal_color(self):
        assert not self.NU.contains(PartialColoring(Z1, {0: 0, 1: 0}))
        assert not self.NU.contains(PartialColoring(Z1, {0: 0, 2: 0}))

    def test_annulus_requires_bigger_color(self):
        # dist 4 in (2d_0, D_0] = (2, 5]: the other point must exceed color 0
        assert not self.NU.contains(PartialColoring(Z1, {0: 0, 4: 0}))
        assert self.NU.contains(PartialColoring(Z1, {0: 1, 4: 0}))

    def test_asymmetric_pair_both_directions_checked(self):
        # at the color-1 point, dist 4 <= 2d_1 = 6 forbids equal color 1
        assert not self.NU.contains(PartialColoring(Z1, {0: 1, 4: 1}))

    def test_far_pairs_unconstrained(self):
        assert self.NU.contains(PartialColoring(Z1, {0: 0, 6: 0}))

    def test_locality_is_outer_radius(self):
        assert self.NU.locality_radius(0) == 5
        assert self.NU.locality_radius(1) == 13

    def test_annulus_bound_validated(self):
        with pytest.raises(ValueError):
            NotUniversal(Z1, (1,), (2,))  # needs D_0 >= 2d_0+1 = 3


class TestExtendability:
    def test_proper_least_color(self):
        pc = ProperColoring(Z1, 3)
        phi = PartialColoring(Z1, {0: 0, 2: 1})
        assert pc.extend_at(phi, 1) == 2

    def test_proper_saturated(self):
        pc2 = ProperColoring(Z1, 2)
        phi = PartialColoring(Z1, {0: 0, 2: 1})
        assert pc2.extend_at(phi, 1) is None

    def test_not_universal_frozen(self):
        nu = NotUniversal(Z1, (1, 3), (5, 13))
        assert is_extendable_at(nu, PartialColoring(Z1, {0: 0}), 1) == 1

    def test_preconditions(self):
        pc = ProperColoring(Z1, 3)
        with pytest.raises(ValueError):
            is_extendable_at(pc, PartialColoring(Z1, {0: 0}), 0)
        with pytest.raises(ValueError):
            is_extendable_at(pc, PartialColoring(Z1, {0: 0, 1: 0}), 2)

    def test_grow_random_member_stays_inside(self):
        rng = random.Random(0)
        for kind in (
            ProperColoring(Z1, 3),
            DistanceConstrained(Z1, (1, 3), (1, 2)),
            NotUniversal(Z1, (1, 3), (5, 13)),
        ):
            for _ in range(10):
                phi = grow_random_member(kind, rng, size=4)
                assert kind.contains(phi)


class _LeftMultiplied(FreeGroup):
    """Deliberately broken F_k: products multiply on the left, in ``mul`` and
    in ``mul_packed`` alike, while the metric stays right-invariant."""

    def mul(self, g, h):
        return FreeGroup.mul(self, h, g)

    def mul_packed(self, A, B):
        return FreeGroup.mul_packed(self, B, A)


class _EvenDomainsOnly(IdealSpec):
    """Deliberately broken: restriction-closed but not shift-invariant."""

    kind = "EvenDomainsOnly"

    def __init__(self, group):
        self.group = group
        self._inner = ProperColoring(group, 3)

    def contains(self, phi):
        return all(e % 2 == 0 for e in phi.domain()) and self._inner.contains(phi)

    def locality_radius(self, color):
        return 1

    def to_json(self):
        return {"kind": self.kind, "group": self.group.spec_string()}


class _FarPointNeeded(IdealSpec):
    """Deliberately broken on both axioms: a member is a ProperColoring(3)
    pattern that is empty or has a point at distance at least ``reach``
    from the identity. Growth keeps it (a far point comes first and stays),
    while subsets without a far point and shifts towards the identity
    leave it."""

    kind = "FarPointNeeded"

    def __init__(self, group, reach):
        self.group, self.reach = group, reach
        self._inner = ProperColoring(group, 3)

    def contains(self, phi):
        far = not phi or max(map(self.group.norm, phi.domain())) >= self.reach
        return far and self._inner.contains(phi)

    def locality_radius(self, color):
        return 1

    def to_json(self):
        return {"kind": self.kind, "group": self.group.spec_string(), "reach": self.reach}


class TestAxiomsCheck:
    @pytest.mark.parametrize(
        "kind",
        [
            ProperColoring(Z1, 3),
            DistanceConstrained(Z1, (1, 3), (1, 2)),
            NotUniversal(Z1, (1, 3), (5, 13)),
            ProperColoring(F2, 5),
        ],
        ids=["proper-z1", "distance", "not-universal", "proper-f2"],
    )
    def test_shipped_kinds_pass(self, kind):
        report = ideal_axioms_check(kind, sample_budget=60, seed=1)
        assert report.ok, report.to_jsonable()

    @pytest.mark.parametrize("sample, name", [
        (lambda P: grow_random_member(P, random.Random(0), 3, radius=-1), "radius"),
        (lambda P: ideal_axioms_check(P, 1, 0, radius=-1), "radius"),
        (lambda P: ideal_axioms_check(P, 1, 0, shift_radius=-1), "shift_radius"),
    ], ids=["growth", "audit-radius", "audit-shift-radius"])
    def test_negative_sampler_radius_refused(self, sample, name):
        """Not random's empty range nor a division by no shifts: a
        ValueError that names the parameter."""
        for P in (ProperColoring(Z1, 3), ProperColoring(F2, 5)):
            with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
                sample(P)

    def test_broken_fixture_caught(self):
        report = ideal_axioms_check(_EvenDomainsOnly(Z1), sample_budget=60, seed=1)
        assert report.shift_violations

    def test_audit_does_not_import_numpy_ma(self, tmp_path):
        """A fresh ``check --mode ideal-axioms`` process leaves numpy.ma
        unimported: ``np.unique``, which imports it lazily, costs such a
        process 10-14 ms and about 0.5 MB."""
        specs = [{"kind": "ProperColoring", "group": "F_2", "k": 5},
                 {"kind": "NotUniversal", "group": "Z^2", "d": [1, 3], "D": [3, 7]}]
        script = (
            "import sys\n"
            "from shiftcolor.cli import main\n"
            "for spec in sys.argv[1:]:\n"
            "    main(['check', spec, '--mode', 'ideal-axioms', '--budget', '30', '--seed', '0',\n"
            "          '--out', spec + '.out'])\n"
            "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)\n"
        )
        paths = []
        for i, spec in enumerate(specs):
            paths.append(tmp_path / f"spec{i}.json")
            paths[-1].write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "True"]
        assert all(json.loads(Path(f"{path}.out").read_text())["payload"]["report"]["ok"] for path in paths)

    @pytest.mark.parametrize(
        "kind, options",
        [
            (ProperColoring(Z1, 3), {}),
            (ProperColoring(FreeAbelian(2), 3), {}),
            (ProperColoring(FreeAbelian(2), 5), {"max_size": 11}),  # sampled subsets past 8 entries
            (DistanceConstrained(Z1, (1, 3), (1, 2)), {}),
            (NotUniversal(Z1, (1, 3), (5, 13)), {}),
            (NotUniversal(F2, (0, 2), (1, 6)), {}),
            (ProperColoring(F2, 5), {}),
            (ProperColoring(FreeGroup(1), 2), {"max_size": 11}),
            (ProperColoring(FreeGroup(3), 3), {"radius": 4, "shift_radius": 3}),
            (ReducedIdeal(ProperColoring(Z1, 3), SupRadiiJoin(lambda c: 1, [1, 1, 1])), {}),
            (_EvenDomainsOnly(Z1), {}),
            # bases 37 and 53, past the 36 digits int reads, pack by arithmetic
            (ProperColoring(FreeGroup(18), 3), {"radius": 1, "shift_radius": 1}),
            (ProperColoring(FreeGroup(26), 3), {"radius": 2, "shift_radius": 1}),
            (DistanceConstrained(_LeftMultiplied(2), (2,), (1,)), {}),
        ],
        ids=["pc3-z1", "pc3-z2", "pc5-z2-large", "distance", "not-universal", "nu-f2", "pc5-f2",
             "pc2-f1-large", "pc3-f3", "reduced", "even-domains", "pc3-f18", "pc3-f26", "left-f2"],
    )
    def test_batched_audit_equals_per_pattern(self, kind, options):
        batched = ideal_axioms_check(kind, sample_budget=20, seed=3, **options)
        reference = axioms_check_per_pattern(kind, sample_budget=20, seed=3, **options)
        assert batched.to_jsonable() == reference.to_jsonable()

    @pytest.mark.parametrize("per_block", [1, 2, 7])
    @pytest.mark.parametrize(
        "kind, options",
        [
            (_EvenDomainsOnly(Z1), {}),
            (DistanceConstrained(_LeftMultiplied(2), (2,), (1,)), {}),
            (_FarPointNeeded(Z1, 6), {}),
            (ProperColoring(FreeAbelian(2), 5), {"max_size": 11}),
            (_FarPointNeeded(FreeAbelian(2), 6), {"max_size": 11}),
            # words of 37 or 38 letters pass F_1's pack_limit of 40 once shifted by 4
            (_FarPointNeeded(FreeGroup(1), 36), {"radius": 38, "shift_radius": 4}),
            (ProperColoring(FreeGroup(1), 2), {"radius": 38, "shift_radius": 4}),
        ],
        ids=["even-domains", "left-f2", "far-z1", "pc5-z2-large", "far-z2-large",
             "far-f1-pack-limit", "pc2-f1-pack-limit"],
    )
    def test_block_boundaries(self, monkeypatch, kind, options, per_block):
        """Blocks of 1, 2 and 7 samples, over a budget that none divides,
        give the per-pattern report: every violation in its place. Only the
        pairwise kinds' blocks are packed; the others ask ``contains``."""
        shift_radius, max_size = options.get("shift_radius", 5), options.get("max_size", 5)
        shifts = identity_ball(kind.group, shift_radius)
        monkeypatch.setattr(ideals, "_PAIR_CELLS",
                            len(shifts) * (max_size * (max_size - 1) // 2) * per_block)
        calls = []  # the number of elements of each pack call
        exact = []  # whether each product of entries and shifts was formed in Python ints
        samples = []  # each grown sample
        g, grow = kind.group, ideals.grow_random_member
        pack, mul = type(g).pack, type(g).mul_packed

        def spy(g, elements):
            calls.append(len(elements))
            return pack(g, elements)

        def multiplying(g, A, B):
            product = mul(g, A, B)
            exact.append(product.dtype == object)
            return product

        def growing(*args):
            phi = grow(*args)
            samples.append(phi)
            return phi

        judged = []  # samples of each call of the packed judge
        judge = ideals._judge_packed
        monkeypatch.setattr(type(g), "pack", spy)
        monkeypatch.setattr(type(g), "mul_packed", multiplying)
        monkeypatch.setattr(ideals, "grow_random_member", growing)
        monkeypatch.setattr(ideals, "_judge_packed",
                            lambda P, block, *args: judged.append(len(block)) or judge(P, block, *args))
        batched = ideal_axioms_check(kind, sample_budget=23, seed=3, **options)
        reference = axioms_check_per_pattern(kind, sample_budget=23, seed=3, **options)
        assert batched.to_jsonable() == reference.to_jsonable()
        # the shifts' inverses are packed once, and every block goes to the
        # judge, which packs a pairwise kind's entries in one call; its
        # products are Python ints iff some entry x of the block has |x| +
        # shift_radius > pack_limit
        assert len(samples) == 23
        sizes = [len(phi.entries) for phi in samples]
        fits = [max(map(g.norm, phi.domain()), default=0) + shift_radius <= g.pack_limit for phi in samples]
        blocks = [range(lo, min(lo + per_block, 23)) for lo in range(0, 23, per_block)]
        packed = blocks if isinstance(kind, PairwiseIdeal) else []
        assert calls == [len(shifts)] + [sum(sizes[i] for i in b) for b in packed]
        assert judged == [len(b) for b in blocks]
        assert exact == [not all(fits[i] for i in b) for b in packed]
        if isinstance(kind, _FarPointNeeded):
            assert batched.restriction_violations
        if max_size > 8:  # some samples have their subsets drawn by the rng
            assert max(sizes) > 8
        if isinstance(g, FreeGroup) and g.rank == 1:
            assert set(fits) == {True, False}  # some products pass pack_limit, some do not
            if per_block == 1 and packed:
                assert set(exact) == {True, False}  # both arithmetics in one audit
        else:
            assert all(fits)

    def test_one_pack_call_per_block(self, monkeypatch):
        """A 60-sample F_2 audit packs the shifts' inverses once, then its
        entries once per block of 3 samples, and judges every block
        packed."""
        kind = ProperColoring(F2, 5)
        sizes, judged = [], []
        pack, judge = FreeGroup.pack, ideals._judge_packed

        def spy(g, elements):
            sizes.append(len(elements))
            return pack(g, elements)

        monkeypatch.setattr(FreeGroup, "pack", spy)
        monkeypatch.setattr(ideals, "_judge_packed",
                            lambda P, block, *args: judged.append(len(block)) or judge(P, block, *args))
        report = ideal_axioms_check(kind, sample_budget=60, seed=0)
        assert report.ok and report.samples == 60
        assert len(sizes) == 21 and sizes[0] == len(identity_ball(F2, 5))
        assert judged == [3] * 20

    def test_one_triangle_per_audit(self):
        """The slot pairs of the largest sample are laid out once per
        audit, not once per block: one ``np.triu_indices`` over the 20
        blocks of a 60-sample F_2 audit."""
        triangles = []
        triu = np.triu_indices
        with mock.patch.object(np, "triu_indices", lambda *args: triangles.append(args) or triu(*args)):
            report = ideal_axioms_check(ProperColoring(F2, 5), sample_budget=60, seed=0)
        assert report.ok and report.samples == 60
        assert triangles == [(5, 1)]

    def test_blocks_stream_within_pair_cells(self, monkeypatch):
        """Each block is judged before the next one grows, and no packed
        call holds more than _PAIR_CELLS shifts times slot pairs: a
        deterministic stand-in for the audit's peak memory."""
        kind = ProperColoring(FreeGroup(2), 5)
        g, events, cells = kind.group, [], []

        def spy(name, fn):
            def wrapped(A, B):
                events.append("judge")
                cells.append(int(np.prod(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]))))
                return fn(A, B)

            monkeypatch.setattr(g, name, wrapped)

        spy("dist_packed", g.dist_packed)
        spy("mul_packed", g.mul_packed)
        grow = ideals.grow_random_member

        def growing(*args):
            events.append("grow")
            return grow(*args)

        monkeypatch.setattr(ideals, "grow_random_member", growing)
        report = ideal_axioms_check(kind, sample_budget=60, seed=0)
        block = ideals._PAIR_CELLS // (len(identity_ball(g, 5)) * 10)
        assert report.ok and report.samples == 60 and block == 3
        runs = [(event, len(list(run))) for event, run in groupby(events)]
        assert [n for event, n in runs if event == "grow"] == [block] * 20
        assert runs[0] == ("grow", block)
        assert max(cells) <= ideals._PAIR_CELLS
        assert max(cells) > ideals._PAIR_CELLS // 2  # blocks are not needlessly small

    def test_left_multiplication_is_caught(self):
        """Shifting by left products keeps no distances, so the audit, which
        computes the shifted elements and their distances, finds violations."""
        kind = DistanceConstrained(_LeftMultiplied(2), (2,), (1,))
        report = ideal_axioms_check(kind, sample_budget=25, seed=0)
        assert report.shift_violations and not report.restriction_violations
        assert ideal_axioms_check(DistanceConstrained(F2, (2,), (1,)), sample_budget=25, seed=0).ok

    def test_empty_always_member(self):
        for kind in (ProperColoring(Z1, 2), NotUniversal(Z1, (1,), (3,))):
            assert kind.contains(kind.empty())


class _Uncoded(ProperColoring):
    """ProperColoring whose colour 0 is UNCODED, so every block holding it
    is judged pattern by pattern."""

    def color_code(self, c):
        return UNCODED if c == 0 else super().color_code(c)


def _audit_outcome(P, options, judge=None, wrong_dist=False, off_palette=False):
    """``ideal_axioms_check``'s report, or the exception it raises, with
    ``judge`` in place of the block judge. ``wrong_dist`` measures distance 2
    as 1 between rows whose first column is even; ``off_palette`` recolours
    the first entry of every sample of odd size with the palette's size."""
    g = P.group
    grow, dist = ideals.grow_random_member, type(g).dist_packed

    def growing(*args):
        phi = grow(*args)
        if off_palette and len(phi) % 2:
            phi = PartialColoring(g, {**phi.entries, next(iter(phi.entries)): P.palette_size})
        return phi

    def measuring(A, B):
        D = dist(g, A, B)
        return D - ((D == 2) & (np.asarray(A[..., 0] % 2) == 0))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "grow_random_member", growing)
        if judge is not None:
            mp.setattr(ideals, "_judge_packed", judge)
        if wrong_dist:
            mp.setitem(vars(g), "dist_packed", measuring)
        try:
            return ideal_axioms_check(P, **options).to_jsonable()
        except ValueError as error:  # PaletteExhausted, off the palette of a raising kind
            return type(error).__name__, str(error)


_JUDGED_GROUPS = {"Z^1": Z1, "Z^2": FreeAbelian(2), "Z^3": FreeAbelian(3), "F_1": FreeGroup(1),
                  "F_2": F2, "F_3": FreeGroup(3)}


class TestPairJudge:
    """The pair-by-pair block judge gives the report of the matrix-and-
    window-judge one it replaced (axioms_reference.py), violations in the
    same order, on Z^1-Z^3, F_1-F_3 and the three pairwise kinds, with
    violations injected by a ``dist_packed`` that is wrong on some pairs
    and by an off-palette colour, and on an ideal whose colour 0 is UNCODED
    and so judged pattern by pattern."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_matrix_judge(self, data):
        g = _JUDGED_GROUPS[data.draw(st.sampled_from(sorted(_JUDGED_GROUPS)))]
        P = data.draw(st.sampled_from([
            ProperColoring(g, 2), ProperColoring(g, 3), _Uncoded(g, 3),
            DistanceConstrained(g, (0, 1), (1, 3)), DistanceConstrained(g, (1,), ("inf",)),
            NotUniversal(g, (0, 1), (2, 4)), NotUniversal(g, (1,), (3,)),
        ]))
        options = {"sample_budget": data.draw(st.integers(1, 9)), "seed": data.draw(st.integers(0, 99)),
                   "radius": data.draw(st.integers(0, 4)), "shift_radius": data.draw(st.integers(0, 2)),
                   "max_size": data.draw(st.integers(0, 6))}
        faults = {"wrong_dist": data.draw(st.booleans()), "off_palette": data.draw(st.booleans())}
        got = _audit_outcome(P, options, **faults)
        assert got == _audit_outcome(P, options, judge_by_matrices, **faults)

    @pytest.mark.parametrize("P", [ProperColoring(F2, 3), ProperColoring(FreeAbelian(2), 3)], ids=["pc3-f2", "pc3-z2"])
    @pytest.mark.parametrize("fault", ["wrong_dist", "off_palette"])
    def test_injected_faults_are_reported(self, P, fault):
        """Each injected fault is seen: restriction and shift violations,
        in the matrix judge's order."""
        options = {"sample_budget": 12, "seed": 5, "radius": 3, "shift_radius": 2}
        got = _audit_outcome(P, options, **{fault: True})
        assert got["restriction_violations"] and got["shift_violations"]
        assert got == _audit_outcome(P, options, judge_by_matrices, **{fault: True})


class TestColWindowCheck:
    def test_agrees_with_membership_on_local_kinds(self):
        rng = random.Random(7)
        kinds = [
            ProperColoring(Z1, 3),
            DistanceConstrained(Z1, (1, 3), (1, 2)),
            NotUniversal(Z1, (1, 3), (5, 13)),
        ]
        ball = Z1.ball(0, 6)
        for kind in kinds:
            for _ in range(80):
                entries = {}
                for _k in range(rng.randint(0, 4)):
                    entries[ball[rng.randrange(len(ball))]] = rng.randint(0, 1)
                try:
                    phi = PartialColoring(Z1, entries)
                    expected = kind.contains(phi)
                except PaletteExhausted:
                    continue
                assert col_window_check(phi, kind) == expected

    def test_infinite_radius_falls_back_to_membership(self):
        dc = DistanceConstrained(Z1, (1, 3), (1, INF))
        good = PartialColoring(Z1, {0: 1})
        bad = PartialColoring(Z1, {0: 1, 50: 1})
        assert col_window_check(good, dc)
        assert not col_window_check(bad, dc)


class TestJoinFns:
    def test_constant(self):
        R = ConstantJoin(2)
        assert R.value(PartialColoring(Z1, {0: 0})) == 2
        assert R.value(PartialColoring(Z1, {})) == 0  # sup over nothing

    def test_sup_radii(self):
        R = SupRadiiJoin(lambda c: c + 1, description="c+1")
        assert R.value(PartialColoring(Z1, {0: 0, 5: 2})) == 3
        assert R.value(PartialColoring(Z1, {})) == 0


class TestJson:
    @pytest.mark.parametrize(
        "kind",
        [
            ProperColoring(Z1, 3),
            ProperColoring(F2, 5),
            DistanceConstrained(Z1, (1, 3, 7), (1, 2, INF)),
            NotUniversal(Z1, (1, 3), (5, 13)),
        ],
        ids=["proper-z1", "proper-f2", "distance", "not-universal"],
    )
    def test_roundtrip(self, kind):
        clone = ideal_from_json(kind.to_json())
        assert clone == kind
        probe = PartialColoring(kind.group, {kind.group.identity(): 0})
        assert clone.contains(probe) == kind.contains(probe)

    def test_repr_names_the_kind_and_its_spec(self):
        assert repr(ProperColoring(Z1, 3)) == "ProperColoring({'kind': 'ProperColoring', 'group': 'Z^1', 'k': 3})"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ProperColoring(Z1, 0), "need at least one color, got k=0"),
            (lambda: DistanceConstrained(Z1, (1, 3), ("1/2",)), "h entries must be naturals or 'inf', got '1/2'"),
            (lambda: DistanceConstrained(Z1, (1,), (1, 2)), "h sequence may not be longer than the d sequence"),
            (lambda: NotUniversal(Z1, (1, 3), (5,)), "d and D must have the same length"),
            (lambda: ideal_from_json({"kind": "Rainbow", "group": "Z^1"}), "unknown ideal kind 'Rainbow'"),
            (lambda: ConstantJoin("inf"), "a constant join radius must be finite"),
        ],
        ids=["proper-k0", "h-fraction", "h-longer", "D-length", "unknown-kind", "constant-inf"],
    )
    def test_bad_specs_are_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


# -- the pairwise-rule engine against the loops it replaced ----------------------


def _reference_contains(P, phi):
    """The hand-written membership loops of ProperColoring,
    DistanceConstrained and NotUniversal before the pairwise-rule engine."""
    entries = phi.entries
    for e, c in entries.items():
        if not isinstance(c, int):
            raise ValueError(f"expected plain natural colors, got {c!r} at {e!r}")
    g = P.group
    items = list(entries.items())
    if isinstance(P, ProperColoring):
        if any(c >= P.k for c in entries.values()):
            return False
        for i, (x, cx) in enumerate(items):
            for y, cy in items[i + 1 :]:
                if cx == cy and g.dist(x, y) == 1:
                    return False
        return True
    palette = len(P.h) if isinstance(P, DistanceConstrained) else len(P.d)
    for c in entries.values():
        if c >= palette:
            raise PaletteExhausted(f"color {c} is outside the palette of {palette} colors")
    if isinstance(P, DistanceConstrained):
        for i, (x, cx) in enumerate(items):
            for y, cy in items[i + 1 :]:
                if cx == cy and not g.dist(x, y) >= max(2 * P.d[cx] + 1, P.h[cx]):
                    return False
        return True
    for x, cx in items:
        near, far = 2 * P.d[cx], P.D[cx]
        for y, cy in items:
            if y == x:
                continue
            t = g.dist(x, y)
            if t <= near:
                if cy == cx:
                    return False
            elif t <= far:
                if cy <= cx:
                    return False
    return True


def _reference_extend_at(P, phi, gamma, c_max):
    """extend_at before the engine: one full membership test per colour."""
    bound = P.max_color()
    if c_max is None:
        c_max = bound
    for c in range(min(c_max, bound) + 1):
        if _reference_contains(P, phi.with_entry(gamma, c)):
            return c
    return None


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the exception is part of the answer
        return ("raised", type(exc), str(exc))


def _kinds(g):
    return [
        ProperColoring(g, 2),
        ProperColoring(g, 3),
        DistanceConstrained(g, (1, 3), (3, 7)),
        DistanceConstrained(g, (0, 1, 2), (1, 2, INF)),  # an empty band, an infinite one
        NotUniversal(g, (1, 3), (5, 13)),
        NotUniversal(g, (0, 1, 2), (1, 3, 5)),
    ]


def _colorings(points, max_size, colors):
    for size in range(max_size + 1):
        for dom in combinations(points, size):
            for cols in product(colors, repeat=size):
                yield dict(zip(dom, cols))


ENGINE_CASES = [(Z1, 4), (FreeAbelian(2), 1), (F2, 1)]


class TestPairwiseEngine:
    def test_shipped_kinds_share_one_engine(self):
        for kind in (ProperColoring, DistanceConstrained, NotUniversal):
            assert issubclass(kind, PairwiseIdeal)
            assert kind.contains is PairwiseIdeal.contains

    @pytest.mark.parametrize("g,radius", ENGINE_CASES, ids=["Z1-r4", "Z2-r1", "F2-r1"])
    def test_contains_matches_reference_loops(self, g, radius):
        points = g.ball(g.identity(), radius)
        checked = 0
        for P in _kinds(g):
            for entries in _colorings(points, 3, range(4)):
                phi = PartialColoring(g, entries)
                assert _outcome(P.contains, phi) == _outcome(_reference_contains, P, phi), (
                    P, entries)
                checked += 1
        assert checked == 6 * sum(
            len(list(combinations(points, m))) * 4**m for m in range(4)
        )

    def test_product_colors_raise_as_before(self):
        for P in _kinds(Z1):
            phi = PartialColoring(Z1, {0: 1, 2: (1, 0)})
            assert _outcome(P.contains, phi) == _outcome(_reference_contains, P, phi)
            assert _outcome(P.contains, phi)[0] == "raised"

    @pytest.mark.parametrize("g,radius", ENGINE_CASES, ids=["Z1-r4", "Z2-r1", "F2-r1"])
    def test_extend_at_matches_reference(self, g, radius):
        """Every pattern of up to two points, members or not, in or out of
        the palette, extended at every point of the ball, coloured or not."""
        points = g.ball(g.identity(), radius)
        seen = {"non-member": 0, "colored": 0, "outside": 0}
        for P in _kinds(g):
            for entries in _colorings(points, 2, range(4)):
                phi = PartialColoring(g, entries)
                member = _outcome(_reference_contains, P, phi)
                for gamma in points:
                    for c_max in (None, 1):
                        got = _outcome(P.extend_at, phi, gamma, c_max)
                        want = _outcome(_reference_extend_at, P, phi, gamma, c_max)
                        assert got == want, (P, entries, gamma, c_max)
                    seen["colored"] += gamma in phi
                seen["non-member"] += member == ("value", False)
                seen["outside"] += member[0] == "raised"
        assert all(seen.values()), seen

    def test_extend_at_on_product_colors_and_invalid_points(self):
        for P in _kinds(Z1):
            phi = PartialColoring(Z1, {0: (1, 0), 3: 1})
            for gamma in (0, 1, "x"):
                got = _outcome(P.extend_at, phi, gamma, None)
                assert got == _outcome(_reference_extend_at, P, phi, gamma, None), (P, gamma)

    def test_locality_radius_checks_the_palette(self):
        for P in _kinds(Z1)[2:]:
            for c in (-1, P.palette_size):
                with pytest.raises(PaletteExhausted):
                    P.locality_radius(c)


# (group, largest window radius): on Z^1 and F_2 the largest s = floor(2R)
# that the window-process tests reach (NotUniversal with D = 13 on Z^1 and
# D = 3 on F_2); on Z^2 and Z^3, whose runs use radius 1 and s = 2, a few
# radii more
WINDOW_CASES = [(Z1, 26), (FreeAbelian(2), 6), (FreeAbelian(3), 4), (F2, 6)]


def _window_batch(P, offsets, centers, rng, colors):
    """Random windows about the given centres, laid out on the offsets: per
    window up to 24 coloured slots (every slot of a small window can be),
    colours drawn from ``colors``. Returns the code matrix and the patterns."""
    g = P.group
    C = np.full((len(centers), len(offsets)), NO_COLOR, dtype=np.int64)
    patterns = []
    for i, x in enumerate(centers):
        entries = {}
        for a in rng.sample(range(len(offsets)), rng.randint(0, min(len(offsets), 24))):
            c = rng.choice(colors)
            C[i, a] = P.color_code(c)
            entries[g.mul(offsets[a], x)] = c
        patterns.append(PartialColoring(g, entries))
    return C, patterns


# (group, largest s) of the random window judge tests
JUDGE_CASES = [(Z1, 6), (FreeAbelian(2), 4), (FreeAbelian(3), 3), (FreeGroup(1), 6), (F2, 3),
               (FreeGroup(3), 2)]


def _judge_kinds(g):
    return [
        ProperColoring(g, 3),
        ProperColoring(g, 5),
        DistanceConstrained(g, (1, 3), (3, 7)),
        DistanceConstrained(g, (0, 1, 2), (1, 2, INF)),  # an h = inf band
        NotUniversal(g, (1, 3), (5, 13)),  # the cross-colour band [3, 5]
        NotUniversal(g, (0, 1, 2), (1, 3, 5)),
    ]


def _top(P):
    """Colours up to k + 1 on ProperColoring (OFF_PALETTE), inside the
    palette elsewhere."""
    return P.palette_size + (2 if isinstance(P, ProperColoring) else 0)


def _reference(P, C, D, window):
    """The per-row contains reference's verdicts."""
    return IdealSpec.window_judge(P, D, ())(C, window)


def _per_row_batch(P, offsets, D, rng, colors, rows, width):
    """Random windows that each lay ``width`` of the offsets, drawn and
    ordered for that row alone, on their slots, so that rows differ in their
    slot distances; D holds the distances between the offsets. Returns the
    code matrix, the (rows, width, width) slot distances and the patterns."""
    g = P.group
    C = np.full((rows, width), NO_COLOR, dtype=np.int64)
    Ds = np.zeros((rows, width, width), dtype=D.dtype)
    patterns = []
    for i in range(rows):
        x = rng.choice(offsets)
        slots = rng.sample(range(len(offsets)), width)
        Ds[i] = D[np.ix_(slots, slots)]
        entries = {}
        for a in rng.sample(range(width), rng.randint(0, min(width, 24))):
            c = rng.choice(colors)
            C[i, a] = P.color_code(c)
            entries[g.mul(offsets[slots[a]], x)] = c
        patterns.append(PartialColoring(g, entries))
    return C, Ds, patterns


def _judge_every_kind(g, s, near, rng, seen):
    """On the shared slot distances of Ball(1, s), the judge of every kind
    with every colour code gives the reference's verdicts on random windows
    centred in ``near``; ``seen`` counts the verdicts and OFF_PALETTE rows."""
    offsets = identity_ball(g, s)
    D = Region(g, s).slot_distances(s)
    for P in _judge_kinds(g):
        C, patterns = _window_batch(P, offsets, [rng.choice(near) for _ in range(8)], rng,
                                    range(_top(P)))
        got = P.window_judge(D, [P.color_code(c) for c in range(_top(P))])(C, patterns.__getitem__)
        assert got.tolist() == _reference(P, C, D, patterns.__getitem__).tolist(), (P, s)
        seen["rejected"] += int((~got).sum())
        seen["accepted"] += int(got.sum())
        seen["off palette"] += int((C == OFF_PALETTE).any())


class TestWindowCheck:
    """The judge on the shared matrix at every radius the window process
    reaches, and on windows whose colours contains refuses."""

    @pytest.mark.parametrize("g,max_r", WINDOW_CASES, ids=["Z1", "Z2", "Z3", "F2"])
    def test_array_check_matches_contains(self, g, max_r):
        rng = random.Random(11)
        near = identity_ball(g, 3)
        seen = {"rejected": 0, "accepted": 0, "off palette": 0}
        for r in range(max_r + 1):
            _judge_every_kind(g, r, near, rng, seen)
        assert all(seen.values()), seen

    def test_off_palette_and_pair_colours_raise_as_contains(self):
        """A pair colour is UNCODED on every kind, and so is a colour beyond
        the palette where contains raises PaletteExhausted
        (DistanceConstrained and NotUniversal): the judge raises them exactly
        as contains raises them. On ProperColoring that colour is
        OFF_PALETTE and its window is rejected."""
        rng = random.Random(5)
        offsets = identity_ball(Z1, 4)
        D = Region(Z1, 4).slot_distances(4)
        for P in _kinds(Z1):
            for bad in ((1, 0), P.palette_size):
                C, patterns = _window_batch(P, offsets, [0, 3, -2], rng, range(P.palette_size))
                C[1, 2] = P.color_code(bad)
                patterns[1] = patterns[1].with_entry(offsets[2] + 3, bad)
                got = _outcome(P.window_judge(D, np.unique(C).tolist()), C, patterns.__getitem__)
                want = _outcome(_reference, P, C, D, patterns.__getitem__)
                if got[0] == "value":
                    got = ("value", got[1].tolist())
                    want = ("value", want[1].tolist())
                assert got == want, (P, bad)
                assert (got[0] == "raised") == (bad != P.palette_size or P.outside_palette_raises)


class TestWindowJudge:
    """``window_judge(D, codes)`` on one shared slot-distance matrix, and
    the reference judge on one matrix per row (``per_row_judge``), against
    the per-row contains reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_judge_matches_contains(self, data):
        g, max_s = data.draw(st.sampled_from(JUDGE_CASES))
        s = data.draw(st.integers(0, max_s))
        P = data.draw(st.sampled_from(_judge_kinds(g)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        offsets = identity_ball(g, s)
        D = Region(g, s).slot_distances(s)
        # a subset of the colours, so that some rows are dense
        colors = rng.sample(range(_top(P)), rng.randint(1, _top(P)))
        centers = [rng.choice(offsets) for _ in range(rng.randint(0, 12))]
        C, patterns = _window_batch(P, offsets, centers, rng, colors)
        # the judge's codes: those of the colours drawn, and perhaps more
        extra = data.draw(st.sets(st.sampled_from(range(_top(P)))))
        judge = P.window_judge(D, [P.color_code(c) for c in {*colors, *extra}])
        want = _reference(P, C, D, patterns.__getitem__)
        assert judge(C, patterns.__getitem__).tolist() == want.tolist()
        with mock.patch.object(ideals, "_GATHER_CELLS", 1):
            assert judge(C, patterns.__getitem__).tolist() == want.tolist()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_per_row_judge_matches_contains(self, data):
        """Each row has slot distances of its own; blocks of no rows and
        rows of no slots (an audit block of empty samples) included."""
        g, max_s = data.draw(st.sampled_from(JUDGE_CASES))
        s = data.draw(st.integers(0, max_s))
        P = data.draw(st.sampled_from(_judge_kinds(g)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        offsets = identity_ball(g, s)
        rows = data.draw(st.integers(0, 12))
        width = data.draw(st.integers(0, len(offsets)))
        colors = rng.sample(range(_top(P)), rng.randint(1, _top(P)))
        C, D, patterns = _per_row_batch(P, offsets, Region(g, s).slot_distances(s), rng, colors,
                                        rows, width)
        judge = per_row_judge(P, D, [P.color_code(c) for c in colors])
        want = _reference(P, C, D, patterns.__getitem__)
        assert judge(C, patterns.__getitem__).tolist() == want.tolist()

    def test_per_row_judge_on_no_rows_and_no_slots(self):
        """Blocks of no rows, and rows of no slots, every pattern empty."""
        D = Region(F2, 2).slot_distances(2)
        for P in _judge_kinds(F2):
            codes = [P.color_code(c) for c in range(_top(P))]
            for rows, width in ((0, 0), (0, len(D)), (3, 0)):
                C, Ds, patterns = _per_row_batch(P, identity_ball(F2, 2), D, random.Random(0),
                                                 range(_top(P)), rows, width)
                got = per_row_judge(P, Ds, codes)(C, patterns.__getitem__)
                want = _reference(P, C, Ds, patterns.__getitem__)
                assert got.tolist() == want.tolist() == [True] * rows

    def test_judges_see_off_palette_and_rejections(self):
        """The drawn windows reach every verdict: members, non-members, and
        rows with an OFF_PALETTE slot."""
        rng = random.Random(3)
        seen = {"rejected": 0, "accepted": 0, "off palette": 0}
        for g, s in JUDGE_CASES:
            _judge_every_kind(g, s, identity_ball(g, s), rng, seen)
        assert all(seen.values()), seen

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_centre_judge_on_members_past_the_centre(self, data):
        """With ``centre_only``, on windows whose slots past slot 0 form a
        member, every kind's judge gives the reference's verdicts, and the
        default judge, which asks ``contains`` of the whole window, is the
        reference on every window."""
        g, max_s = data.draw(st.sampled_from(JUDGE_CASES))
        s = data.draw(st.integers(0, max_s))
        P = data.draw(st.sampled_from(_judge_kinds(g)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        offsets = identity_ball(g, s)
        D = Region(g, s).slot_distances(s)
        colors = rng.sample(range(_top(P)), rng.randint(1, _top(P)))
        centers = [rng.choice(offsets) for _ in range(rng.randint(0, 12))]
        C, patterns = _window_batch(P, offsets, centers, rng, colors)
        codes = [P.color_code(c) for c in colors]
        rest = [P.contains(phi.restrict([e for e in phi.domain() if e != x])) for phi, x in zip(patterns, centers)]
        want = _reference(P, C, D, patterns.__getitem__)
        got = P.window_judge(D, codes, centre_only=True)(C, patterns.__getitem__)
        assert got[rest].tolist() == want[rest].tolist()
        assert IdealSpec.window_judge(P, D, codes, True)(C, patterns.__getitem__).tolist() == want.tolist()

    def test_centre_judge_reads_only_the_pairs_through_slot_0(self):
        """Two neighbours of one colour past slot 0 make the window no
        member; the judge on every pair rejects it, the centre judge does
        not, and both reject a centre next to its own colour."""
        offsets = identity_ball(Z1, 2)
        D = Region(Z1, 2).slot_distances(2)
        P = ProperColoring(Z1, 3)
        patterns = [PartialColoring(Z1, {0: 0, 1: 1, 2: 1}), PartialColoring(Z1, {0: 0, -1: 0})]
        C = np.full((2, len(offsets)), NO_COLOR, dtype=np.int64)
        for row, phi in zip(C, patterns):
            row[[offsets.index(x) for x in phi.domain()]] = list(phi.entries.values())
        assert [P.contains(phi) for phi in patterns] == [False, False]
        assert P.window_judge(D, [0, 1])(C, patterns.__getitem__).tolist() == [False, False]
        assert P.window_judge(D, [0, 1], centre_only=True)(C, patterns.__getitem__).tolist() == [True, False]

    def test_pair_reach(self):
        """The largest hi of the bands between the codes: every band of PC,
        DC and NU, past the diagonal too, INF for a band with no end, for
        UNCODED and on a Reduced spec, and 0 where no band is met."""
        PC, DC = ProperColoring(Z1, 3), DistanceConstrained(Z1, (1, 3), (3, 7))
        NU, DC_inf = NotUniversal(Z1, (1, 3), (5, 13)), DistanceConstrained(Z1, (0, 1, 2), (1, 2, INF))
        assert [PC.pair_reach(codes) for codes in ([], [NO_COLOR], [OFF_PALETTE], [0], [0, 1, 2])] == [0, 0, 0, 1, 1]
        assert [DC.pair_reach(codes) for codes in ([0], [1], [0, 1], [0, UNCODED])] == [2, 6, 6, INF]
        assert [NU.pair_reach(codes) for codes in ([0], [1], [0, 1])] == [5, 13, 13]
        assert [DC_inf.pair_reach(codes) for codes in ([0], [1], [0, 1], [2])] == [0, 2, 2, INF]
        reduced = ReducedIdeal(PC, SupRadiiJoin(lambda c: 1, description=[1, 1, 1]))
        assert reduced.pair_reach([0]) == IdealSpec().pair_reach([0]) == INF

    @pytest.mark.parametrize("g", [Z1, F2])
    def test_pair_reach_bounds_the_compiled_bands(self, g):
        """No two of the codes are forbidden past ``pair_reach`` in the
        compiled bands, and a finite reach with a band is met at itself."""
        for P in _judge_kinds(g):
            for codes in [*([c] for c in range(P.palette_size)), list(range(P.palette_size))]:
                reach = P.pair_reach(codes)
                t_max = 40
                forbid = P._compiled(max(codes) + 1, t_max)
                used = np.array(codes) + 2
                far = forbid[np.ix_(used, used)].any(axis=(0, 1))
                if reach == INF:
                    assert far[t_max]
                else:
                    assert not far[reach + 1 :].any() and (far[reach] or reach == 0)

    def test_uncoded_codes_take_the_reference(self, monkeypatch):
        """With UNCODED among the codes the judge is the per-row reference:
        it asks contains of each window, and raises as contains raises."""
        offsets = identity_ball(Z1, 2)
        D = Region(Z1, 2).slot_distances(2)
        for P in _kinds(Z1):
            C, patterns = _window_batch(P, offsets, [0, 1], random.Random(1), range(P.palette_size))
            C[1, 2] = UNCODED
            patterns[1] = patterns[1].with_entry(offsets[2] + 1, (1, 0))
            judge = P.window_judge(D, [0, UNCODED])
            got = _outcome(judge, C, patterns.__getitem__)
            assert got[0] == "raised" and got == _outcome(_reference, P, C, D, patterns.__getitem__)
            asked = []
            monkeypatch.setattr(P, "contains", lambda phi: asked.append(phi) or True)
            assert judge(C[:1], patterns.__getitem__).tolist() == [True] and asked == [patterns[0]]
            monkeypatch.undo()
