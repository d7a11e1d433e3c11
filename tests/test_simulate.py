"""The randomized window coloring, its validator, equivariance, the sparse
multi-scale coloring, and pattern extraction.

Laws under test:
1. Config validation: the margin absorbs twice the largest window radius;
   densities are proper fractions; palette-less ideals need a schedule,
   and an ideal that declares only max_color() runs 0..max_color().
   Codes passed to ``run`` must cover the region.
2. Step rule, on a field whose support is substituted at listed steps
   (``Substituted``, a RandomField passed to ``run`` as its ``field``;
   supports come only from the field): a single support point gets the
   scheduled color; two adjacent support points at reach 0 both get
   colored — an invalid outcome that the validator must catch (this is
   why the warm-up exists). A support point that is already coloured, or
   too near the boundary to be a candidate, still blocks its neighbours;
   unlisted steps read the real field. The isolation kernel, a slot at a time over step words (a bit per step, in every
   word width), keeps of each step exactly the candidates the row rule
   keeps, in region order, on Z^1-Z^3 and F_1-F_3, for one step and for
   stacks of up to 64; it reads ``Region.columns`` once per chunk of its
   candidates with a bit set. A stacked mask of many steps equals their
   masks one at a time and ``bit``, on every density. Each step's
   isolated supports equal the row rule on its field mask for 1 to 130
   steps (every word width and several blocks), with warm-up steps,
   several radii, radii past the region's, translated codes, substituted
   supports and chunks of any size; whole runs of those lengths equal the
   scalar reference run. The survivors are split by step a lowest set bit
   at a time, as a pass per step splits them, in every word width.
3. Hard invariants on live runs: colorings grow monotonically, same-step
   points are farther apart than twice the step's reach, every local window
   of the final coloring is a member.
4. Equivariance: runs driven by a translated field agree with the original
   on the safe interior, exactly. Whole reports equal those of the
   per-point check (one g.mul and one index lookup per point), also when a
   skewed kernel makes records differ. A substituted field, passed to the
   check and so to both runs, is a field on elements, so its runs are
   equivariant too and equal the per-point check on it. A report's bytes
   are pinned, its cone written as ``str(cone)``: "6" after three steps at
   radius 3/2, "15/2" after four at 5/4. A trace summary writes its
   config's density as "1/8" whether it was given as a Fraction, a string
   or a float.
5. Sparse runs: the greedy colouring equals the all-pairs greedy, on
   Z^1-Z^3 and F_1-F_3 at every d_c in [0, 2T], so from table rows, from
   pair blocks and by the complete-graph shortcut; the frozen greedy table
   on the line, hard separation for the final colors, coverage reporting.
   A tabled scale reads composed windows and makes no distance_block
   call; a scale whose ball is wider than the region measures pairs and
   composes no window; windows are composed a chunk of whole blocks at a
   time, with the whole table's colouring and two chunks' bytes at most;
   the F_2 window 8 at d_c = 7 composes chunks under 9 MB. With every
   point given one colour, the packed re-verification records the
   violations of a per-pair loop over g.dist, in its order, in blocks of
   any size and on an F_1 window past pack_limit. A negative window is
   refused.
6. Extraction: recurring patterns are found, normalized to the identity,
   kept and ordered as a Counter over the interior windows keeps them on
   periodic and random colourings of Z^1-Z^3, F_1 past pack_limit, F_2
   and F_3, with holes and pair colours, and on final colourings of runs,
   at whole and rational radii; the colouring is read in place, with no
   window built as a pattern and one mul per point read; a negative shape
   radius or occurrence count is refused.
7. The array-built region agrees with the breadth-first ball, group.norm,
   the scalar element code, an index-plus-mul generator table and g.dist;
   it locates points inside it, just outside and past int64 by its layout
   as an index dict and the sorted code search it replaced do; its
   composed windows, the slot distances measured on first use (and never
   by composing windows alone) and the one window decoder that reads them
   agree with brute force over g.dist, every window at every width up to
   2T - 1; the windows of every point are the reference
   table (``table_reference``) and the transpose of the row-major strided
   column build kept here at every width up to 2T + 1, in uint16, int32
   and int64, and the windows of random points, boundary ones among them,
   are its columns; windows, the isolation kernel's windows and slot
   distances whose bytes pass physical memory are refused before
   allocating (exit 3 from the CLI). A region's index dtype is uint16
   below 2^16 points and int32 from there: on Z^1 either side of the
   bound, its windows, slot distances, elements, locate, translation
   kernel, greedy and a validated run equal the region's in a wider
   dtype. A region keeps no code order: it checks its codes for collisions,
   with one sort, exactly where ``codes_hashed`` says they are hashed, and
   refuses colliding ones there. Its translation kernel agrees with
   g.mul, the scalar element code and an index dict, in machine integers
   and in Python ints, and calls g.mul for no point. Its elements are decoded only where a report
   names points: not by a simulate without --dump that validates clean,
   nor by an equivariance check without mismatches; once, as the
   breadth-first ball names them, by a dump, a failure and a mismatch.
8. The validator reads its windows from the trace's region, building
   none even after a run on another geometry, and agrees with a
   brute-force validator over g.dist on Z^1, Z^2, Z^3 and F_2, with and
   without warm-up, and on hand traces with failures. The points whose
   windows it judges are the coloured x with |x| + ceil(r_c) <= T by
   scalar norms, on Z^1, Z^2 and F_2, at r_c = 3/2 and beside colours of
   infinite radius, which it skips as the brute force does. A run's
   trace holds region indices: it is validated and compared with no point
   located or validated again, and decoding it and building it again with
   ``SimulationTrace.from_elements`` gives the same indices and report, on
   drawn and on substituted supports alike.
   Hand traces are refused with ValueError for invalid colours and points
   outside the region, any trace that colours a point twice is refused,
   and the validator refuses an ideal on another group. Random hand traces on Z^1, Z^2 and F_2, most
   with failures, equal the brute-force validator. A trace's ``step_of``
   is the scatter of its steps for traces from ``run``, ``from_elements``
   and the reference run on Z^1-Z^3 and F_1-F_3, and again after
   ``dataclasses.replace`` gives it other steps.
9. Batched admission: ``run`` and the validator, judging many windows in
   one array check, give the same assigned sets, fills and
   validation reports (counts and failures in order) as the same ideal
   judged window by window through ``contains``, on the runs and hand
   traces of law 8.
10. Whole-run passes: ``run`` draws the supports of a block of up to 64
   steps in one mask and isolates them in one kernel call per isolation
   radius, and the validator makes at most one
   membership call per window radius per block of coloured points, however
   many steps the trace has; blocks of one cell give the same traces and
   reports. A run builds at most one window judge per isolation radius and
   calls it at most once per step; the validator builds at most one per
   window radius, on every pair of a window.
11. The scalar reference run (``run_reference``: ``RandomField.value``
   bits, ``g.ball`` windows, ``contains``) gives identical summaries and
   dumps to ``run``, on Z^1-Z^3 and F_1-F_2, for the three pairwise kinds
   and for a Reduced spec with a pair schedule (the per-row fallback),
   with warm-up on and off, and on one substituted field passed to both,
   which the reference reads through ``value``. A run judges its windows
   on the pairs through slot 0 alone exactly where every step with
   candidates sees the ideal's ``pair_reach`` (the pairwise kinds under
   warm-up), on every pair elsewhere, and its steps equal those of the run
   that judges every pair, on Z^1-Z^3 and F_1-F_3.
12. Window readers: the isolation kernel, the greedy (both also past the
   region's radius), run's gather on every judged step and the windows the
   validator judges, failures included, equal what the rows of the
   row-major int64 reference table give, on Z^1-Z^3 and F_1-F_3; the
   validator's reports are the same bytes in blocks of one cell, of one
   (step, centre) pair, of a few and at the default size; a run and
   its validation on a cached F_2 region peak below the bytes of the table
   the region once kept.
"""

import copy
import dataclasses
import functools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import cli, groups, simulate
from shiftcolor import patterns as patterns_module
from shiftcolor.groups import FreeAbelian, FreeGroup
from shiftcolor.ideals import (
    NO_COLOR,
    DistanceConstrained,
    IdealSpec,
    NotUniversal,
    PaletteExhausted,
    ProperColoring,
)
from shiftcolor.patterns import PartialColoring, shift
from shiftcolor.radii import INF, Infinity, radius_ceil, radius_floor
from shiftcolor.reduction import ReducedIdeal, SupRadiiJoin
from shiftcolor.reports import canonical_json_bytes
from shiftcolor.rng import RandomField, bernoulli_mask, bit, codes_hashed, element_code, element_codes
from shiftcolor.simulate import (
    EquivarianceReport,
    SimulationConfig,
    SimulationTrace,
    ValidationReport,
    _greedy_distance_coloring,
    _region_of,
    _window_after,
    equivariance_check,
    extract_patterns,
    run,
    sparse_run,
    trace_validate,
)

from ball_reference import ball_norms, bfs_ball, code_search
from run_reference import reference_run, split_by_comprehension
from table_reference import reference_table

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = FreeGroup(2)
PC3 = ProperColoring(Z1, 3)


class TestConfigValidation:
    def test_margin_must_cover_reach(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=1, steps=1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_density_bounds(self):
        for p in (Fraction(0), Fraction(1), Fraction(3, 2)):
            cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=1, p=p)
            with pytest.raises(ValueError):
                cfg.validate()

    def test_infinite_radius_color_rejected(self):
        from shiftcolor.ideals import DistanceConstrained
        from shiftcolor.radii import INF

        dc = DistanceConstrained(Z1, (1, 3), (1, INF))
        cfg = SimulationConfig(ideal=dc, window_radius=5, margin=10, steps=1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_good_config_passes(self):
        """And a negative window, margin or step count fails it."""
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=3)
        cfg.validate()
        for field in ("window_radius", "margin", "steps"):
            with pytest.raises(ValueError, match="must be nonnegative"):
                dataclasses.replace(cfg, **{field: -1}).validate()

    def test_schedule_colors_validated_up_front(self):
        for ideal in (PC3, DC, NU):
            for bad in (-1, True, "0"):
                cfg = SimulationConfig(ideal=ideal, window_radius=5, margin=26, steps=1,
                                       schedule=[0, bad])
                with pytest.raises(ValueError):
                    cfg.validate()
        for ideal in (DC, NU):  # no negative indexing, no IndexError
            cfg = SimulationConfig(ideal=ideal, window_radius=5, margin=26, steps=1, schedule=[2])
            with pytest.raises(PaletteExhausted):
                cfg.validate()
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=26, steps=1, schedule=[])
        with pytest.raises(ValueError, match="empty color schedule"):
            cfg.validate()

    def test_max_color_alone_fixes_the_default_schedule(self):
        """An ideal that declares only its largest colour simulates on the
        default schedule 0..max_color(); one without it needs a schedule."""

        class Declared(IdealSpec):
            kind = "Declared"
            group = Z1

            def contains(self, phi):
                return PC3.contains(phi)

            def locality_radius(self, color):
                return 1

            def max_color(self):
                return 2

            def to_json(self):
                return {"kind": self.kind}

        config = SimulationConfig(Declared(), 10, 2, 9, Fraction(1, 3), seed=4)
        trace = run(config)
        assert trace.schedule_used == [0, 1, 2] * 3
        assert trace.assigned_sets == run(dataclasses.replace(config, ideal=PC3)).assigned_sets
        assert any(elems for _c, elems in trace.assigned_sets)
        assert trace_validate(trace, config.ideal).ok
        Declared.max_color = IdealSpec.max_color
        with pytest.raises(ValueError, match="no finite palette; pass a schedule"):
            config.validate()
        assert run(dataclasses.replace(config, schedule=[0, 1, 2])).assigned_sets == trace.assigned_sets

    def test_proper_coloring_schedule_beyond_palette_is_never_accepted(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=10, margin=2, steps=6, schedule=[3])
        trace = run(cfg)
        assert all(elems == () for _c, elems in trace.assigned_sets)
        assert trace_validate(trace, PC3).ok


class Substituted(RandomField):
    """The config's field with the support substituted at the listed steps:
    at step i it is exactly the points listed in ``supports[i]``, read by
    their element codes, through ``mask`` (as ``run`` reads it) and
    ``value`` (as the reference run reads it), and every other step reads
    the drawn field. A run passes it as its ``field``; warm-up steps, which
    read none, stay empty."""

    def __init__(self, config, supports):
        g = config.ideal.group
        super().__init__(g, config.seed, config.p)
        self.listed = {i: [element_code(g, e) for e in points] for i, points in supports.items()}

    def mask(self, steps, codes):
        masks = super().mask(steps, codes)
        for row, i in enumerate(steps):
            if i in self.listed:
                masks[row] = np.isin(codes, np.array(self.listed[i], dtype=codes.dtype))
        return masks

    def value(self, step, element):
        if step in self.listed:
            return element_code(self.group, element) in self.listed[step]
        return super().value(step, element)


def substituted(case):
    """(config, field) of a case: a config, on its own field, or a pair
    (config, supports), on the field with those supports substituted."""
    config, supports = (case, {}) if isinstance(case, SimulationConfig) else case
    return config, Substituted(config, supports)


class TestStepRule:
    def test_forced_single_point(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=1, seed=0, warmup=False)
        trace = run(cfg, Substituted(cfg, {0: [0]}))
        assert trace.assigned_sets == [(0, (0,))]

    def test_forced_adjacent_pair_slips_through_at_reach_zero(self):
        """At reach 0 two adjacent support points are both 'isolated', and
        each local window check sees only itself: the step accepts both with
        the same color. The validator must flag the resulting pattern."""
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=1, seed=0, warmup=False)
        trace = run(cfg, Substituted(cfg, {0: [0, 1]}))
        assert trace.assigned_sets == [(0, (0, 1))]
        report = trace_validate(trace, PC3)
        assert not report.ok
        assert {f["element"] for f in report.failures} == {0, 1}

    def test_forced_isolation_reads_the_neighbour_table(self):
        """At reach 1 (s = 2) the support points 0 and 2 see each other and
        neither is isolated; -3 and 6 are, and come out in region order."""
        cfg = SimulationConfig(ideal=PC3, window_radius=10, margin=2, steps=2)
        assert run(cfg, Substituted(cfg, {1: [6, -3, 0, 2]})).assigned_sets == [(0, ()), (1, (-3, 6))]

    def test_coloured_support_point_still_blocks(self):
        """Point 0, coloured at step 0 and so no candidate at step 1, is a
        support point there again and blocks 2 (distance 2 <= s = 2); 3 is
        farther and is coloured."""
        cfg = SimulationConfig(ideal=PC3, window_radius=10, margin=2, steps=2, warmup=False)
        for fresh, assigned in ((2, ()), (3, (3,))):
            field = Substituted(cfg, {0: [0], 1: [0, fresh]})
            assert run(cfg, field).assigned_sets == [(0, (0,)), (1, assigned)]

    def test_boundary_support_point_still_blocks(self):
        """At T = 7 and s = 2 the support point 7 is never a candidate
        (7 + 2 > T), yet it blocks the candidate 5; 4 is farther and is
        coloured."""
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=2)
        for fresh, assigned in ((5, ()), (4, (4,))):
            assert run(cfg, Substituted(cfg, {1: [7, fresh]})).assigned_sets == [(0, ()), (1, assigned)]

    def test_unlisted_steps_read_the_real_field(self):
        """Substituting step 4 leaves the steps before it as drawn, and
        step 4 colours only listed points."""
        cfg = SimulationConfig(PC3, 10, 2, 8, Fraction(1, 2), seed=3)
        drawn = run(cfg).assigned_sets
        assigned = run(cfg, Substituted(cfg, {4: [0, 3, -5]})).assigned_sets
        assert assigned[:4] == drawn[:4] and any(elems for _c, elems in drawn[:4])
        assert assigned[4] == (1, (3, -5))  # 0 is coloured at step 2 and blocks none at s = 2

    def test_warmup_blocks_early_rounds(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=10, margin=2, steps=3, seed=1)
        trace = run(cfg)
        # reach 0 < max radius 1 during the first round: forced empty
        assert trace.assigned_sets[0][1] == ()
        assert trace.reaches[0] == 0 and trace.reaches[1] == 1

    def test_schedule_cycles_palette(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=8, margin=2, steps=7, seed=0)
        trace = run(cfg)
        assert trace.schedule_used == [0, 1, 2, 0, 1, 2, 0]

    def test_field_codes_must_cover_the_region(self):
        config = SimulationConfig(PC3, 5, 2, 4, Fraction(1, 2), seed=0)
        with pytest.raises(ValueError, match="field codes must cover the region"):
            run(config, codes=np.zeros(3, dtype=np.uint64))

    def test_determinism(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=30, margin=2, steps=20, seed=9)
        assert run(cfg).assigned_sets == run(cfg).assigned_sets


# (group, region radius) for the isolation kernel
ISOLATION_CASES = [
    (Z1, 30),
    (Z2, 6),
    (FreeAbelian(3), 3),
    (FreeGroup(1), 30),
    (F2, 3),
    (FreeGroup(3), 2),
]


def row_rule_isolated(nbrs, supp_mask, cand):
    """The brute-force row rule: a candidate is kept iff its whole row of
    ``nbrs`` holds exactly one support point, itself."""
    padded = np.append(supp_mask, False)
    return [x for x in cand.tolist() if padded[nbrs[x]].sum() == 1]


# the word of a block of k <= 64 steps, the narrowest that holds k bits
WORD_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def word_dtype(k):
    return next(dtype for bits, dtype in WORD_DTYPES.items() if k <= bits)


def fold_words(masks, dtype):
    """A word per point of the (k, n) masks and 0 at the sentinel index, bit
    j set where row j is: one Python int per point, a step at a time."""
    k, n = masks.shape
    words = [0] * (n + 1)
    for j, row in enumerate(masks.tolist()):
        for x in np.flatnonzero(row).tolist():
            words[x] |= 1 << j
    return np.array(words, dtype=dtype)


def assert_steps_match_row_rule(rows, masks, cand, got):
    """Step j of the kernel's result is what the row rule, reading the
    table's ``rows``, keeps of the candidates that are support points of
    step j, in region order."""
    assert len(got) == len(masks)
    for mask, mine in zip(masks, got):
        assert mine.tolist() == row_rule_isolated(rows, mask, cand[mask[cand]])
        assert (np.diff(mine) > 0).all()  # region order


class TestBitSplit:
    """``_by_bit`` peels each word's lowest set bit and splits the words by
    bit as a pass over them per bit does (``split_by_comprehension``), in
    every word width, for blocks of 1, 7, 59 and 64 steps, from sparse
    words to words with every bit set."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_comprehension(self, data):
        width, k = data.draw(st.sampled_from([(w, k) for w in WORD_DTYPES for k in (1, 7, 59, 64) if k <= w]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        n = data.draw(st.integers(0, 3000))
        density = data.draw(st.sampled_from([1 / 64, 1 / 8, 1 / 2, 1]))
        bits = [(rng.random(n) < density).astype(np.uint64) << np.uint64(j) for j in range(k)]
        words = np.bitwise_or.reduce([np.zeros(n, dtype=np.uint64), *bits], axis=0)
        drawn = data.draw(st.lists(st.integers(1, 2**k - 1), max_size=8))  # edge words too
        words = np.concatenate([words, np.array(drawn, dtype=np.uint64)])
        words = words[words != 0].astype(WORD_DTYPES[width])
        cand = np.sort(rng.choice(4 * len(words) + 1, len(words), replace=False))
        got = simulate._by_bit(cand, words, k)
        assert len(got) == k
        assert [a.tolist() for a in got] == [a.tolist() for a in split_by_comprehension(cand, words, k)]


class TestIsolationKernel:
    """``_isolated`` reads a word per point, a bit per step, a slot at a time,
    and keeps of each step what the row rule keeps, in every word width."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(ISOLATION_CASES),
        s=st.integers(0, 3),
        p=st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)]),
        seed=st.integers(0, 2**64),
        pick=st.sampled_from(["all", "some", "none"]),
        dtype=st.sampled_from(list(WORD_DTYPES.values())),
    )
    def test_matches_row_rule(self, case, s, p, seed, pick, dtype):
        region = _region_of(*case)
        masks = bernoulli_mask(seed, [s], region.codes, p)
        cand = np.arange(len(region))
        if pick == "some":
            cand = cand[bernoulli_mask(seed, -1, region.codes, Fraction(1, 2))]
        cand = cand[:0] if pick == "none" else cand
        got = simulate._isolated(region, s, fold_words(masks, dtype), cand, 1)
        assert_steps_match_row_rule(reference_table(region, s).T, masks, cand, got)

    def test_empty_support_and_one_column(self):
        """Empty support, empty candidates, and s = 0, where the row is the
        point alone and every candidate stands."""
        for case in ISOLATION_CASES:
            region = _region_of(*case)
            n = len(region)
            nothing, every = np.zeros((3, n), dtype=bool), np.ones((3, n), dtype=bool)
            for s in range(4):
                nbrs = reference_table(region, s)
                for masks in (nothing, every):
                    for cand in (np.zeros(0, dtype=np.int64), np.arange(n)):
                        got = simulate._isolated(region, s, fold_words(masks, np.uint8), cand, 3)
                        assert_steps_match_row_rule(nbrs.T, masks, cand, got)
            got = simulate._isolated(region, 0, fold_words(every, np.uint8), np.arange(n), 3)
            assert [mine.tolist() for mine in got] == [list(range(n))] * 3

    @pytest.mark.parametrize(
        "case, s, least",
        [pytest.param((Z1, 8000), 12, None, id="Z^1-own-chunk"),
         *(pytest.param(case, 1, 7, id=f"{case[0].name}-chunk-7") for case in ISOLATION_CASES[:-1])],
    )
    def test_reads_columns_a_chunk_of_candidates_at_a_time(self, monkeypatch, case, s, least):
        """With more candidates than a chunk, max(_CHUNK, _CHUNK_CELLS //
        |Ball(1, s)|), ``_isolated`` composes no window itself: it calls
        ``Region.columns`` once per chunk of the candidates with a bit set,
        in order, and keeps what the row rule keeps. The chunk is at its
        own size on Z^1 and shrunk to 7 candidates on the smaller regions."""
        if least is not None:
            monkeypatch.setattr(simulate, "_CHUNK", least)
            monkeypatch.setattr(simulate, "_CHUNK_CELLS", 1)
        region = _region_of(*case)
        chunk = max(simulate._CHUNK, simulate._CHUNK_CELLS // groups.ball_size(region.group, s))
        masks = bernoulli_mask(3, range(2), region.codes, Fraction(1, 2))
        cand = np.flatnonzero(ball_norms(region.group, region.elements) + s <= region.radius)
        live = cand[masks[:, cand].any(axis=0)]
        assert len(live) > chunk
        calls = count_calls(monkeypatch, simulate.Region, "columns")
        got = simulate._isolated(region, s, fold_words(masks, np.uint8), cand, 2)
        assert [(args[1], len(args[2])) for args in calls] == [
            (s, min(chunk, len(live) - lo)) for lo in range(0, len(live), chunk)]
        assert np.concatenate([args[2] for args in calls]).tolist() == live.tolist()
        assert_steps_match_row_rule(reference_table(region, s).T, masks, cand, got)


class TestStackedSupports:
    """``run`` draws and isolates many steps' supports at once: a stacked
    mask equals the masks of its steps, one at a time, and ``bit``; and the
    isolation kernel on the words of k steps keeps of each step exactly
    what the row rule keeps."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**70)),
        steps=st.lists(st.one_of(st.integers(0, 1000), st.integers(2**64, 2**70)), max_size=6),
        codes=st.lists(st.integers(0, 2**64 - 1), max_size=12),
        p=st.sampled_from(
            [Fraction(1, 2), Fraction(1, 3), Fraction(7, 8), Fraction(1, 2**64), Fraction(-1, 2), Fraction(0),
             Fraction(1), Fraction(3, 2)]
        ),
    )
    def test_mask_of_many_steps_equals_scalar_masks_and_bits(self, seed, steps, codes, p):
        codes = np.array(codes, dtype=np.uint64)
        masks = bernoulli_mask(seed, steps, codes, p)
        assert masks.dtype == bool and masks.shape == (len(steps), len(codes))
        assert masks.tolist() == [bernoulli_mask(seed, t, codes, p).tolist() for t in steps]
        assert masks.tolist() == [[bit(seed, t, c, p) for c in codes.tolist()] for t in steps]
        if 0 < p < 1:
            assert RandomField(Z1, seed, p).mask(steps, codes).tolist() == masks.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(ISOLATION_CASES),
        s=st.integers(0, 3),
        k=st.sampled_from([1, 2, 7, 8, 9, 16, 17, 33, 63, 64]),
        p=st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)]),
        seed=st.integers(0, 2**64),
        pick=st.sampled_from(["all", "some", "none"]),
    )
    def test_isolation_of_stacked_steps_matches_row_rule(self, case, s, k, p, seed, pick):
        region = _region_of(*case)
        masks = bernoulli_mask(seed, range(k), region.codes, p)
        cand = np.arange(len(region))
        if pick == "some":
            cand = cand[bernoulli_mask(seed, -1, region.codes, Fraction(1, 2))]
        cand = cand[:0] if pick == "none" else cand
        got = simulate._isolated(region, s, fold_words(masks, word_dtype(k)), cand, k)
        assert_steps_match_row_rule(reference_table(region, s).T, masks, cand, got)


class TestHardInvariants:
    def test_live_run_clean(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=50, margin=10, steps=60, p=Fraction(1, 2), seed=7
        )
        trace = run(cfg)
        fills = trace.fill_fractions
        assert all(a <= b + 1e-12 for a, b in zip(fills, fills[1:]))
        for (color, elems), reach in zip(trace.assigned_sets, trace.reaches):
            for i, x in enumerate(elems):
                for y in elems[i + 1 :]:
                    assert Z1.dist(x, y) > 2 * reach
        assert trace_validate(trace, PC3).ok
        assert fills[-1] > 0.5

    def test_colorings_chain_is_monotone(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=20, margin=2, steps=15, seed=3)
        trace = run(cfg)
        chain = [trace.coloring_at(i) for i in range(len(trace.assigned_sets) + 1)]
        for small, big in zip(chain, chain[1:]):
            for e, c in small.entries.items():
                assert big[e] == c

    def test_final_coloring_in_ideal(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=30, margin=2, steps=30, seed=5)
        trace = run(cfg)
        assert PC3.contains(trace.final_coloring)


class TestNotUniversalRuns:
    def test_z1_random_run(self):
        nu = NotUniversal(Z1, (1, 3), (5, 13))
        cfg = SimulationConfig(
            ideal=nu, window_radius=30, margin=26, steps=40, p=Fraction(1, 54), seed=2
        )
        trace = run(cfg)
        final = trace.final_coloring
        assert len(final) == 8  # frozen for this seed
        assert final.colors_used() == {0, 1}
        assert trace_validate(trace, nu).ok

    def test_f2_forced_fixture(self):
        """Identity gets colored; aa and bb are then refused: they are
        within distance 2*d_0 of the identity with the same color."""
        nu = NotUniversal(F2, (1,), (3,))
        cfg = SimulationConfig(ideal=nu, window_radius=2, margin=6, steps=4, seed=0)
        trace = run(cfg, Substituted(cfg, {1: [""], 2: ["aa"], 3: ["bb"]}))
        assert trace.assigned_sets == [(0, ()), (0, ("",)), (0, ()), (0, ())]
        assert trace_validate(trace, nu).ok


# (group, largest region radius, largest neighbourhood radius) kept small
# enough for brute force
KERNEL_CASES = [
    (Z1, 8, 4),
    (Z2, 5, 3),
    (FreeAbelian(3), 3, 2),
    (F2, 3, 3),
    (FreeGroup(3), 2, 2),
]


# (group, largest radius) for the array-built Region against its references;
# Z^28 has rows of 224 bytes, the widest table keys
REGION_CASES = [
    (Z1, 12),
    (Z2, 6),
    (FreeAbelian(3), 4),
    (FreeAbelian(4), 3),
    (FreeAbelian(28), 2),
    (FreeGroup(1), 12),
    (F2, 4),
    (FreeGroup(3), 3),
]


# (group, largest radius) for the translation kernel; F_1 reaches past its
# pack_limit of 40 letters
TRANSLATE_CASES = [
    (Z1, 8),
    (Z2, 4),
    (FreeAbelian(3), 3),
    (FreeAbelian(4), 2),
    (FreeGroup(1), 44),
    (F2, 3),
    (FreeGroup(3), 2),
]

# (group, largest radius) for locating points; F_1 at 44 letters
# packs as Python ints, and F_18's base 37 is past the digits int reads
LOCATE_CASES = [
    (Z1, 12),
    (Z2, 5),
    (FreeAbelian(3), 3),
    (FreeAbelian(4), 2),
    (FreeGroup(1), 12),
    (F2, 3),
    (FreeGroup(3), 2),
    (FreeGroup(18), 1),
    (FreeGroup(1), 44),
]

# coordinates near the 21-bit packing limit and past int64
_FAR = [2**20 - 1, 2**20, -(2**20), -(2**20) - 1, 2**62, 2**63 - 1, 2**63, -(2**63), 2**64 + 3]


@st.composite
def shift_elements(draw, g, lengths=st.one_of(st.integers(0, 8), st.sampled_from([26, 27, 28, 40, 41, 45]))):
    """An element of g: small, long, or near the limits of the array paths;
    on F_k a reduced word of a length drawn from ``lengths``."""
    if isinstance(g, FreeAbelian):
        coord = st.one_of(st.integers(-6, 6), st.sampled_from(_FAR), st.integers(-(2**70), 2**70))
        coords = [draw(coord) for _ in range(g.dimension)]
        return coords[0] if g.dimension == 1 else tuple(coords)
    length = draw(lengths)
    word = ""
    for i in draw(st.lists(st.integers(0, 2 * g.rank - 2), min_size=length, max_size=length)):
        # 2k - 1 letters follow each letter without cancelling it
        letters = [a for a in g.generators() if not word or a != word[-1].swapcase()]
        word += letters[i]
    return word


def index_dict(region):
    """Each region point's index, as a dict: the reference for locating
    points."""
    return {e: i for i, e in enumerate(region.elements)}


def assert_translate_matches(region, gamma):
    """``right_translate`` against g.mul, the scalar element_code and an
    index dict of the region."""
    g, n = region.group, len(region.elements)
    index, codes = region.right_translate(gamma)
    targets = [g.mul(x, gamma) for x in region.elements]
    reference = index_dict(region)
    assert index.tolist() == [reference.get(t, n) for t in targets]
    assert codes.dtype == np.uint64
    assert codes.tolist() == [element_code(g, t) for t in targets]


def column_table(region, s):
    """The neighbour table composed a strided column at a time in an (n, w)
    int64 array: column w*x from column w'*x through the generator table,
    for w = a*w' one layer out, keeping whichever path stays in the region.
    The reference for ``Region._build_table``."""
    g, n = region.group, len(region)
    offsets, packed = g.ball_arrays(s)
    norms = ball_norms(g, g.decode_ball(packed))
    step = offsets[:, :-1].T
    moves = region._step.T.astype(np.int64)  # (n + 1, gens): the sentinel row maps to itself
    table = np.full((n, len(norms)), n, dtype=np.int64)
    table[:, 0] = np.arange(n)
    pairs = np.nonzero(np.append(norms, -1)[step] > norms[:, None])
    for j, k, t in zip(pairs[0].tolist(), pairs[1].tolist(), step[pairs].tolist()):
        np.minimum(table[:, t], moves[table[:, j], k], out=table[:, t])
    return table


class TestRegionKernel:
    """The array-built region, its neighbour table and the offset windows
    against their references."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rows_and_windows_match_brute_force(self, data):
        g, max_T, max_s = data.draw(st.sampled_from(KERNEL_CASES))
        T = data.draw(st.integers(0, max_T))
        s = data.draw(st.integers(0, max_s))
        region = _region_of(g, T)
        points = region.elements
        i = data.draw(st.integers(0, len(points) - 1))
        center = points[i]
        cur = {e: k % 3 for k, e in enumerate(points) if data.draw(st.booleans())}
        # colour c is coloured at step c + 1; the rest, and the sentinel,
        # read past every step
        step_of = np.array([cur.get(e, 3) + 1 for e in points] + [4])
        t = data.draw(st.integers(0, 3))
        table = region.columns(s, np.arange(len(points))).T
        offsets = bfs_ball(g, g.identity(), s)
        index = index_dict(region)
        assert table[i].tolist() == [index.get(g.mul(w, center), len(points)) for w in offsets]
        for r in range(s + 1):
            near = {k for k, x in enumerate(points) if g.dist(center, x) <= r}
            width = len(bfs_ball(g, g.identity(), r))
            row = set(table[i, :width].tolist()) - {len(points)}
            assert row == near
            assert _window_after(region, step_of, [0, 1, 2], i, r, t) == {
                x: c for x, c in cur.items() if g.dist(center, x) <= r and c < t
            }

    @pytest.mark.parametrize(
        "g, T", [(Z1, 6), (Z2, 3), (FreeAbelian(3), 2), (FreeGroup(1), 6), (F2, 3), (FreeGroup(3), 2)]
    )
    def test_every_row_is_the_ball_past_the_region(self, g, T):
        """Every point's composed window (``columns(s)``), for every s up
        to 2T - 1 (wider than the region, as the sparse greedy reads it),
        less the sentinel, is the set of region points within s by
        g.dist."""
        region = simulate.Region(g, T)
        points = region.elements
        n = len(points)
        D = np.array([[g.dist(x, y) for y in points] for x in points])
        for s in range(2 * T):
            table = region.columns(s, np.arange(n)).T
            for i, row in enumerate(table.tolist()):
                assert sorted(k for k in row if k != n) == np.flatnonzero(D[i] <= s).tolist()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_array_built_region_matches_references(self, data):
        """Elements, located indices, norms, codes, generator table and
        packed distances against the breadth-first ball, group.norm, the
        scalar element_code, an index dict plus mul, and g.dist."""
        g, max_r = data.draw(st.sampled_from(REGION_CASES))
        r = data.draw(st.integers(-1, max_r))
        region = simulate.Region(g, r)
        ball = bfs_ball(g, g.identity(), r)
        n = len(ball)
        assert region.elements == ball
        assert region.locate(ball).tolist() == list(range(n))
        norms = ball_norms(g, ball)
        assert [region.prefix(t) for t in range(r + 1)] == [int((norms <= t).sum()) for t in range(r + 1)]
        assert region.codes.tolist() == [element_code(g, e) for e in ball]
        gens = g.generators()
        index = {e: i for i, e in enumerate(ball)}
        table = [[index.get(g.mul(a, x), n) for a in gens] for x in ball]
        assert region._step.T.tolist() == table + [[n] * len(gens)]
        if n:
            i = data.draw(st.integers(0, n - 1))
            distances = g.dist_packed(region.packed[:i], region.packed[i])
            assert distances.tolist() == [g.dist(x, ball[i]) for x in ball[:i]]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_locate_matches_index_dict(self, data):
        """``locate``, which reads the region's layout, against an index
        dict of the region and the sorted search of its codes that it
        replaced (``code_search``), on points inside it, just outside it
        (one layer out, at norm T + 1) and far away: coordinates past int64
        on Z^d, and on F_k words past pack_limit, of up to 60 letters, also
        about an F_1 region past its 40."""
        g, max_r = data.draw(st.sampled_from(LOCATE_CASES))
        region = simulate.Region(g, data.draw(st.integers(0, max_r)))
        near = bfs_ball(g, g.identity(), region.radius + 1)
        lengths = st.integers(0, 8) | st.sampled_from([26, 27, 28, 40, 41, 45]) | st.integers(40, 60)
        elements = data.draw(st.lists(st.one_of(st.sampled_from(near), shift_elements(g, lengths)), max_size=12))
        index = index_dict(region)
        located = region.locate(elements)
        assert located.dtype == np.int64
        assert located.tolist() == [index.get(e, len(index)) for e in elements]
        assert located.tolist() == code_search(region, elements).tolist()

    @pytest.mark.parametrize("g, r, wide", [(Z1, 6, 9), (Z2, 3, 5), (F2, 2, 3), (FreeGroup(1), 40, 43)])
    def test_slot_distances_after_a_wider_build(self, g, r, wide):
        """``slot_distances(s)`` read from the distances measured for a
        wider s equals a fresh build's and g.dist between the offsets of
        Ball(1, s); F_1 offsets past 40 letters pack as Python ints."""
        region = simulate.Region(g, r)
        region.slot_distances(wide)
        for s in range(wide + 1):
            offsets = bfs_ball(g, g.identity(), s)
            D = region.slot_distances(s)
            assert D.tolist() == simulate.Region(g, r).slot_distances(s).tolist()
            assert D.tolist() == [[g.dist(a, b) for b in offsets] for a in offsets]

    @pytest.mark.parametrize("g, r, s", [(Z1, 6, 5), (Z2, 3, 4), (F2, 3, 4)])
    def test_slot_distances_are_measured_on_first_use(self, monkeypatch, g, r, s):
        """Composing windows (``columns(s)``) alone measures no distance
        between offsets; the first ``slot_distances(s)`` does, once, and a
        narrower s reads its corner without measuring again."""
        calls = count_calls(monkeypatch, simulate, "distance_block")
        region = simulate.Region(g, r)
        width = region.columns(s, np.arange(len(region))).shape[0]
        assert calls == []
        assert region.slot_distances(s).shape == (width, width)
        assert len(calls) == 1
        region.slot_distances(s - 1)
        region.slot_distances(s)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "g, T", [(Z1, 6), (Z2, 3), (FreeAbelian(3), 2), (FreeGroup(1), 5), (F2, 3), (FreeGroup(3), 2)]
    )
    def test_table_equals_the_column_build(self, g, T):
        """Every point's windows (``columns(s)``), for every s up to 2T + 1
        (wider than the region), are the reference table, whose transpose
        is the table composed a strided column at a time, in the uint16 of
        regions below 2^16 points, and in the int32 and int64 that larger
        regions take; they are a new slot-major array, C-ordered in the
        generator table's index dtype, of |Ball(1, s)| cells a point."""
        for s in range(2 * T + 2):
            region = simulate.Region(g, T)
            assert region._step.dtype == np.uint16
            expected = column_table(region, s).T.tolist()
            for dtype in (np.uint16, np.int32, np.int64):
                if dtype != np.uint16:
                    region = simulate.Region(g, T)
                    region._step = region._step.astype(dtype)
                table = region.columns(s, np.arange(len(region)))
                assert table.dtype == region._step.dtype and table.flags.c_contiguous and table.flags.writeable
                assert table.nbytes == len(region) * groups.ball_size(g, s) * table.itemsize
                assert table.tolist() == reference_table(region, s).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columns_equal_the_reference_table(self, data):
        """Composed windows of a random subset of points, in any order and
        with repeats, the region's boundary among them, equal those columns
        of the reference table, for every s up to 2T - 1, on Z^1-Z^3 and
        F_1-F_3, in uint16 and int32 regions."""
        g, T = data.draw(st.sampled_from(LAYOUT_CASES))
        region = simulate.Region(g, T)
        if data.draw(st.booleans()):
            region._step = region._step.astype(np.int32)
        n = len(region)
        boundary = np.flatnonzero(ball_norms(g, region.elements) == T)
        points = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)) + [int(boundary[0])])
        points = points[data.draw(st.permutations(range(len(points))))]
        for s in range(2 * T):
            got = region.columns(s, points)
            assert got.dtype == region._step.dtype
            assert got.tolist() == reference_table(region, s)[:, points].tolist()

    def test_table_refused_before_allocating(self, monkeypatch):
        """Composed windows whose bytes, the index dtype's itemsize a cell,
        pass physical memory are refused with BudgetError before they are
        allocated; at exactly their bytes they are composed. So are slot
        distances past their bytes, 8 a cell, and the isolation kernel's
        windows about its candidates."""
        region = simulate.Region(F2, 4)
        points = np.arange(len(region))
        cells = len(region) * groups.ball_size(F2, 2)
        itemsize = region._step.itemsize
        monkeypatch.setattr(groups, "physical_memory", lambda: itemsize * cells - 1)
        tracemalloc.start()
        try:
            with pytest.raises(groups.BudgetError, match="physical memory"):
                region.columns(2, points)
            with pytest.raises(groups.BudgetError, match="161 candidates"):
                simulate._isolated(region, 2, np.ones(len(region) + 1, dtype=np.uint8), points, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * cells
        monkeypatch.setattr(groups, "physical_memory", lambda: itemsize * cells)
        assert region.columns(2, points).shape == (groups.ball_size(F2, 2), len(region))
        assert len(simulate._isolated(region, 2, np.ones(len(region) + 1, dtype=np.uint8), points, 1)) == 1
        monkeypatch.setattr(groups, "physical_memory", lambda: 8 * 17**2 - 1)
        with pytest.raises(groups.BudgetError, match="slot distances"):
            region.slot_distances(2)
        assert region._distances.shape == (0, 0)
        monkeypatch.setattr(groups, "physical_memory", lambda: 8 * 17**2)
        assert region.slot_distances(2).shape == (17, 17)

    def test_oversized_table_exits_three(self, tmp_path, monkeypatch, capsys):
        """The CLI reports refused windows as an exhausted budget (exit 3):
        PC5 on F_2 at window 2 and margin 2 isolates at radius 2, and the
        windows about its 17 candidates, 17 x 17 cells, are refused under
        their bytes, the index dtype's itemsize a cell. The region's own
        charge is far above those bytes, so memory reads them only once
        windows are composed."""
        spec = tmp_path / "pc5.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "F_2", "k": 5}))
        _region_of.cache_clear()
        itemsize = simulate.Region(F2, 0)._step.itemsize
        columns = simulate.Region.columns

        def tight_columns(region, *args):
            monkeypatch.setattr(groups, "physical_memory", lambda: itemsize * 17 * 17 - 1)
            return columns(region, *args)

        monkeypatch.setattr(simulate.Region, "columns", tight_columns)
        argv = ["simulate", str(spec), "--window", "2", "--margin", "2", "--steps", "8",
                "--out", str(tmp_path / "out.json")]
        try:
            assert cli.main(argv) == 3
        finally:
            _region_of.cache_clear()
        assert "windows of 17 candidates" in capsys.readouterr().err

    def test_codes_past_the_packable_length(self):
        """F_1 words past 40 letters pack as Python ints, and their codes are
        the scalar element_code's, hashed past 64 bits; ``locate`` walks
        their Python-int fields to every point, and words of 45 and 60
        letters to the sentinel."""
        region = simulate.Region(FreeGroup(1), 44)
        assert region.packed.dtype == object and region.codes.dtype == np.uint64
        assert region.codes.tolist() == [element_code(region.group, e) for e in region.elements]
        located = region.locate([*region.elements, "a" * 45, "A" * 60])
        assert located.tolist() == [*range(len(region)), len(region), len(region)]

    def test_colliding_codes_refused(self, monkeypatch):
        """Z^4 codes are hashed (``codes_hashed``), so a region of them is
        checked, and refused where they collide."""
        monkeypatch.setattr(simulate, "element_codes", lambda g, pts: np.zeros(len(pts), dtype=np.uint64))
        with pytest.raises(RuntimeError, match="element codes collide"):
            simulate.Region(FreeAbelian(4), 2)

    @pytest.mark.parametrize("g, T, hashed", [(Z1, 2, False), (Z1, 2**20 - 1, False), (Z1, 2**20, True),
                                              (FreeAbelian(3), 2, False), (FreeAbelian(4), 1, True),
                                              (FreeGroup(1), 40, False), (FreeGroup(1), 41, True), (F2, 3, False)])
    def test_codes_checked_exactly_where_hashed(self, monkeypatch, g, T, hashed):
        """A region checks its codes for collisions, with one sort and no
        argsort, exactly where ``codes_hashed`` says they may collide:
        codes forced to collide are refused there, and kept elsewhere,
        where the codes are distinct by construction."""
        assert codes_hashed(g, T) == hashed
        sorts, argsorts = count_calls(monkeypatch, np, "sort"), count_calls(monkeypatch, np, "argsort")
        monkeypatch.setattr(simulate, "element_codes", lambda g, pts: np.zeros(len(pts), dtype=np.uint64))
        if hashed:
            with pytest.raises(RuntimeError, match="element codes collide"):
                simulate.Region(g, T)
        else:
            assert not simulate.Region(g, T).codes.any()
        assert (len(sorts), argsorts) == (hashed, [])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_right_translate_matches_mul(self, data):
        g, max_r = data.draw(st.sampled_from(TRANSLATE_CASES))
        region = simulate.Region(g, data.draw(st.integers(0, max_r)))
        assert_translate_matches(region, data.draw(shift_elements(g)))

    @pytest.mark.parametrize(
        "g, r, gamma, products",
        [
            (Z1, 5, 0, "none"),
            (Z2, 4, (0, 0), "none"),
            (F2, 3, "", "none"),
            (Z1, 5, 2**20 - 3, "none"),  # translates cross the 21-bit packing limit
            (FreeAbelian(3), 3, (-(2**20), 2**20, 1), "none"),
            (FreeAbelian(4), 2, (2**62 - 4, -1, 0, 0), "none"),  # 2 + (2^62 - 3): pack_limit exactly
            (Z2, 3, (2**63 - 2, 0), "every"),  # translates past int64
            (Z1, 4, -(2**64), "every"),
            (FreeAbelian(3), 2, (2**70, 0, -(2**70)), "every"),
            # F_k translates in uint64 while |x| + |gamma| is at most pack_limit
            (F2, 3, "abAB" * 6, "none"),  # 3 + 24 letters: F_2 packs 27
            (F2, 1, "abAB" * 6 + "abA", "every"),
            (F2, 3, "abAB" * 7, "every"),
            (FreeGroup(3), 2, "abcacb" * 3 + "a", "none"),  # 2 + 19 letters: F_3 packs 21
            (FreeGroup(3), 2, "abcacb" * 3 + "abcac", "every"),
            (FreeGroup(18), 1, "raQ", "none"),  # base 37, past the 36 digits int reads
            (FreeGroup(1), 39, "a", "none"),  # 39 + 1 letters: F_1 packs 40
            (FreeGroup(1), 40, "A", "every"),
            (FreeGroup(1), 44, "A" * 3, "every"),  # a region past 40 letters
            (FreeAbelian(4), 2, (2**62, -1, 0, 3), "every"),  # int64 coordinates, norms past pack_limit
            (FreeGroup(3), 2, "abcacb" * 3 + "ab", "every"),  # 2 + 20 letters, one past F_3's 21
        ],
    )
    def test_right_translate_edge_cases(self, monkeypatch, g, r, gamma, products):
        """Identity, long shifts, coordinates at the packing and int64
        limits, words at F_2's 27/28-letter packing limit, and an F_1 region
        past pack_limit. The kernel calls g.mul for no point, and
        ``mul_packed`` only on rows whose translates leave the region, and
        only on F_k where r + |gamma| passes pack_limit. ``products`` says
        how many of the translates it reads as rows are Python ints: none,
        or every one where some |x| + |gamma| passes pack_limit; those are
        the rows ``ball_index`` reads on Z^d, and ``mul_packed``'s products
        on F_k."""
        region = simulate.Region(g, r)
        calls, rows, moved = [], [], []
        mul, mul_packed = type(g).mul, type(g).mul_packed
        # spies in the instance's own dict, which the undo empties again:
        # the module's groups are shared by every later test
        monkeypatch.setitem(vars(g), "mul", lambda x, y: calls.append(x) or mul(g, x, y))
        monkeypatch.setitem(vars(g), "mul_packed", lambda A, B: rows.append(A) or moved.append(mul_packed(g, A, B))
                            or moved[-1])
        if isinstance(g, FreeAbelian):
            ball_index = type(g).ball_index
            monkeypatch.setitem(vars(g), "ball_index", lambda P, T: moved.append(P) or ball_index(g, P, T))
        index = region.right_translate(gamma)[0]
        monkeypatch.undo()
        assert not {"mul", "mul_packed", "ball_index"} & set(vars(g))
        assert calls == []
        past = isinstance(g, FreeGroup) and r + len(gamma) > g.pack_limit
        assert len(rows) == past
        if rows:
            assert rows[0].tolist() == region.packed[index == len(region)].tolist()
        machine = np.uint64 if isinstance(g, FreeGroup) else np.int64
        assert [P.dtype for P in moved] == [object if products == "every" else machine] * len(moved)
        assert len(moved) == (1 if isinstance(g, FreeAbelian) else past)
        assert_translate_matches(region, gamma)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_right_translate_walks_every_letter(self, data):
        """Reduced words of up to 2T + 2 letters on F_1-F_3, and on F_1 about
        its pack_limit of 40 letters, so that translates leave the region
        at every letter of the walk, up to letter 2T, and T + |gamma| falls
        on either side of pack_limit: ``right_translate`` equals the
        references."""
        g, T = data.draw(st.sampled_from([*((FreeGroup(1), t) for t in (0, 1, 5, 20, 36, 39, 40, 44)),
                                          *((F2, t) for t in range(4)), *((FreeGroup(3), t) for t in range(3))]))
        gamma = data.draw(shift_elements(g, st.integers(0, 2 * T + 2)))
        region = simulate.Region(g, T)
        assert_translate_matches(region, gamma)
        # by g.mul, the letter of gamma at which each point's walk leaves
        left = {next((l for l in range(len(gamma)) if g.norm(g.mul(x, gamma[: l + 1])) > T), None)
                for x in region.elements}
        assert left - {None} == set(range(min(len(gamma), 2 * T + 1)))


def _recast(region, dtype):
    """A copy of region whose generator table is in dtype, its slot
    distances measured afresh and its elements decoded afresh."""
    other = copy.copy(region)
    other.__dict__.pop("elements", None)
    other._step = region._step.astype(dtype)
    other._distances = np.zeros((0, 0), dtype=np.int64)
    return other


class TestIndexDtype:
    """A region's index tables take uint16 below 2^16 points, the sentinel
    n included, and int32 from there; every reader of them gives on the
    regions either side of the bound what the same region gives in a wider
    dtype (int32 for the uint16 one, int64 for the int32 one)."""

    def test_the_narrowest_dtype_that_holds_the_sentinel(self):
        for n, dtype in ((0, np.uint16), (65_535, np.uint16), (65_536, np.int32), (2**31 - 1, np.int32),
                         (2**31, np.int64)):
            assert groups.index_dtype(n) == dtype and n <= np.iinfo(dtype).max

    @pytest.mark.parametrize("T, dtype, wider", [(32_767, np.uint16, np.int32), (32_768, np.int32, np.int64)])
    def test_readers_agree_with_a_wider_dtype(self, monkeypatch, T, dtype, wider):
        region = simulate.Region(Z1, T)
        assert len(region) == 2 * T + 1 and region._step.dtype == dtype
        other = _recast(region, wider)
        every = np.arange(len(region))
        for s in (0, 1, 3):
            assert region.columns(s, every).dtype == dtype and other.columns(s, every).dtype == wider
            assert np.array_equal(region.columns(s, every), other.columns(s, every))
            assert np.array_equal(region.slot_distances(s), other.slot_distances(s))
        assert region.elements == other.elements
        probe = [*region.elements[::97], region.elements[-1], T + 1, -T - 1, 2**70]
        located = region.locate(probe)
        assert located.tolist() == other.locate(probe).tolist()
        assert located[-3:].tolist() == [len(region)] * 3 and located[-4] == len(region) - 1
        for gamma in (0, 5, -T, 2 * T + 1):
            for mine, theirs in zip(region.right_translate(gamma), other.right_translate(gamma)):
                assert mine.tolist() == theirs.tolist()
        assert _greedy_distance_coloring(region, 3) == _greedy_distance_coloring(other, 3)
        config = SimulationConfig(ideal=PC3, window_radius=T - 2, margin=2, steps=6, seed=7)
        results = []
        for built in (region, other):
            monkeypatch.setattr(simulate, "_region_of", lambda g, radius, built=built: built)
            trace = run(config)
            results.append(([(c, at.tolist()) for c, at in trace.steps], trace.fill_fractions,
                            trace_validate(trace, PC3)))
        assert results[0] == results[1]
        assert results[0][2].ok and results[0][2].windows_checked > 0 and results[0][1][-1] > 0


def brute_force_validate(trace, ideal):
    """The quadratic validator: after each step, every colored point within
    the largest finite radius of a new point has its window rebuilt by
    scanning the whole coloring with g.dist."""
    r = ideal.locality_radius
    g = trace.group
    T = trace.config.window_radius + trace.config.margin
    report = ValidationReport()
    cur = {}
    finite = [r(c) for c, _ in trace.assigned_sets if not isinstance(r(c), Infinity)]
    max_reach = radius_floor(max(finite)) if finite else 0
    for step, (color, elems) in enumerate(trace.assigned_sets, start=1):
        for e in elems:
            cur[e] = color
        affected = {e for e in cur if any(g.dist(e, a) <= max_reach for a in elems)}
        for gamma in sorted(affected, key=g.sort_key):
            rc = r(cur[gamma])
            if isinstance(rc, Infinity):
                report.skipped_nonlocal += 1
                continue
            if g.dist(g.identity(), gamma) + rc > T:
                continue
            window = PartialColoring(g, {e: c for e, c in cur.items() if g.dist(gamma, e) <= rc})
            report.windows_checked += 1
            if not ideal.contains(window):
                report.failures.append(
                    {"step": step, "element": g.element_to_json(gamma), "window": window.to_json()}
                )
    return report


DC = DistanceConstrained(Z1, (1, 3), (3, 7))
NU = NotUniversal(Z1, (1, 3), (5, 13))
PC3_F2 = ProperColoring(F2, 3)


def per_window(ideal):
    """The same ideal, forced onto IdealSpec's generic window_judge, which
    builds every window as a pattern and asks contains."""
    clone = copy.copy(ideal)
    clone.__class__ = type(
        "PerWindow" + type(ideal).__name__,
        (type(ideal),),
        {"window_judge": IdealSpec.window_judge},
    )
    return clone


def _three_halves(g):
    """An ideal on g of three colours, each of locality radius 3/2, whose
    members are the proper colourings."""
    proper = ProperColoring(g, 3)

    class ThreeHalves(IdealSpec):
        kind = "ThreeHalves"
        group = g

        def contains(self, phi):
            return proper.contains(phi)

        def locality_radius(self, color):
            return Fraction(3, 2)

        def max_color(self):
            return 2

        def to_json(self):
            return {"kind": self.kind, "group": g.spec_string()}

    return ThreeHalves()


def _hand_trace(ideal, window_radius, margin, assigned_sets):
    config = SimulationConfig(ideal=ideal, window_radius=window_radius, margin=margin, steps=0)
    return SimulationTrace.from_elements(config, assigned_sets)


def forbid_locating(monkeypatch, g, allowed=None):
    """Make ``Region.locate``, and ``g.validate`` on anything but the
    object ``allowed``, raise."""
    def refuse(*args):
        raise AssertionError("a point was located or validated again")

    validate = g.validate
    monkeypatch.setattr(simulate.Region, "locate", refuse)
    monkeypatch.setattr(g, "validate", lambda e: validate(e) if e is allowed else refuse(), raising=False)


# (ideal, window, margin) of the random hand traces
HAND_CASES = [
    (PC3, 10, 3),
    (ProperColoring(Z2, 3), 3, 2),
    (PC3_F2, 2, 1),
    (DC, 12, 4),
    (DistanceConstrained(Z1, (1, 3), (3, INF)), 10, 4),
    (NU, 12, 4),
    (NotUniversal(F2, (1,), (3,)), 2, 2),
]


class TestValidatorAgainstBruteForce:
    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(PC3, 60, 2, 30, Fraction(1, 2), seed)
            for seed in range(3)
        ]
        + [
            SimulationConfig(ProperColoring(Z2, 5), 8, 2, 30, Fraction(1, 8), seed)
            for seed in range(2)
        ]
        + [SimulationConfig(DC, 80, 12, 40, Fraction(1, 8), seed) for seed in range(2)]
        + [SimulationConfig(NU, 40, 26, 40, Fraction(1, 54), seed) for seed in range(2)]
        + [
            (SimulationConfig(PC3, 5, 2, 1, seed=0, warmup=False), {0: [0, 1]}),
            SimulationConfig(PC3, 20, 2, 12, Fraction(1, 2), seed=4, warmup=False),
            SimulationConfig(ProperColoring(Z2, 5), 8, 2, 15, Fraction(1, 4), seed=3, warmup=False),
            SimulationConfig(ProperColoring(F2, 5), 4, 2, 30, Fraction(1, 16), seed=0),
            SimulationConfig(ProperColoring(F2, 5), 4, 2, 12, Fraction(1, 4), seed=0, warmup=False),
            SimulationConfig(ProperColoring(FreeAbelian(3), 7), 4, 2, 21, Fraction(1, 8), seed=0),
            SimulationConfig(ProperColoring(FreeAbelian(3), 7), 3, 2, 14, Fraction(1, 4), seed=1,
                             warmup=False),
            (SimulationConfig(NotUniversal(F2, (1,), (3,)), 2, 6, 4, seed=0),
             {1: [""], 2: ["aa"], 3: ["bb"]}),
            # substituted and drawn supports isolated in one pass
            (SimulationConfig(PC3, 10, 2, 8, Fraction(1, 2), seed=3), {4: [0, 3, -5]}),
        ],
    )
    def test_runs(self, config):
        config, field = substituted(config)
        trace = run(config, field)
        fast = trace_validate(trace, config.ideal)
        slow = brute_force_validate(trace, config.ideal)
        assert fast.windows_checked > 0
        assert fast.to_jsonable() == slow.to_jsonable()
        # batched admission and validation against window-by-window contains
        generic = per_window(config.ideal)
        reference = run(dataclasses.replace(config, ideal=generic), field)
        assert trace.assigned_sets == reference.assigned_sets
        assert trace.fill_fractions == reference.fill_fractions
        assert trace_validate(trace, generic).to_jsonable() == fast.to_jsonable()
        # the run's trace decoded to elements and located again
        hand = SimulationTrace.from_elements(config, trace.assigned_sets)
        assert [c for c, _at in hand.steps] == [c for c, _at in trace.steps]
        assert all(np.array_equal(a, b) for (_c, a), (_d, b) in zip(hand.steps, trace.steps))
        assert trace_validate(hand, config.ideal).to_jsonable() == fast.to_jsonable()

    def test_hand_traces_with_nonlocal_colors_and_failures(self):
        dc_inf = DistanceConstrained(Z1, (1, 3), (3, INF))
        traces = [
            # color 1 has infinite radius: its windows are skipped, not checked
            (dc_inf, _hand_trace(dc_inf, 10, 4, [(0, (0, 4)), (1, (2,)), (0, (1, 8)), (1, (9,))])),
            # same-color neighbours and points near the boundary
            (PC3, _hand_trace(PC3, 6, 1, [(0, (0, 6, 7)), (1, (3,)), (0, (1, -7)), (2, (4, 5))])),
            # on F_2: same-colour neighbours in the tree
            (PC3_F2, _hand_trace(PC3_F2, 3, 2, [(0, ("", "a", "ab")), (1, ("b",)), (0, ("Ab", "aB"))])),
        ]
        for ideal, trace in traces:
            fast = trace_validate(trace, ideal)
            slow = brute_force_validate(trace, ideal)
            assert fast.failures
            assert fast.to_jsonable() == slow.to_jsonable()
            assert trace_validate(trace, per_window(ideal)).to_jsonable() == fast.to_jsonable()
        assert trace_validate(traces[0][1], dc_inf).skipped_nonlocal > 0

    @pytest.mark.parametrize("g, window, margin", [(Z1, 6, 3), (Z2, 3, 3), (F2, 2, 2)])
    @pytest.mark.parametrize("kind", ["three-halves", "infinite-height"])
    def test_judged_points_are_the_mask_reference(self, monkeypatch, g, window, margin, kind):
        """With every region point coloured, over four steps, the points
        whose windows the validator judges are exactly the coloured x of
        finite r_c with |x| + ceil(r_c) <= T, by scalar norms: at r_c = 3/2
        (ceil 2, floor 1) and at the finite colour of a DistanceConstrained
        ideal whose other height is infinite, whose windows are skipped as
        the brute-force validator skips them. One layer more or less on
        either side of T - ceil(r_c) changes the set."""
        if kind == "three-halves":
            ideal, colours = _three_halves(g), [0, 1, 2, 0]
        else:
            ideal, colours = DistanceConstrained(g, (1, 3), (3, INF)), [0, 1, 0, 1]
        T = window + margin
        elements = simulate.Region(g, T).elements
        trace = _hand_trace(ideal, window, margin, [(c, elements[i::4]) for i, c in enumerate(colours)])
        judged = set()
        window_after = simulate._window_after
        monkeypatch.setattr(simulate, "_window_after",
                            lambda region, step_of, colors, j, r, t: judged.add(j) or
                            window_after(region, step_of, colors, j, r, t))
        report = trace_validate(trace, per_window(ideal))
        norms, radius = ball_norms(g, elements), [ideal.locality_radius(c) for c in colours]
        want = {x for x in range(len(elements)) if not isinstance(radius[x % 4], Infinity)
                and norms[x] + radius_ceil(radius[x % 4]) <= T}
        assert judged == want
        for layer in (T - 3, T - 2, T - 1):  # both sides of the boundary are coloured
            assert any(norms[x] == layer for x in want) == (layer <= T - 2)
        slow = brute_force_validate(trace, ideal)
        assert report.to_jsonable() == slow.to_jsonable() == trace_validate(trace, ideal).to_jsonable()
        assert (report.skipped_nonlocal > 0) == (kind == "infinite-height")

    def test_hand_trace_entries_are_validated(self):
        for assigned in ([(0, (0,)), (-1, (5,))], [(0, (0, "x"))], [(True, (0,))]):
            with pytest.raises(ValueError):
                trace_validate(_hand_trace(PC3, 10, 2, assigned), PC3)
        # a colour is checked before its window radius is asked for
        for ideal in (DC, NU):
            for bad in ("x", (1, 2)):
                with pytest.raises(ValueError):
                    trace_validate(_hand_trace(ideal, 10, 12, [(0, (0,)), (bad, (5,))]), ideal)

    def test_hand_trace_point_outside_region_rejected(self):
        for far in (99, 2**63, -(2**64) - 5):  # also past int64
            with pytest.raises(ValueError, match="lies outside the region"):
                trace = _hand_trace(DC, 10, 12, [(0, (0,)), (0, (far,))])
                trace_validate(trace, DC)

    def test_random_hand_traces(self):
        """Random traces, most with failures, some with colours of infinite
        radius or off the palette, equal the brute-force validator and the
        window-by-window one."""
        rng = random.Random(18)
        failing = passing = 0
        for _ in range(400):
            ideal, window, margin = rng.choice(HAND_CASES)
            region = _region_of(ideal.group, window + margin)
            points = rng.sample(region.elements, rng.randint(1, min(len(region.elements), 24)))
            cuts = sorted(rng.choices(range(len(points) + 1), k=rng.randint(0, 6)))
            palette = ideal.palette_size + isinstance(ideal, ProperColoring)
            trace = _hand_trace(ideal, window, margin, [
                (rng.randrange(palette), tuple(points[lo:hi]))
                for lo, hi in zip([0, *cuts], [*cuts, len(points)])
            ])
            fast = trace_validate(trace, ideal)
            assert fast.to_jsonable() == brute_force_validate(trace, ideal).to_jsonable()
            assert trace_validate(trace, per_window(ideal)).to_jsonable() == fast.to_jsonable()
            failing += not fast.ok
            passing += fast.ok and fast.windows_checked > 0
        assert failing >= 100 and passing >= 20

    def test_ideal_on_another_group_refused(self):
        """The windows come from the trace's region, so an ideal on another
        group would be asked about distances it does not measure."""
        trace = run(SimulationConfig(PC3, 20, 2, 12, Fraction(1, 2), seed=0))
        assert any(at.size for _c, at in trace.steps)
        for other in (ProperColoring(Z2, 3), ProperColoring(FreeGroup(1), 3)):
            with pytest.raises(ValueError, match="the ideal is on"):
                trace_validate(trace, other)

    def test_hand_trace_point_coloured_twice_rejected(self):
        """The process never colours a point twice, and the validator reads
        each point's colour as its only one: a recolouring cannot repair a
        failure, however the trace is built."""
        for ideal, assigned in (
            (PC3, [(0, (0,)), (0, (1,)), (1, (1,))]),
            (PC3, [(0, (0, 0))]),
            (PC3_F2, [(0, ("a", "b")), (1, ("Ab",)), (2, ("b",))]),
        ):
            with pytest.raises(ValueError, match="coloured more than once"):
                _hand_trace(ideal, 3, 2, assigned)
        trace = _hand_trace(PC3, 3, 2, [(0, (0,)), (0, (1,))])
        with pytest.raises(ValueError, match="trace point 1 is coloured more than once"):
            dataclasses.replace(trace, steps=[*trace.steps, (1, trace.steps[1][1])])

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(ProperColoring(Z2, 5), 8, 2, 30, Fraction(1, 8), seed=0),
            SimulationConfig(ProperColoring(F2, 5), 4, 2, 12, Fraction(1, 4), seed=0, warmup=False),
        ],
    )
    def test_run_traces_are_read_without_locating(self, monkeypatch, config):
        """A run's trace holds region indices: the validator neither
        validates nor locates its points again."""
        trace = run(config)
        assert any(elems for _c, elems in trace.assigned_sets)
        expected = brute_force_validate(trace, config.ideal).to_jsonable()
        forbid_locating(monkeypatch, config.ideal.group)
        assert trace_validate(trace, config.ideal).to_jsonable() == expected

    def test_reuses_the_region_run_cached(self, monkeypatch):
        """Validation reads the trace's own Region and builds none, also
        after a run on another geometry has taken the region cache."""
        config = SimulationConfig(ProperColoring(Z2, 5), 8, 2, 30, Fraction(1, 8), seed=0)
        trace = run(config)
        run(SimulationConfig(ProperColoring(F2, 5), 2, 2, 4, Fraction(1, 4), seed=0))
        built = count_calls(monkeypatch, simulate.Region, "__init__")
        assert trace_validate(trace, config.ideal).windows_checked > 0
        assert built == []


BLOCK_CONFIGS = [
    SimulationConfig(PC3, 60, 2, 60, Fraction(1, 2), seed=1),
    SimulationConfig(ProperColoring(Z2, 5), 8, 2, 40, Fraction(1, 8), seed=0),
    SimulationConfig(DC, 80, 12, 40, Fraction(1, 8), seed=1),
    SimulationConfig(PC3, 20, 2, 12, Fraction(1, 2), seed=4, warmup=False),
    SimulationConfig(ProperColoring(F2, 5), 3, 2, 12, Fraction(1, 4), seed=0, warmup=False),
    (SimulationConfig(PC3, 10, 2, 8, Fraction(1, 2), seed=3), {4: [0, 3, -5]}),
    SimulationConfig(PC3, 50, 2, 130, Fraction(1, 2), seed=2),  # 129 steps at s = 2: three blocks
]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record its calls; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_judges(monkeypatch, ideal):
    """Wrap ``ideal.window_judge`` to record each judge built (its D, codes
    and whether it reads only the pairs through slot 0) and each call of a
    judge; returns both records."""
    built, judged = [], []
    build = ideal.window_judge

    def counted_build(D, codes, centre_only=False):
        built.append((D, list(codes), centre_only))
        judge = build(D, codes, centre_only)

        def counted_judge(C, window):
            judged.append(C)
            return judge(C, window)

        return counted_judge

    monkeypatch.setattr(ideal, "window_judge", counted_build)
    return built, judged


class TestWholeRunPasses:
    """``run`` draws and isolates supports, and ``trace_validate`` judges
    windows, a block at a time, never a step at a time; and a block of one
    cell changes no trace and no report."""

    @pytest.mark.parametrize("config", BLOCK_CONFIGS)
    def test_calls_per_block_not_per_step(self, monkeypatch, config):
        config, field = substituted(config)
        region = _region_of(config.ideal.group, config.window_radius + config.margin)
        masks = count_calls(monkeypatch, field, "mask")
        isolations = count_calls(monkeypatch, simulate, "_isolated")
        built, judged = count_judges(monkeypatch, config.ideal)
        trace = run(config, field)
        # every region here draws a block of 64 steps in one mask
        assert simulate._PAIR_CELLS // len(region.elements) >= min(config.steps, 64)
        support_s = Counter(radius_floor(2 * R) for R in trace.reaches[:-1]
                            if not config.warmup or R == max(trace.reaches))
        # one kernel call and one mask per isolation radius and block of 64 steps
        word_blocks = sum(-(-k // 64) for k in support_s.values())
        assert len(isolations) == len(masks) == word_blocks
        assert [len(words) for _region, _s, words, _cand, _k in isolations] == [len(region) + 1] * word_blocks
        assert sorted(k for _region, _s, _words, _cand, k in isolations) == \
            sorted(min(64, k - lo) for k in support_s.values() for lo in range(0, k, 64))
        # at most one judge per isolation radius, each on that radius's D,
        # called once per step that has candidates
        widths = {groups.ball_size(region.group, s) for s in support_s}
        assert 0 < len(built) <= len(support_s)
        assert {len(D) for D, _codes, _centre in built} <= widths
        assert len({len(D) for D, _codes, _centre in built}) == len(built)
        # on the pairs through slot 0 under warm-up, where every isolation
        # radius sees every forbidden pair of these kinds
        assert {centre for _D, _codes, centre in built} == {config.warmup}
        assert 0 < len(judged) <= config.steps
        assert sum(len(at) > 0 for _c, at in trace.steps) <= len(judged)
        built.clear()
        judged.clear()
        report = trace_validate(trace, config.ideal)
        radii = {radius_floor(config.ideal.locality_radius(c)) for c, _at in trace.steps}
        w = groups.ball_size(region.group, max(radii))
        coloured = sum(len(at) for _c, at in trace.steps)
        blocks = -(-coloured // max(1, simulate._PAIR_CELLS // w**2))
        # at most one judge per window radius, built only for a radius some
        # coloured centre has
        assert 0 < len(built) <= len(radii)
        assert len({len(D) for D, _codes, _centre in built}) == len(built)
        assert not any(centre for _D, _codes, centre in built)  # every pair of a window
        assert 0 < len(judged) <= len(radii) * blocks < report.windows_checked

    def test_no_judge_without_a_coloured_centre(self, monkeypatch):
        """Steps that colour nothing, or only points whose window leaves the
        region, give the validator no window radius to judge."""
        built, judged = count_judges(monkeypatch, PC3)
        for assigned in ([(0, ()), (1, ())], [(0, (6,)), (1, (-6,))]):
            report = trace_validate(_hand_trace(PC3, 5, 1, assigned), PC3)
            assert report.windows_checked == 0 and built == [] and judged == []

    @pytest.mark.parametrize("config", BLOCK_CONFIGS)
    def test_one_cell_blocks_change_nothing(self, monkeypatch, config):
        config, field = substituted(config)
        trace = run(config, field)
        report = trace_validate(trace, config.ideal).to_jsonable()
        monkeypatch.setattr(simulate, "_PAIR_CELLS", 1)
        capped = run(config, field)
        assert capped.to_summary_jsonable(dump=True) == trace.to_summary_jsonable(dump=True)
        assert trace_validate(capped, config.ideal).to_jsonable() == report
        for ideal, window, margin, assigned in (
            (PC3, 6, 1, [(0, (0, 6, 7)), (1, (3,)), (0, (1, -7)), (2, (4, 5))]),
            (PC3_F2, 3, 2, [(0, ("", "a", "ab")), (1, ("b",)), (0, ("Ab", "aB"))]),
        ):
            hand = _hand_trace(ideal, window, margin, assigned)
            assert not trace_validate(hand, ideal).ok
            assert trace_validate(hand, ideal).to_jsonable() == brute_force_validate(hand, ideal).to_jsonable()


def _reduced(g):
    return ReducedIdeal(ProperColoring(g, 3), SupRadiiJoin(lambda c: 1, description=[1, 1, 1]))


_PAIRS = [(1, 0), (1, 1), (1, 2)]
F1 = FreeGroup(1)
Z3 = FreeAbelian(3)
# (ideal, schedule, largest window): per group a ProperColoring, a
# DistanceConstrained with radii 0 and 2 and a NotUniversal, and on Z^1,
# Z^2 and F_1 a Reduced spec with a pair schedule (window radius 3)
REFERENCE_CASES = [
    (PC3, None, 6), (DistanceConstrained(Z1, (0, 1), (1, 3)), None, 6),
    (NotUniversal(Z1, (0, 1), (1, 3)), None, 6), (_reduced(Z1), _PAIRS, 4),
    (ProperColoring(Z2, 5), None, 4), (DistanceConstrained(Z2, (0, 1), (1, 3)), None, 3),
    (NotUniversal(Z2, (0, 1), (1, 3)), None, 2), (_reduced(Z2), _PAIRS, 1),
    (ProperColoring(Z3, 7), None, 2), (DistanceConstrained(Z3, (0, 1), (1, 3)), None, 2),
    (NotUniversal(Z3, (0,), (1,)), None, 2),
    (ProperColoring(F1, 3), None, 6), (DistanceConstrained(F1, (0, 1), (1, 3)), None, 6),
    (NotUniversal(F1, (0, 1), (1, 3)), None, 6), (_reduced(F1), _PAIRS, 4),
    (ProperColoring(F2, 5), None, 2), (DistanceConstrained(F2, (0, 1), (1, 3)), None, 1),
    (NotUniversal(F2, (0,), (1,)), None, 2),
]


def _reference_config(ideal, schedule, window, extra, steps, p, seed, warmup):
    """p = None stands for 1/|Ball(1, s)| at the largest isolation radius
    s, the density at which an isolated support point is likeliest."""
    radius = max(ideal.locality_radius(c) for c in schedule or range(ideal.max_color() + 1))
    if p is None:
        p = Fraction(1, groups.ball_size(ideal.group, radius_floor(2 * radius)))
    return SimulationConfig(ideal, window, radius_ceil(2 * radius) + extra, steps, p, seed,
                            schedule=schedule, warmup=warmup)


class TestReferenceRun:
    """``run`` against the scalar reference run, which shares none of its
    kernels: same summaries and dumps."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        ideal, schedule, max_window = data.draw(st.sampled_from(REFERENCE_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 8)), data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 8), None])),
            data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        assert run(config).to_summary_jsonable(dump=True) == \
            reference_run(config).to_summary_jsonable(dump=True)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    @pytest.mark.parametrize("warmup", [True, False])
    def test_colours_points(self, case, warmup):
        """Every case at its largest window, over a few seeds, some of
        which colour points, so the comparison is not vacuous."""
        ideal, schedule, window = case
        coloured = 0
        for seed in range(4):
            config = _reference_config(ideal, schedule, window, 0, 10, None, seed, warmup)
            summary = run(config).to_summary_jsonable(dump=True)
            assert summary == reference_run(config).to_summary_jsonable(dump=True)
            coloured += sum(summary["assigned_counts"])
        assert coloured > 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_substituted_fields(self, data):
        """Both runs read one substituted field, ``run`` through its masks
        and the reference through its values, at up to three listed steps
        whose supports are drawn from the region's points."""
        ideal, schedule, max_window = data.draw(st.sampled_from(REFERENCE_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(1, 8)), data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 8), None])),
            data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        elements = _region_of(ideal.group, config.window_radius + config.margin).elements
        listed = data.draw(st.dictionaries(st.integers(0, config.steps - 1),
                                           st.lists(st.sampled_from(elements), max_size=8), max_size=3))
        field = Substituted(config, listed)
        assert run(config, field).to_summary_jsonable(dump=True) == \
            reference_run(config, field).to_summary_jsonable(dump=True)

    @pytest.mark.parametrize("ideal", [ideal for ideal, _s, _w in REFERENCE_CASES
                                       if isinstance(ideal, ProperColoring)], ids=lambda i: i.group.spec_string())
    def test_substituted_fields_colour_listed_points(self, ideal):
        """Without warm-up, a step whose substituted support is the
        identity alone colours it, in both runs, on Z^1-Z^3 and F_1-F_2."""
        g = ideal.group
        config = _reference_config(ideal, None, 1, 0, 2, None, 0, False)
        field = Substituted(config, {0: [g.identity()]})
        summary = run(config, field).to_summary_jsonable(dump=True)
        assert summary == reference_run(config, field).to_summary_jsonable(dump=True)
        assert summary["assigned_sets"][0] == {"color": 0, "elements": [g.element_to_json(g.identity())]}


# step counts that reach every word width and more than one block of 64
BLOCK_LENGTHS = [1, 7, 8, 9, 63, 64, 65, 130]
# (group, region radius, a translation) for the step words
WORD_CASES = [
    (Z1, 12, 5), (Z2, 4, (1, -2)), (Z3, 2, (0, 1, 0)),
    (F1, 12, "A"), (F2, 3, "ab"), (FreeGroup(3), 2, "cA"),
]


class TestStepWords:
    """Supports are isolated in step words, a block of up to 64 steps per
    pass over the table: each step's isolated supports are what the row
    rule keeps of its field mask, and whole runs equal the scalar reference
    run, at every word width and across blocks."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_isolated_supports_match_row_rule(self, data):
        """Radii drawn per step: warm-up (None), several radii, and s past
        the region's radius; densities 1/8, 1/2 and 7/8; the region's codes
        or a translate's (the equivariance rerun); the field's supports or
        substituted ones; and masks drawn a chunk of any size at a time."""
        g, T, gamma = data.draw(st.sampled_from(WORD_CASES))
        k = data.draw(st.sampled_from(BLOCK_LENGTHS))
        radius = st.one_of(st.none(), st.integers(0, T + 2))
        radii = data.draw(st.one_of(st.lists(radius, min_size=k, max_size=k),
                                    radius.map(lambda s: [s] * k)))
        p = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)]))
        config = SimulationConfig(ProperColoring(g, 3), T, 0, k, p, seed=data.draw(st.integers(0, 2**64)))
        region = _region_of(g, T)
        codes = region.right_translate(gamma)[1] if data.draw(st.booleans()) else region.codes
        elements = region.elements
        listed = data.draw(st.dictionaries(st.integers(0, k - 1), st.lists(st.sampled_from(elements)), max_size=3))
        field = Substituted(config, listed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_PAIR_CELLS", data.draw(st.sampled_from([1, 3 * len(region), 1 << 14])))
            got = simulate._isolated_supports(region, field, codes, radii)
            assert len(got) == k
            for i, (s, mine) in enumerate(zip(radii, got)):
                if s is None:
                    assert mine.tolist() == []
                    continue
                mask = field.mask([i], codes)[0]
                cand = np.flatnonzero(mask & (ball_norms(region.group, region.elements) + s <= T))
                assert mine.tolist() == row_rule_isolated(reference_table(region, s).T, mask, cand)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_runs_match_reference(self, data):
        ideal, schedule, max_window = data.draw(st.sampled_from(REFERENCE_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.sampled_from(BLOCK_LENGTHS)),
            data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)])),
            data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        assert run(config).to_summary_jsonable(dump=True) == \
            reference_run(config).to_summary_jsonable(dump=True)


# the reference cases, and F_3
STEP_OF_CASES = [*REFERENCE_CASES, (ProperColoring(FreeGroup(3), 7), None, 1)]


def scattered_steps(trace):
    """Each point's 1-based step, and past the last step for an uncoloured
    point and at the sentinel index, by a loop over the steps."""
    step_of = [len(trace.steps) + 1] * (len(trace.region) + 1)
    for i, (_c, at) in enumerate(trace.steps, 1):
        for j in at.tolist():
            step_of[j] = i
    return step_of


class TestStepOf:
    """``SimulationTrace.step_of`` is the scatter of its steps, however the
    trace was built, and is built again with them."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scatter_of_steps(self, data):
        ideal, schedule, max_window = data.draw(st.sampled_from(STEP_OF_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 8)), None, data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        trace = run(config)
        for built in (trace, SimulationTrace.from_elements(config, trace.assigned_sets), reference_run(config)):
            assert built.step_of.tolist() == scattered_steps(built)
            for steps in (built.steps[::-1], built.steps[1:], [*built.steps, (0, np.zeros(0, np.int64))]):
                replaced = dataclasses.replace(built, steps=steps)
                assert replaced.step_of.tolist() == scattered_steps(replaced)
            assert built.step_of.tolist() == scattered_steps(built)

    def test_groups_and_points_covered(self):
        """The drawn cases span Z^1-Z^3 and F_1-F_3, and some colour points."""
        groups_seen = {ideal.group.spec_string() for ideal, _s, _w in STEP_OF_CASES}
        assert groups_seen == {"Z^1", "Z^2", "Z^3", "F_1", "F_2", "F_3"}
        ideal, schedule, window = STEP_OF_CASES[-1]
        trace = run(_reference_config(ideal, schedule, window, 0, 8, None, 0, True))
        coloured = sum(len(at) for _c, at in trace.steps)
        assert (trace.step_of <= len(trace.steps)).sum() == coloured > 0

    def test_point_coloured_twice_refused_as_before(self):
        trace = _hand_trace(PC3_F2, 3, 2, [(0, ("a", "b")), (1, ("Ab",))])
        with pytest.raises(ValueError, match=r"^trace point 'b' is coloured more than once$"):
            dataclasses.replace(trace, steps=[*trace.steps, (2, trace.steps[0][1][1:])])
        assert trace.step_of.tolist() == scattered_steps(trace)


def every_pair(ideal):
    """The same ideal, vouching for no pair (``pair_reach`` INF), so that a
    run judges every pair of each window."""
    clone = copy.copy(ideal)
    clone.__class__ = type("EveryPair" + type(ideal).__name__, (type(ideal),),
                           {"pair_reach": lambda self, codes: INF})
    return clone


class TestCentreJudge:
    """``run`` judges each window on its pairs through slot 0 exactly where
    every step with candidates has an isolation radius at least the largest
    distance at which two of the run's colours are forbidden: PC, DC and NU
    under warm-up. Without warm-up its first steps see less far, and a
    Reduced spec has no bands, so those runs judge every pair. Either way a
    run's steps are those of the run that judges every pair, and of the
    reference run, on Z^1-Z^3 and F_1-F_3."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_steps_equal_every_pair_run(self, data):
        ideal, schedule, max_window = data.draw(st.sampled_from(STEP_OF_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 12)), data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 8), None])),
            data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        trace = run(config)
        every = run(dataclasses.replace(config, ideal=every_pair(ideal)))
        assert [(c, at.tolist()) for c, at in trace.steps] == [(c, at.tolist()) for c, at in every.steps]
        assert trace.to_summary_jsonable(dump=True) == reference_run(config).to_summary_jsonable(dump=True)

    @pytest.mark.parametrize("case", STEP_OF_CASES)
    @pytest.mark.parametrize("warmup", [True, False])
    def test_centre_only_where_every_radius_sees_every_pair(self, monkeypatch, case, warmup):
        """Over a few seeds at the largest window: on the pairs through
        slot 0 always under warm-up on the pairwise kinds, on every pair
        in some run without it (where a first step at s = 0 has
        candidates), and always on the Reduced spec. The farthest forbidden
        pair of PC, DC and NU is at the largest locality radius."""
        ideal, schedule, window = case
        isolated = []
        supports = simulate._isolated_supports
        monkeypatch.setattr(simulate, "_isolated_supports",
                            lambda *args: isolated.append(supports(*args)) or isolated[-1])
        built, _judged = count_judges(monkeypatch, ideal)
        modes = set()
        for seed in range(4):
            config = _reference_config(ideal, schedule, window, 0, 10, None, seed, warmup)
            isolated.clear()
            built.clear()
            trace = run(config)
            reach = INF if isinstance(ideal, ReducedIdeal) else max(map(ideal.locality_radius, config.cycle()))
            active = [radius_floor(2 * R) for R, cand in zip(trace.reaches, isolated[0]) if len(cand)]
            centre = {centre for _D, _codes, centre in built}
            assert centre == ({all(s >= reach for s in active)} if active else set())
            modes |= centre
            every = run(dataclasses.replace(config, ideal=every_pair(ideal)))
            assert trace.to_summary_jsonable(dump=True) == every.to_summary_jsonable(dump=True)
        if warmup and not isinstance(ideal, ReducedIdeal):
            assert modes == {True}
        else:
            assert False in modes


class TestEquivariance:
    def test_z1(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=16, margin=2, steps=6, p=Fraction(1, 2), seed=11
        )
        for gamma in (1, 2, 5):
            report = equivariance_check(cfg, gamma)
            assert report.safe_size > 0
            assert report.ok, report.to_jsonable()

    def test_f2(self):
        pc5 = ProperColoring(F2, 5)
        cfg = SimulationConfig(
            ideal=pc5, window_radius=6, margin=2, steps=4, p=Fraction(1, 2), seed=11
        )
        report = equivariance_check(cfg, "ab")
        assert report.safe_size > 0
        assert report.ok

    @pytest.mark.parametrize(
        "ideal, window, margin, steps, p, gammas, schedule",
        [
            (PC3, 16, 2, 4, Fraction(1, 4), [0, 1, -2, 5], None),
            (ProperColoring(Z2, 5), 8, 2, 3, Fraction(1, 8), [(0, 0), (1, 0), (-1, 2)], None),
            (ProperColoring(FreeAbelian(3), 7), 5, 2, 3, Fraction(1, 8), [(0, 0, -1), (1, 1, 0)], None),
            (ProperColoring(FreeAbelian(4), 9), 4, 2, 3, Fraction(1, 8), [(0, 1, 0, 0)], None),
            (DistanceConstrained(Z1, (1, 3), (3, 7)), 80, 12, 6, Fraction(1, 25), [1, -4], None),
            (NotUniversal(Z1, (1, 3), (3, 7)), 80, 14, 6, Fraction(1, 25), [2], None),
            (ReducedIdeal(PC3, SupRadiiJoin(lambda c: 1, description=[1, 1, 1])), 30, 6, 3,
             Fraction(1, 8), [2, -1], [(1, 0), (1, 1), (1, 2)]),
            (ProperColoring(FreeGroup(1), 3), 9, 2, 4, Fraction(1, 4), ["a", "AA"], None),
            (ProperColoring(F2, 5), 5, 2, 3, Fraction(1, 16), ["", "a", "ab", "Ba", "aBAb"], None),
            (ProperColoring(FreeGroup(3), 7), 4, 2, 3, Fraction(1, 16), ["c", "Ab"], None),
        ],
    )
    def test_reports_equal_per_point_reference(self, ideal, window, margin, steps, p, gammas,
                                               schedule):
        """Whole reports against the per-point check, on every kind, pair
        colours included, and on Z^1-Z^4 and F_1-F_3."""
        for seed in (0, 5):
            cfg = SimulationConfig(ideal=ideal, window_radius=window, margin=margin,
                                   steps=steps, p=p, seed=seed, schedule=schedule)
            for gamma in gammas:
                report = equivariance_check(cfg, gamma)
                assert report.safe_size > 0
                assert report.to_jsonable() == reference_equivariance_check(cfg, gamma).to_jsonable()

    @pytest.mark.parametrize(
        "ideal, window, steps, p, seed, gamma, other",
        [
            (PC3, 40, 8, Fraction(1, 4), 3, 1, 7),
            (ProperColoring(Z2, 5), 14, 6, Fraction(1, 8), 3, (1, 0), (0, 3)),
            (ProperColoring(F2, 5), 6, 3, Fraction(1, 16), 0, "a", "bA"),
        ],
    )
    def test_mismatch_records_equal_per_point_reference(self, monkeypatch, ideal, window, steps, p,
                                                        seed, gamma, other):
        """A kernel that returns the codes of another shift: the moved run
        reads the wrong field, so the records (in region order, None for an
        uncoloured point) must be those of the reference fed the same codes."""
        translate = simulate.Region.right_translate

        def skewed(region, shift_by):
            return translate(region, shift_by)[0], translate(region, other)[1]

        cfg = SimulationConfig(ideal=ideal, window_radius=window, margin=2, steps=steps, p=p,
                               seed=seed)
        expected = reference_equivariance_check(cfg, gamma, field_gamma=other)
        monkeypatch.setattr(simulate.Region, "right_translate", skewed)
        report = equivariance_check(cfg, gamma)
        assert report.to_jsonable() == expected.to_jsonable()
        pairs = [(m["shifted_run"], m["base_run_at_shifted_point"]) for m in report.mismatches]
        assert any(None in pair for pair in pairs)
        if ideal.group is not F2:  # F_2's fill is too thin for two coloured points to differ
            assert any(None not in pair for pair in pairs)

    @pytest.mark.parametrize(
        "ideal, window, steps, p, gamma",
        [
            (ProperColoring(Z2, 5), 8, 3, Fraction(1, 8), (1, -2)),
            (ProperColoring(F2, 5), 5, 3, Fraction(1, 16), "aB"),
        ],
    )
    def test_runs_are_compared_without_locating(self, monkeypatch, ideal, window, steps, p, gamma):
        """Both runs' final colours are scattered from their index traces:
        no point is located, and only the shift element is validated."""
        cfg = SimulationConfig(ideal=ideal, window_radius=window, margin=2, steps=steps, p=p, seed=0)
        assert any(elems for _c, elems in run(cfg).assigned_sets)
        expected = reference_equivariance_check(cfg, gamma).to_jsonable()
        forbid_locating(monkeypatch, ideal.group, allowed=gamma)
        report = equivariance_check(cfg, gamma)
        assert report.safe_size > 0 and report.to_jsonable() == expected

    def test_substituted_field_is_equivariant(self):
        """A substituted support is a set of elements, read by their codes,
        so the moved run reads it translated: the runs agree, equal the
        per-point check on the same field, and the listed points are
        coloured."""
        cfg = SimulationConfig(ideal=PC3, window_radius=16, margin=2, steps=3, seed=11)
        field = Substituted(cfg, {1: [0, 5, -6]})
        assert run(cfg, field).assigned_sets[1] == (1, (0, 5, -6))  # region order
        for gamma in (1, -3):
            report = equivariance_check(cfg, gamma, field)
            assert report.safe_size > 0 and report.ok, report.to_jsonable()
            assert report.to_jsonable() == reference_equivariance_check(cfg, gamma, field=field).to_jsonable()


class TestReportBytes:
    """The encodings of an equivariance report and of a run's config, byte
    for byte."""

    @pytest.mark.parametrize("g, window, radius, steps, gamma, cone, safe, shift", [
        (Z1, 20, Fraction(3, 2), 3, 3, "6", 32, "3"),
        (F2, 5, Fraction(3, 2), 3, "aB", "6", 5, '"aB"'),
        (Z1, 20, Fraction(5, 4), 4, -2, "15/2", 29, "-2"),
    ])
    def test_equivariance_report_bytes(self, g, window, radius, steps, gamma, cone, safe, shift):
        """``_three_halves`` at locality radius 3/2 and 5/4: a whole cone
        reads as an integer, a proper one as p/q."""
        class AtRadius(type(_three_halves(g))):
            def locality_radius(self, color):
                return radius

        cfg = SimulationConfig(ideal=AtRadius(), window_radius=window, margin=3, steps=steps, seed=1)
        expected = (f'{{\n  "cone_radius": "{cone}",\n  "mismatches": [],\n  "ok": true,\n'
                    f'  "safe_size": {safe},\n  "shift": {shift}\n}}\n')
        assert canonical_json_bytes(equivariance_check(cfg, gamma)) == expected.encode()

    def test_summary_bytes_do_not_depend_on_how_p_is_given(self):
        summaries = set()
        for p in (Fraction(1, 8), "1/8", 0.125):
            cfg = SimulationConfig(ideal=ProperColoring(Z2, 5), window_radius=6, margin=2, steps=4, p=p,
                                   seed=3)
            summaries.add(canonical_json_bytes(run(cfg).to_summary_jsonable(dump=True)))
        assert len(summaries) == 1
        assert json.loads(summaries.pop())["config"]["p"] == "1/8"


class TestDecodeWhereNamed:
    """A region's elements are decoded only where a report names points. A
    simulate without --dump, whose validation passes, and an equivariance
    check without mismatches decode no ball on Z^2 and F_2; a dump, a
    validation failure and a mismatch decode the region once and name its
    points as the breadth-first ball lists them."""

    # (group, window, steps, p, seed, shift, the shift a skewed kernel reads)
    CASES = [("Z^2", 14, 6, Fraction(1, 8), 3, (1, 0), (0, 3)), ("F_2", 6, 3, Fraction(1, 16), 0, "a", "bA")]

    @staticmethod
    def fresh_caches():
        _region_of.cache_clear()
        groups.identity_ball.cache_clear()

    @pytest.mark.parametrize("spec, window, steps, p, seed, gamma, _other", CASES)
    def test_report_path_decodes_nothing(self, tmp_path, monkeypatch, spec, window, steps, p, seed, gamma,
                                         _other):
        def refuse(group, packed):
            raise AssertionError("a report decoded a ball it does not name")

        for family in (FreeAbelian, FreeGroup):
            monkeypatch.setattr(family, "decode_ball", refuse)
        self.fresh_caches()
        path = tmp_path / "pc5.json"
        path.write_text(json.dumps({"kind": "ProperColoring", "group": spec, "k": 5}))
        out = tmp_path / "out.json"
        argv = ["simulate", str(path), "--window", str(window), "--margin", "2", "--steps", str(steps),
                "--p", str(p), "--seed", str(seed), "--out", str(out)]
        try:
            assert cli.main(argv) == 0
            payload = json.loads(out.read_text())["payload"]
            assert sum(payload["trace"]["assigned_counts"]) > 0
            assert payload["validation"]["windows_checked"] > 0
            ideal = ProperColoring(groups.parse_group(spec), 5)
            cfg = SimulationConfig(ideal=ideal, window_radius=window, margin=2, steps=steps, p=p, seed=seed)
            report = equivariance_check(cfg, gamma)
            assert report.ok and report.safe_size > 0
        finally:
            self.fresh_caches()

    @pytest.mark.parametrize("spec, window, steps, p, seed, gamma, other", CASES)
    def test_named_points_decode_the_region_once(self, monkeypatch, spec, window, steps, p, seed, gamma,
                                                 other):
        g = groups.parse_group(spec)
        ball = bfs_ball(g, g.identity(), window + 2)
        ideal = ProperColoring(g, 5)
        cfg = SimulationConfig(ideal=ideal, window_radius=window, margin=2, steps=steps, p=p, seed=seed)
        self.fresh_caches()
        decoded = {}
        for family in (FreeAbelian, FreeGroup):
            decoded[family] = count_calls(monkeypatch, family, "decode_ball")
        try:
            trace = run(cfg)
            dump = trace.to_summary_jsonable(dump=True)["assigned_sets"]
            assert dump == [{"color": c, "elements": [g.element_to_json(ball[j]) for j in at.tolist()]}
                            for c, at in trace.steps]
            # two neighbours in one colour: each one's window fails
            a, b = g.identity(), g.generators()[0]
            hand = SimulationTrace.from_elements(cfg, [(0, [a, b])])
            failures = trace_validate(hand, ideal).failures
            assert [f["element"] for f in failures] == [g.element_to_json(a), g.element_to_json(b)]
            translate = simulate.Region.right_translate
            monkeypatch.setattr(simulate.Region, "right_translate",
                                lambda region, by: (translate(region, by)[0], translate(region, other)[1]))
            mismatches = equivariance_check(cfg, gamma).mismatches
            assert mismatches
            assert all(g.element_from_json(m["element"]) in ball for m in mismatches)
            assert len(decoded[type(g)]) == 1  # the region's elements, decoded once
        finally:
            self.fresh_caches()


def reference_equivariance_check(config, gamma, field_gamma=None, field=None):
    """The per-point equivariance check: one g.mul per region point for the
    targets, coded again by element_codes, and one index dict lookup and
    one comparison per safe point. Both runs read ``field`` (``run``'s
    default by default), the moved run at x*field_gamma (gamma by
    default)."""
    config.validate()
    g = config.ideal.group
    T = config.window_radius + config.margin
    region = _region_of(g, T)
    base = run(config, field)
    targets = [g.mul(e, gamma) for e in region.elements]
    read_at = targets if field_gamma is None else [g.mul(e, field_gamma) for e in region.elements]
    moved = run(config, field, element_codes(g, read_at))
    cone = 0
    for R_i in base.reaches[:-1]:
        cone = cone + 2 * R_i
    safe = ball_norms(g, region.elements) + radius_ceil(cone) <= T
    index = index_dict(region)
    base_final, moved_final = base.final_coloring, moved.final_coloring
    report = EquivarianceReport(shift=g.element_to_json(gamma), safe_size=0, cone_radius=str(cone))
    for i in np.nonzero(safe)[0]:
        j = index.get(targets[i])
        if j is None or not safe[j]:
            continue
        e = region.elements[i]
        report.safe_size += 1
        a, b = moved_final.get(e), base_final.get(targets[i])
        if a != b:
            report.mismatches.append(
                {"element": g.element_to_json(e), "shifted_run": a, "base_run_at_shifted_point": b}
            )
    return report


# (group, largest radius) for the greedy against the all-pairs reference
GREEDY_CASES = [(Z1, 12), (Z2, 5), (FreeAbelian(3), 3), (FreeGroup(1), 12), (F2, 3), (FreeGroup(3), 2)]


def all_pairs_greedy(region, d_c):
    """The quadratic greedy colouring: each point, in region order, takes
    the least colour of no earlier point within d_c by g.dist."""
    g, points = region.group, region.elements
    eta = []
    for i, x in enumerate(points):
        used = {eta[j] for j in range(i) if g.dist(points[j], x) <= d_c}
        c = 0
        while c in used:
            c += 1
        eta.append(c)
    return eta


def per_row_greedy(region, d_c):
    """The greedy colouring one row of distances at a time, as the sparse
    run computed it before blocked packed distances (its rows then came
    from per-region closures, here from g.dist): each point takes the least
    colour that no earlier point within d_c has."""
    g, ball = region.group, region.elements
    colors = np.zeros(len(ball), dtype=np.int64)
    for i in range(1, len(ball)):
        near = colors[:i][np.array([g.dist(x, ball[i]) for x in ball[:i]]) <= d_c]
        taken = np.zeros(len(near) + 1, dtype=bool)  # the least free colour is <= len(near)
        taken[near[near <= len(near)]] = True
        colors[i] = taken.argmin()
    return colors.tolist()


class TestSparse:
    @pytest.mark.parametrize("g, radius", [(Z1, 30), (Z2, 6), (F2, 4), (FreeGroup(3), 3)])
    def test_greedy_matches_all_pairs(self, g, radius):
        region = simulate.Region(g, radius)
        for d_c in range(2 * radius + 2):
            assert _greedy_distance_coloring(region, d_c) == all_pairs_greedy(region, d_c)

    @pytest.mark.parametrize(
        "g, radius, cells",
        [(Z1, 20, None), (Z1, 20, 5), (Z2, 5, None), (Z2, 5, 64), (FreeAbelian(3), 3, None),
         (FreeGroup(1), 12, None), (FreeGroup(1), 44, None),  # F_1 words past 40 letters
         (FreeGroup(1), 44, 200), (F2, 3, None), (F2, 3, 100), (FreeGroup(3), 2, None)],
    )
    def test_greedy_matches_per_row_reference(self, monkeypatch, g, radius, cells):
        """Blocked table rows or packed distances (one row per block where
        cells is smaller than a row) against the per-row loop; F_1 at 44
        letters reads the table below d_c = 44."""
        if cells is not None:
            monkeypatch.setattr(simulate, "_PAIR_CELLS", cells)
            monkeypatch.setattr(groups, "_PAIR_CELLS", cells)
        region = simulate.Region(g, radius)
        assert (region.packed.dtype == object) == (radius > g.pack_limit)
        for d_c in {*range(0, 2 * radius, 1 + radius // 8), 2 * radius - 1, 2 * radius}:
            assert _greedy_distance_coloring(region, d_c) == per_row_greedy(region, d_c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_greedy_matches_all_pairs_on_every_source(self, data):
        """Every d_c in [0, 2T]: table rows where Ball(1, d_c) is smaller
        than the region, pair blocks where it is not, and the complete-graph
        shortcut from 2T on."""
        g, max_T = data.draw(st.sampled_from(GREEDY_CASES))
        region = simulate.Region(g, data.draw(st.integers(0, max_T)))
        for d_c in range(2 * region.radius + 1):
            assert _greedy_distance_coloring(region, d_c) == all_pairs_greedy(region, d_c)

    def test_table_rows_replace_pair_distances(self, monkeypatch):
        """A tabled scale reads its rows from composed windows and measures
        no distance_block; at F_2 r5, d_c = 7 (|Ball(1, 7)| = 4,373 > 485
        points) the greedy measures pairs and composes no window."""
        calls = []
        block = simulate.distance_block

        def spy(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(simulate, "distance_block", spy)
        for g, T, d_c in [(Z1, 400, 15), (Z2, 20, 7), (F2, 5, 3), (FreeGroup(1), 44, 30)]:
            region = simulate.Region(g, T)
            assert _greedy_distance_coloring(region, d_c) == per_row_greedy(region, d_c)
            assert not calls
        region = simulate.Region(F2, 5)
        composed = count_calls(monkeypatch, region, "columns")
        assert _greedy_distance_coloring(region, 7) == per_row_greedy(region, 7)
        assert calls and all(args[1] is region.packed for args in calls)
        assert composed == []

    def test_greedy_composes_a_chunk_at_a_time(self, monkeypatch):
        """The greedy composes the windows of a chunk of whole blocks, at
        least _CHUNK points, at a time, and gives the colouring it gives
        from one chunk of every point, the whole table (the rows themselves
        are checked against the reference table in ``TestTableConsumers``).
        Its windows, read a block at a time, hold at most two chunks at once
        (the one read and the next composed): under half of that table's
        bytes, the index dtype's itemsize a cell."""
        g, T, d_c = Z1, 3000, 120
        region = simulate.Region(g, T)
        with monkeypatch.context() as whole:
            whole.setattr(simulate, "_CHUNK", len(region))
            expected = _greedy_distance_coloring(region, d_c)
        table_bytes = region._step.itemsize * len(region) * groups.ball_size(g, d_c)
        composed = count_calls(monkeypatch, region, "columns")
        assert _greedy_distance_coloring(region, d_c) == expected
        rows = simulate._PAIR_CELLS // groups.ball_size(g, d_c)
        chunk = -(-simulate._CHUNK // rows) * rows
        assert [len(points) for _s, points in composed] == [chunk] * (len(region) // chunk) + [len(region) % chunk]
        tracemalloc.start()
        try:
            for _block, windows in simulate._window_blocks(region, d_c, np.arange(len(region)), rows):
                windows.T < 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * region._step.itemsize * chunk * groups.ball_size(g, d_c) + (64 << 10) < table_bytes / 2

    def test_f2_w8_scale_7_reads_the_table_in_8_gib(self, monkeypatch):
        """The d_c = 7 greedy of the F_2 window 8 (13,121 points, |Ball(1,
        7)| = 4,373) reads composed windows, decided from closed forms with
        nothing allocated, whatever the memory; each chunk it composes holds
        about _CHUNK x 4,373 cells of uint16, under 9 MB, where the whole
        table held 13,121 x 4,373."""
        monkeypatch.setattr(groups, "physical_memory", lambda: 8 << 30)
        region = simulate.Region(F2, 8)
        assert len(region) == 13_121 and groups.ball_size(F2, 7) == 4_373
        assert simulate._tabled(region, 7)
        rows = simulate._PAIR_CELLS // 4_373
        chunk = -(-simulate._CHUNK // rows) * rows
        monkeypatch.setattr(groups, "physical_memory", lambda: 2 * chunk * 4_373)
        windows = next(simulate._window_blocks(region, 7, np.arange(len(region)), rows))[1]
        assert windows.shape == (4_373, rows) and windows.base.shape == (4_373, chunk)
        assert windows.base.nbytes < 9 << 20

    def test_greedy_frozen_table(self):
        # window visited 0, -1, 1, -2, 2, ...: alternating 0/1 at scale 1
        window = _region_of(Z1, 5)
        eta = _greedy_distance_coloring(window, 1)
        assert dict(zip(window.elements, eta)) == {
            0: 0, -1: 1, 1: 1, -2: 0, 2: 0, -3: 1, 3: 1, -4: 0, 4: 0, -5: 1, 5: 1
        }

    def test_complete_graph_shortcut(self):
        window = _region_of(Z1, 3)
        eta = _greedy_distance_coloring(window, 6)
        assert eta == list(range(len(window.elements)))

    def test_separation_hard_invariant(self):
        d = (1, 3, 7, 15)
        for seed in range(5):
            coloring, report = sparse_run(Z1, d, 30, 4, seed=seed)
            assert report.ok
            by_color = {}
            for e, c in coloring.entries.items():
                by_color.setdefault(c, []).append(e)
            for c, pts in by_color.items():
                for i, x in enumerate(pts):
                    for y in pts[i + 1 :]:
                        assert Z1.dist(x, y) > d[c]

    def test_coverage_reported(self):
        _, report = sparse_run(Z1, (1, 3, 7, 15), 30, 4, seed=0)
        assert 0.0 <= report.coverage <= 1.0
        assert report.window_size == 61

    def test_m_validated(self):
        with pytest.raises(ValueError):
            sparse_run(Z1, (1, 3), 10, 3, seed=0)

    @pytest.mark.parametrize("d", [(-1, 3), (1, -3), (3, 1), (3, 3)])
    def test_scales_validated(self, d):
        # negative or non-increasing scales used to colour every point 0 and report ok
        with pytest.raises(ValueError, match="d entries must be nonnegative|strictly increasing"):
            sparse_run(Z1, d, 5, 2, seed=0)

    @pytest.mark.parametrize(
        "g, radius, cells",
        [(Z1, 30, None), (Z1, 30, 7), (Z2, 4, 50), (F2, 3, None), (F2, 3, 100),
         (FreeGroup(1), 45, None)],  # F_1 words past 40 letters: pair by pair
    )
    def test_separation_violations_equal_per_pair_loop(self, monkeypatch, g, radius, cells):
        monkeypatch.setattr(simulate, "_greedy_distance_coloring",
                            lambda region, d_c: [0] * len(region.elements))
        if cells is not None:
            monkeypatch.setattr(simulate, "_PAIR_CELLS", cells)
        d = (1, 3)
        coloring, report = sparse_run(g, d, radius, 2, seed=0)
        points = list(coloring.domain())
        assert len(points) == len(_region_of(g, radius).elements)  # all colour 0
        expected = [
            {"color": 0, "a": g.element_to_json(x), "b": g.element_to_json(y), "dist": g.dist(x, y)}
            for i, x in enumerate(points) for y in points[i + 1 :] if g.dist(x, y) <= d[0]
        ]
        assert expected and report.separation_violations == expected

    def test_negative_window_refused(self):
        with pytest.raises(ValueError, match="window radius must be nonnegative, got -1"):
            sparse_run(Z1, (1, 3), -1, 0, seed=0)

    def test_deterministic(self):
        a, _ = sparse_run(Z1, (1, 3, 7), 20, 3, seed=4)
        b, _ = sparse_run(Z1, (1, 3, 7), 20, 3, seed=4)
        assert a == b


# (group, region radius) on Z^1-Z^3 and F_1-F_3 for the table's consumers
LAYOUT_CASES = [(Z1, 8), (Z2, 4), (FreeAbelian(3), 2), (FreeGroup(1), 8), (F2, 3), (FreeGroup(3), 2)]

# a run on each of those groups, with warm-up off so that reach-0 steps
# colour neighbours alike and the validator records failures
LAYOUT_CONFIGS = [
    SimulationConfig(PC3, 10, 2, 12, Fraction(1, 2), seed=4, warmup=False),
    SimulationConfig(ProperColoring(Z2, 5), 4, 2, 12, Fraction(1, 8), seed=0, warmup=False),
    SimulationConfig(ProperColoring(FreeAbelian(3), 7), 2, 2, 10, Fraction(1, 8), seed=1, warmup=False),
    SimulationConfig(ProperColoring(FreeGroup(1), 3), 10, 2, 12, Fraction(1, 2), seed=2, warmup=False),
    SimulationConfig(ProperColoring(F2, 5), 2, 2, 10, Fraction(1, 4), seed=0, warmup=False),
    SimulationConfig(ProperColoring(FreeGroup(3), 7), 1, 2, 10, Fraction(1, 8), seed=3, warmup=False),
]


def row_major_greedy(table):
    """The greedy colouring read from the rows of a row-major table: each
    point takes the least colour of no entry of its row below it."""
    eta = []
    for i, row in enumerate(table.tolist()):
        taken = {eta[j] for j in row if j < i}
        eta.append(min(set(range(len(taken) + 1)) - taken))
    return eta


class TestTableConsumers:
    """Each reader of composed windows gives the result read from the
    row-major int64 reference ``column_table``, on Z^1-Z^3 and F_1-F_3:
    ``_isolated`` and the greedy also at an s wider than the region, run's
    gather on every step it judges, and the validator on every window it
    judges and in the windows of its failures (``_window_after``). None of
    them keeps a table: a run and its validation on a cached region
    allocate less than the table of the run's isolation radius."""

    @pytest.mark.parametrize("steps", [8, 16])
    def test_run_and_validation_peak_below_the_table(self, steps):
        """PC5 on F_2 at window 6 and margin 2 (13,121 points) isolates at
        radius 2, whose table, 17 x 13,121 uint16 cells, the region once
        kept. A run of 8 or 16 steps at p = 1/17 that colours points, and
        its validation, peak below those bytes (tracemalloc), on the region
        cached by an earlier run."""
        config = SimulationConfig(ideal=ProperColoring(F2, 5), window_radius=6, margin=2, steps=steps,
                                  p=Fraction(1, 17), seed=0)
        region = run(config).region
        table_bytes = len(region) * groups.ball_size(F2, 2) * region._step.itemsize
        assert table_bytes == reference_table(region, 2).nbytes == 446_114
        tracemalloc.start()
        try:
            trace = run(config)
            report = trace_validate(trace, config.ideal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.region is region and report.ok and report.windows_checked > 0
        assert peak < table_bytes

    @pytest.mark.parametrize("g, T", LAYOUT_CASES)
    def test_isolated(self, g, T):
        region = simulate.Region(g, T)
        masks = bernoulli_mask(5, range(3), region.codes, Fraction(1, 8))
        cand = np.arange(len(region))
        for s in (0, 1, 2, T + 1):
            got = simulate._isolated(region, s, fold_words(masks, np.uint8), cand, 3)
            assert_steps_match_row_rule(column_table(region, s), masks, cand, got)

    @pytest.mark.parametrize("g, T", LAYOUT_CASES)
    def test_greedy(self, monkeypatch, g, T):
        """Every d_c below 2T, past the region's radius too, read from
        composed windows (``_tabled`` forced) and from the reference's
        rows."""
        monkeypatch.setattr(simulate, "_tabled", lambda region, d_c: True)
        region = simulate.Region(g, T)
        for d_c in range(2 * T):
            assert _greedy_distance_coloring(region, d_c) == row_major_greedy(column_table(region, d_c))

    @pytest.mark.parametrize("config", LAYOUT_CONFIGS)
    def test_run_gathers_reference_rows(self, monkeypatch, config):
        """Each judged step's colour matrix is the reference rows of its
        uncoloured isolated supports, read in the colours before the step,
        with slot 0 in the step's colour."""
        isolated = []
        supports = simulate._isolated_supports

        def spy(*args):
            isolated[:] = supports(*args)
            return isolated

        monkeypatch.setattr(simulate, "_isolated_supports", spy)
        _built, judged = count_judges(monkeypatch, config.ideal)
        trace = run(config)
        region = trace.region
        colour = np.full(len(region) + 1, NO_COLOR, dtype=np.int64)
        expected = []
        for (c, accepted), R, cand in zip(trace.steps, trace.reaches, isolated):
            cand = cand[colour[cand] == NO_COLOR]
            if len(cand):
                C = colour[column_table(region, radius_floor(2 * R))[cand]]
                C[:, 0] = config.ideal.color_code(c)
                expected.append(C.tolist())
            colour[accepted] = config.ideal.color_code(c)
        assert expected and [C.tolist() for C in judged] == expected
        assert sum(len(at) for _c, at in trace.steps) > 0

    @pytest.mark.parametrize("config", LAYOUT_CONFIGS)
    def test_block_sizes_change_no_report_byte(self, monkeypatch, config):
        """Validation reports, failures included, are the same bytes with
        blocks of one cell, of one (step, centre) pair, of a few pairs,
        and at the default size, and equal the brute-force validator's."""
        trace = run(config)
        ideal = config.ideal
        R = max(radius_floor(ideal.locality_radius(c)) for c, _at in trace.steps)
        pair = groups.ball_size(ideal.group, R)
        reports = set()
        for cells in (1, pair, 3 * pair + 1, simulate._PAIR_CELLS):
            monkeypatch.setattr(simulate, "_PAIR_CELLS", cells)
            reports.add(canonical_json_bytes(trace_validate(trace, ideal)))
        monkeypatch.undo()
        assert reports == {canonical_json_bytes(brute_force_validate(trace, ideal))}
        assert not trace_validate(trace, ideal).ok

    @pytest.mark.parametrize("config", LAYOUT_CONFIGS)
    def test_validator_judges_reference_windows(self, monkeypatch, config):
        """The windows judged are those of the reference rows: every
        (step t, coloured centre x) with x's window inside the region and t
        a step, from x's own on, that colours a point of x's row, on x's
        row as it stood after t. The report, failures with their windows
        included, equals the brute-force validator's."""
        ideal = config.ideal
        trace = run(config)
        _built, judged = count_judges(monkeypatch, ideal)
        report = trace_validate(trace, ideal)
        region, last, T = trace.region, len(trace.steps), config.window_radius + config.margin
        step_of = np.full(len(region) + 1, last + 1, dtype=np.int64)
        colour = np.full(len(region) + 1, NO_COLOR, dtype=np.int64)
        radius = np.zeros(len(region) + 1, dtype=np.int64)
        for t, (c, at) in enumerate(trace.steps, start=1):
            step_of[at], colour[at] = t, ideal.color_code(c)
            radius[at] = ideal.locality_radius(c)  # ProperColoring: 1
        reach = column_table(region, int(radius.max()))
        windows, norms = [], ball_norms(region.group, region.elements)
        for x in np.flatnonzero(step_of[:-1] <= last).tolist():
            if norms[x] + radius[x] > T:
                continue
            row = column_table(region, int(radius[x]))[x]
            for t in sorted(set(step_of[reach[x]].tolist())):
                if step_of[x] <= t <= last:
                    windows.append(np.where(step_of[row] <= t, colour[row], NO_COLOR).tolist())
        got = [w for C in judged for w in C.tolist()]
        assert report.windows_checked == len(windows) > 0
        assert sorted(got) == sorted(windows)
        assert report.failures
        assert report.to_jsonable() == brute_force_validate(trace, ideal).to_jsonable()


_EXTRACT_RADII = [0, Fraction(1, 2), 1, Fraction(3, 2), 2]


@functools.cache
def _run_colourings():
    """Final colourings of runs: proper colourings of Z^1, Z^2, F_1 past
    its pack_limit of 40 letters and F_2, and a pair schedule on Z^1."""
    configs = [
        SimulationConfig(ideal=PC3, window_radius=40, margin=2, steps=120, p=Fraction(1, 2), seed=3),
        SimulationConfig(ideal=ProperColoring(Z2, 5), window_radius=6, margin=2, steps=120, p=Fraction(1, 8)),
        SimulationConfig(ideal=ProperColoring(F1, 3), window_radius=50, margin=2, steps=120, p=Fraction(1, 2)),
        SimulationConfig(ideal=ProperColoring(F2, 5), window_radius=3, margin=2, steps=300, p=Fraction(1, 17)),
        SimulationConfig(ideal=_reduced(Z1), window_radius=30, margin=6, steps=120, p=Fraction(1, 8),
                         schedule=_PAIRS),
    ]
    return [run(cfg).final_coloring for cfg in configs]


def _drawn_colouring(data) -> PartialColoring:
    kind = data.draw(st.sampled_from(["line", "ball", "long F_1", "run"]))
    if kind == "run":
        return data.draw(st.sampled_from(_run_colourings()))
    if kind == "line":
        g, n = Z1, data.draw(st.integers(0, 30))
        points = list(range(-n, n + 1))
    elif kind == "long F_1":  # runs of a^30 to a^55, across pack_limit
        g, lo = F1, data.draw(st.integers(30, 44))
        points = ["a" * i for i in range(lo, lo + data.draw(st.integers(0, 12)))]
    else:
        g, top = data.draw(st.sampled_from([(Z2, 3), (Z3, 2), (F2, 3), (FreeGroup(3), 2)]))
        points = bfs_ball(g, g.identity(), data.draw(st.integers(0, top)))
    if kind == "line" and data.draw(st.booleans()):
        period = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        colours = [period[i % len(period)] for i in range(len(points))]
    else:
        colours = data.draw(st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points)))
    if data.draw(st.booleans()):
        colours = [(data.draw(st.integers(0, 1)), c) for c in colours]
    entries = dict(zip(points, colours))
    for hole in data.draw(st.sets(st.sampled_from(points), max_size=2)) if points else ():
        del entries[hole]
    return PartialColoring(g, entries)


class TestExtract:
    def test_parity_coloring_has_two_patterns(self):
        omega = PartialColoring(Z1, {i: i % 2 for i in range(-6, 7)})
        pats = extract_patterns(omega, 1, min_occurrences=2)
        assert len(pats) == 2
        assert {frozenset(p.entries.items()) for p in pats} == {
            frozenset({(-1, 0), (0, 1), (1, 0)}),
            frozenset({(-1, 1), (0, 0), (1, 1)}),
        }

    def test_min_occurrences_filter(self):
        omega = PartialColoring(Z1, {0: 0, 1: 1, 2: 0, 3: 1})
        some = extract_patterns(omega, 1, min_occurrences=1)
        none = extract_patterns(omega, 1, min_occurrences=5)
        assert some and not none

    def test_negative_arguments_refused(self):
        omega = PartialColoring(Z1, {0: 0, 1: 1, 2: 0})
        with pytest.raises(ValueError, match="shape radius"):
            extract_patterns(omega, -1, min_occurrences=1)
        with pytest.raises(ValueError, match="occurrence count"):
            extract_patterns(omega, 1, min_occurrences=-3)
        assert len(extract_patterns(omega, 0, min_occurrences=0)) == 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_counts_match_a_counter(self, data):
        """The patterns kept, in order, are those a Counter over the
        normalised interior windows of the breadth-first balls counts at
        least min_occurrences times: on periodic and random Z^1 colourings,
        balls of Z^2, Z^3, F_2 and F_3, F_1 words past pack_limit, with
        holes and with pair colours (h, c), and on final colourings of runs,
        at radii 0 to 2 by halves."""
        omega = _drawn_colouring(data)
        g, colours = omega.group, omega.entries
        radius, least = data.draw(st.sampled_from(_EXTRACT_RADII)), data.draw(st.integers(0, 3))
        counter = Counter()
        for gamma in colours:
            ball = bfs_ball(g, gamma, radius)
            if all(e in colours for e in ball):
                counter[frozenset(shift(omega.restrict(ball), gamma).entries.items())] += 1
        expected = sorted((PartialColoring(g, dict(k)) for k, c in counter.items() if c >= least),
                          key=PartialColoring.canonical_key)
        got = extract_patterns(omega, radius, min_occurrences=least)
        assert [p.entries for p in got] == [p.entries for p in expected]

    @pytest.mark.parametrize("radius", [0, Fraction(3, 2), 2])
    def test_reads_the_colouring_in_place(self, monkeypatch, radius):
        """No window is built as a pattern: no Group.ball, restrict, shift
        or canonical_key, and at most |dom| * |Ball(1, r)| calls to mul."""
        colourings = _run_colourings()
        wanted = [extract_patterns(omega, radius, 1) for omega in colourings]
        assert sum(map(len, wanted)) > len(colourings)

        def refused(*args, **kwargs):
            raise AssertionError("a window was built as a pattern")

        monkeypatch.setattr(groups.Group, "ball", refused)
        for owner, name in ((PartialColoring, "restrict"), (PartialColoring, "canonical_key"),
                            (patterns_module, "shift"), (simulate, "shift")):
            monkeypatch.setattr(owner, name, refused, raising=False)
        for omega, patterns in zip(colourings, wanted):
            g, calls = omega.group, []
            # on the instance, where g.mul is looked up first
            monkeypatch.setitem(vars(g), "mul", lambda a, b, mul=g.mul: calls.append(1) or mul(a, b))
            got = extract_patterns(omega, radius, 1)
            monkeypatch.delitem(vars(g), "mul")
            assert [p.entries for p in got] == [p.entries for p in patterns]
            assert 0 < len(calls) <= len(omega) * groups.ball_size(g, radius_floor(radius))

    def test_patterns_are_centered(self):
        omega = PartialColoring(Z1, {i: 0 if i < 3 else 1 for i in range(7)})
        for p in extract_patterns(omega, 1, min_occurrences=1):
            assert sorted(p.domain()) == [-1, 0, 1]


# (group, largest region radius) for the prefix reads
PREFIX_CASES = [(Z1, 12), (Z2, 6), (Z3, 4), (F1, 12), (F2, 4), (FreeGroup(3), 3)]


class TestPrefixReads:
    """A region is laid out by norm, so each "norm <= r" test reads the
    prefix of ``Region.prefix(r)`` points, and equals the mask it replaced:
    on Z^1-Z^3 and F_1-F_3, with T - s from below 0 to T."""

    @staticmethod
    def _region(data):
        g, top = data.draw(st.sampled_from(PREFIX_CASES))
        return _region_of(g, data.draw(st.integers(0, top)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_prefix_is_the_mask(self, data):
        region = self._region(data)
        r = data.draw(st.integers(-2, region.radius))
        norms = ball_norms(region.group, region.elements)
        assert np.flatnonzero(norms <= r).tolist() == list(range(region.prefix(r)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_columns_compose_every_path_where_a_window_leaves(self, data):
        region = self._region(data)
        T = region.radius
        s = data.draw(st.integers(0, T + 2))
        points = np.array(data.draw(st.lists(st.integers(0, len(region) - 1), max_size=6)), dtype=np.int64)
        every, compose = [], simulate._compose
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_compose", lambda *args: every.append(args[-1]) or compose(*args))
            got = region.columns(s, points)
        assert set(every) <= {bool((ball_norms(region.group, region.elements)[points] + s > T).any())}
        assert got.tolist() == reference_table(region, s)[:, points].tolist()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_isolation_candidates(self, data):
        region = self._region(data)
        T = region.radius
        radii = data.draw(st.lists(st.integers(0, T + 2), min_size=1, max_size=3))
        seen, isolated = {}, simulate._isolated
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_isolated", lambda region, s, words, cand, k:
                       seen.setdefault(s, cand) is None or isolated(region, s, words, cand, k))
            simulate._isolated_supports(region, RandomField(region.group, 0, Fraction(1, 2)), region.codes, radii)
        assert set(seen) == set(radii)
        for s, cand in seen.items():
            assert cand.tolist() == np.flatnonzero(ball_norms(region.group, region.elements) + s <= T).tolist()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_interior_fill_and_safe_set(self, data):
        """A run's interior size and fills, a hand trace's interior size,
        and an equivariance check's safe size equal those of the masks."""
        ideal, schedule, max_window = data.draw(st.sampled_from(REFERENCE_CASES))
        config = _reference_config(
            ideal, schedule, data.draw(st.integers(0, max_window)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, 8)), None, data.draw(st.integers(0, 2**32)), data.draw(st.booleans()),
        )
        trace = run(config)
        region, T = trace.region, config.window_radius + config.margin
        norms = ball_norms(region.group, region.elements)
        interior = norms <= config.window_radius
        size = int(interior.sum())
        assert trace.interior_size == SimulationTrace.from_elements(config, trace.assigned_sets).interior_size == size
        filled = np.cumsum([int(interior[at].sum()) for _c, at in trace.steps], dtype=np.int64).tolist()
        assert trace.fill_fractions == [0.0, *(f / size for f in filled)]
        gamma = data.draw(st.sampled_from(region.elements))
        report = equivariance_check(config, gamma)
        cone = sum((2 * R_i for R_i in trace.reaches[:-1]), 0)
        safe = np.append(norms + radius_ceil(cone) <= T, False)
        assert report.safe_size == int((safe[:-1] & safe[region.right_translate(gamma)[0]]).sum())


class TestNarrowArrays:
    """A run keeps its colour codes and step numbers, and a trace its step
    numbers, in the narrowest dtype that holds them, widened to int64 in
    the windows the judge multiplies by its strides; none wraps."""

    def test_narrowest(self):
        narrowest = simulate._narrowest
        assert (narrowest(NO_COLOR, 4), narrowest(NO_COLOR, 127), narrowest(NO_COLOR, 128)) == (np.int8, np.int8, np.int16)
        assert (narrowest(255), narrowest(256), narrowest(2**16)) == (np.uint8, np.uint16, np.uint32)
        assert narrowest(-3, 2**31) == np.int64

    @pytest.mark.parametrize("g", [Z1, F2], ids=lambda g: g.name)
    def test_palette_past_127_and_steps_past_255(self, g):
        """Colours 128-199 of a 200-colour palette, with codes past int8,
        over 300 steps, numbered past uint8: the run equals the scalar
        reference run, validates clean, scatters its steps, and its
        equivariance check equals the per-point check."""
        ideal = ProperColoring(g, 200)
        config = SimulationConfig(ideal, 30 if g is Z1 else 2, 2, 300, Fraction(1, 100), 2,
                                  schedule=[128, 199, 150, 171])
        trace = run(config)
        assert trace.step_of.dtype == np.uint16
        summary = trace.to_summary_jsonable(dump=True)
        assert summary == reference_run(config).to_summary_jsonable(dump=True)
        assert {s["color"] for s in summary["assigned_sets"] if s["elements"]} == {128, 199, 150, 171}
        assert max(i for i, (_c, at) in enumerate(trace.steps, 1) if len(at)) > 255
        assert trace_validate(trace, ideal).ok
        assert trace.step_of.tolist() == scattered_steps(trace)
        gamma = g.generators()[0]
        assert equivariance_check(config, gamma).to_jsonable() == \
            reference_equivariance_check(config, gamma).to_jsonable()

    def test_point_listed_twice_in_one_step_refused(self):
        trace = _hand_trace(PC3_F2, 3, 2, [(0, ("a", "b")), (1, ("Ab",))])
        at = trace.steps[1][1]
        with pytest.raises(ValueError, match=r"^trace point 'Ab' is coloured more than once$"):
            dataclasses.replace(trace, steps=[trace.steps[0], (1, np.concatenate([at, at]))])
