"""
Randomized window coloring, equivariance, and sparse scales
===========================================================

The construction layer: a seeded randomized process fills a finite
window with a coloring that stays inside a chosen family at every step,
the validator replays the trace against the family's window radii, the
equivariance check reruns the whole process under a group shift, and the
sparse multi-scale run colors a handful of points at exponentially
spread separations. All randomness is counter-based, so every figure
below is reproducible bit for bit.
"""

from fractions import Fraction

from shiftcolor import (
    FreeAbelian,
    NotUniversal,
    ProperColoring,
    SimulationConfig,
    equivariance_check,
    extract_patterns,
    run,
    sparse_run,
    trace_validate,
)

line = FreeAbelian(1)

# ---------------------------------------------------------------------------
# 1. Filling a window with a proper 3-coloring
# ---------------------------------------------------------------------------
# The process works on the ball of radius window_radius + margin, cycles
# through the palette, and at each step colors an independent random
# subset of the still-uncolored points — keeping same-step points more
# than twice the family's window radius apart so the merge is safe.

config = SimulationConfig(
    ideal=ProperColoring(line, 3),
    window_radius=50,
    margin=10,
    steps=60,
    p=Fraction(1, 2),
    seed=7,
)
trace = run(config)

print("region:", len(trace.region), "points; interior window:", trace.interior_size)
print("fill fraction every 10 steps:",
      [round(trace.fill_fractions[i], 3) for i in range(0, 61, 10)])
print("colors assigned per step (first 9):",
      [len(elems) for _c, elems in trace.assigned_sets[:9]])

# The chain of partial colorings grows monotonically and never leaves
# the family; the validator replays every step against the window radii.
report = trace_validate(trace, config.ideal)
print("trace validation:", "ok" if report.ok else report.failures)

final = trace.final_coloring
print("final coloring is a member:", config.ideal.contains(final),
      f"({len(final)} of {len(trace.region)} region points colored)")

# ---------------------------------------------------------------------------
# 2. Shifting the whole experiment
# ---------------------------------------------------------------------------
# Because the random field is attached to group elements (not array
# slots), translating the window is the same as translating the result.
# The check reruns the process around gamma and compares colorings on
# the safe interior, where neither run is distorted by the boundary.

shift_config = SimulationConfig(
    ideal=ProperColoring(line, 3),
    window_radius=16,
    margin=6,
    steps=9,
    seed=11,
)
for gamma in (1, 5):
    eq = equivariance_check(shift_config, gamma)
    print(f"shift by {gamma}: {eq.safe_size} safe points, exact match = {eq.ok}")

# ---------------------------------------------------------------------------
# 3. A family with a one-shot flavor
# ---------------------------------------------------------------------------
# NotUniversal((1,), (3,)) has a single color with a domination rule on
# its annulus. Low support density keeps steps from clashing; the trace
# stays valid throughout.

nu_config = SimulationConfig(
    ideal=NotUniversal(line, d=(1,), D=(3,)),
    window_radius=30,
    margin=26,
    steps=24,
    p=Fraction(1, 12),
    seed=2,
    schedule=[0],
)
nu_trace = run(nu_config)
print("\nsingle-color family: colored", len(nu_trace.final_coloring), "points;",
      "valid =", trace_validate(nu_trace, nu_config.ideal).ok)

# ---------------------------------------------------------------------------
# 4. Sparse multi-scale coloring
# ---------------------------------------------------------------------------
# sparse_run greedily colors the distance-d_c graph of the window for
# each of the first m scales, draws one target class per scale, and
# assigns each point the least scale whose class it hits. Points that
# share the final color c land more than d_c apart by construction; the
# report re-verifies that separation by brute force.

scales = [1, 3, 7, 15, 31, 63]
coloring, sparse = sparse_run(line, scales, window_radius=100, m=6, seed=4)
print("\nsparse run ok:", sparse.ok,
      "| separation violations:", len(sparse.separation_violations))
print("points per scale:", dict(sorted(sparse.color_counts.items())),
      "| coverage:", round(sparse.coverage, 3))

# ---------------------------------------------------------------------------
# 5. Recurring local patterns
# ---------------------------------------------------------------------------
# Any coloring can be mined for its recurring window patterns: each
# radius-1 window around an interior point is normalized to the identity
# and counted. A proper 3-coloring of the line produces only windows
# whose neighbors differ from the center.

patterns = extract_patterns(final, shape_radius=1, min_occurrences=2)
print("\nrecurring radius-1 patterns in the big run:", len(patterns))
for pat in patterns[:4]:
    print("  ", {x: pat[x] for x in sorted(pat.domain())})
assert all(pat[-1] != pat[0] != pat[1] for pat in patterns)
print("every recurring window respects the adjacency rule")
