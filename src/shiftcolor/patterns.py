"""Finite partial colorings of a group and the shift action on them.

A pattern assigns colors to finitely many group elements. Colors are either
naturals or product pairs (h, c) of naturals — the latter appear in the
reduction machinery. The shift action moves domains on the right:

    dom(shift(phi, g)) = {x * g^-1 : x in dom(phi)},
    shift(phi, g)(x)   = phi(x * g),

so shifting by g and then by h equals shifting by h*g (a left action).

Patterns are validated once, at the boundary: the public constructor and
``from_json`` check every element and color, ``with_entry`` checks its new
entry and ``shift`` its gamma. Every pattern derived from valid ones — a
restriction, window, union, shift or truncation — is built through
``PartialColoring._of_valid`` and checks nothing again.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .groups import Group, set_dist
from .radii import INF, Infinity, Radius

Color = Union[int, Tuple[int, int]]


def _validate_color(color) -> Color:
    if isinstance(color, bool):
        raise ValueError("colors are naturals, not bools")
    if isinstance(color, int):
        if color < 0:
            raise ValueError(f"colors are naturals, got {color}")
        return color
    if isinstance(color, (tuple, list)) and len(color) == 2:
        h, c = color
        if isinstance(h, int) and isinstance(c, int) and h >= 0 and c >= 0 \
                and not isinstance(h, bool) and not isinstance(c, bool):
            return (h, c)
    raise ValueError(f"not a color (natural or pair of naturals): {color!r}")


class PartialColoring:
    """An immutable finite partial map from group elements to colors."""

    __slots__ = ("group", "entries")

    def __init__(self, group: Group, entries: Union[Mapping, Iterable[Tuple[object, Color]]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        table: Dict[object, Color] = {}
        for element, color in items:
            group.validate(element)
            color = _validate_color(color)
            if element in table and table[element] != color:
                raise ValueError(f"element {element!r} is assigned two colors")
            table[element] = color
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", table)

    @classmethod
    def _of_valid(cls, group: Group, table: Dict[object, Color]) -> "PartialColoring":
        """The internal constructor: a pattern over entries already known to
        be valid. Nothing is checked again, and ``table`` is kept, not copied.
        The benchmark tracer's ``patterns.PartialColoring.constructed``
        counter wraps ``__init__``, so it counts only boundary constructions."""
        out = object.__new__(cls)
        object.__setattr__(out, "group", group)
        object.__setattr__(out, "entries", table)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PartialColoring is immutable")

    # -- basic queries ----------------------------------------------------

    def domain(self):
        return self.entries.keys()

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __contains__(self, element):
        return element in self.entries

    def __getitem__(self, element):
        return self.entries[element]

    def get(self, element, default=None):
        return self.entries.get(element, default)

    def colors_used(self):
        return set(self.entries.values())

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: self.group.sort_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, PartialColoring)
            and self.group == other.group
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.group, self.canonical_key()))

    def canonical_key(self):
        return tuple((self.group.sort_key(e), c) for e, c in self.items_sorted())

    def __repr__(self):
        body = ", ".join(f"{e!r}: {c!r}" for e, c in self.items_sorted())
        return f"PartialColoring({self.group.name}, {{{body}}})"

    # -- derived patterns --------------------------------------------------

    def with_entry(self, element, color) -> "PartialColoring":
        self.group.validate(element)
        new = dict(self.entries)
        new[element] = _validate_color(color)
        return PartialColoring._of_valid(self.group, new)

    def restrict(self, elements) -> "PartialColoring":
        keep = set(elements)
        return PartialColoring._of_valid(
            self.group, {e: c for e, c in self.entries.items() if e in keep}
        )

    def remove(self, elements) -> "PartialColoring":
        drop = set(elements)
        return PartialColoring._of_valid(
            self.group, {e: c for e, c in self.entries.items() if e not in drop}
        )

    def union(self, other: "PartialColoring") -> "PartialColoring":
        if self.group != other.group:
            raise ValueError("cannot union patterns over different groups")
        merged = dict(self.entries)
        for e, c in other.entries.items():
            if e in merged and merged[e] != c:
                raise ValueError(f"union conflict at {e!r}")
            merged[e] = c
        return PartialColoring._of_valid(self.group, merged)

    def window(self, center, r: Radius) -> "PartialColoring":
        """The pattern restricted to the closed radius-r ball around center."""
        if isinstance(r, Infinity):
            return self
        g = self.group
        return PartialColoring._of_valid(
            g, {e: c for e, c in self.entries.items() if g.dist(center, e) <= r}
        )

    def domain_dist(self, other: "PartialColoring") -> Radius:
        return set_dist(self.group, self.domain(), other.domain())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.spec_string(),
            "entries": [
                [self.group.element_to_json(e), list(c) if isinstance(c, tuple) else c]
                for e, c in self.items_sorted()
            ],
        }

    @staticmethod
    def from_json(obj: dict, group: Optional[Group] = None) -> "PartialColoring":
        from .groups import parse_group

        g = group if group is not None else parse_group(obj["group"])
        entries = []
        for element, color in obj["entries"]:
            if isinstance(color, list):
                color = tuple(color)
            entries.append((g.element_from_json(element), color))
        return PartialColoring(g, entries)


def shift(phi: PartialColoring, gamma) -> PartialColoring:
    """The shift action: dom moves to dom*gamma^-1 and the value at x is the
    old value at x*gamma. Only gamma is checked: right multiplication by
    gamma^-1 maps phi's canonical elements one-to-one onto canonical
    products."""
    g = phi.group
    g.validate(gamma)
    ginv = g.inv(gamma)
    return PartialColoring._of_valid(g, {g.mul(e, ginv): c for e, c in phi.entries.items()})


def truncated_window(phi: PartialColoring, center, r: Radius, h: int) -> PartialColoring:
    """Product-coded window: entries within distance r of center whose first
    color coordinate is at most h."""
    g = phi.group
    out = {}
    for e, c in phi.entries.items():
        if not isinstance(c, tuple):
            raise ValueError("truncated_window expects a product-coded pattern")
        if c[0] <= h and (isinstance(r, Infinity) or g.dist(center, e) <= r):
            out[e] = c
    return PartialColoring._of_valid(g, out)
