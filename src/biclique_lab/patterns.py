"""Named fixture graphs: forbidden patterns and the non-example gallery.

Adjacencies are hard-coded with drawing coordinates so a human can audit the
transcription against a picture.  The forbidden patterns (Hajos graph,
rising sun, x1) disqualify a host only where their degree-2 vertices keep
degree exactly 2; that constraint is read off each pattern's degrees, so
the patterns do not list those vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class PatternGraph:
    """A fixed named graph."""

    name: str
    graph: Graph
    #: drawing coordinates, index-aligned with vertices, for auditing
    layout: tuple[tuple[float, float], ...] = ()


def _g(n: int, edges: str) -> Graph:
    return Graph(n, [(int(a), int(b)) for a, b in (pair.split("-") for pair in edges.split())])


#: K4 minus one edge; 0 and 1 are the universal pair, 2-3 is the non-edge.
DIAMOND = PatternGraph(
    name="diamond",
    graph=_g(4, "0-1 0-2 0-3 1-2 1-3"),
    layout=((0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (1.0, 0.0)),
)

#: Induced path 0-1-2-3 plus the universal vertex 4.
GEM = PatternGraph(
    name="gem",
    graph=_g(5, "0-1 1-2 2-3 0-4 1-4 2-4 3-4"),
    layout=((-1.5, 1.0), (-0.5, 1.5), (0.5, 1.5), (1.5, 1.0), (0.0, 0.0)),
)

#: Triangle 0,1,2 with one degree-2 vertex on each pair (the 3-sun).
HAJOS = PatternGraph(
    name="hajos",
    graph=_g(6, "0-1 0-2 1-2 3-0 3-1 4-1 4-2 5-0 5-2"),
    layout=((-1.0, 0.0), (1.0, 0.0), (0.0, 1.7), (0.0, -0.6), (1.2, 1.2), (-1.2, 1.2)),
)

#: Diamond core (0,1 adjacent to each other and to the rim 2, 5; rim pair
#: nonadjacent) with degree-2 rays 3 over 0-1, 4 over 0-2, 6 over 1-5.
RISING_SUN = PatternGraph(
    name="rising-sun",
    graph=_g(7, "0-1 0-2 1-2 0-3 1-3 0-4 2-4 0-5 1-5 5-6 1-6"),
    layout=(
        (-0.5, 1.0),
        (0.5, 1.0),
        (-1.0, 0.0),
        (0.0, 1.9),
        (-1.9, 0.7),
        (1.0, 0.0),
        (1.9, 0.7),
    ),
)

#: Rising sun with the rim closed into K4 (adds the 2-5 edge).
X1 = PatternGraph(
    name="x1",
    graph=_g(7, "0-1 0-2 1-2 0-3 1-3 0-4 2-4 0-5 1-5 2-5 5-6 1-6"),
    layout=(
        (-0.5, 1.0),
        (0.5, 1.0),
        (-1.0, 0.0),
        (0.0, 1.9),
        (-1.9, 0.7),
        (1.0, 0.0),
        (1.9, 0.7),
    ),
)

#: The forbidden-structure battery, in reporting order.
FORBIDDEN_PATTERNS: tuple[PatternGraph, ...] = (HAJOS, RISING_SUN, X1)

#: Base edge 0-1 with three vertices joined to both ends.  Every induced P3
#: sits in a diamond, yet the pages are twins over an edge, so this is the
#: smallest graph passing the P3 cover test without being a biclique graph.
CROWN = PatternGraph(
    name="crown",
    graph=_g(5, "0-1 0-2 1-2 0-3 1-3 0-4 1-4"),
    layout=((-1.0, 0.0), (1.0, 0.0), (-1.0, 1.4), (0.0, 1.6), (1.0, 1.4)),
)

#: Crown with a fourth point: 4 degree-2 pages out of 6 vertices.
BOOK_4 = PatternGraph(
    name="book-4",
    graph=_g(6, "0-1 0-2 1-2 0-3 1-3 0-4 1-4 0-5 1-5"),
    layout=((-1.0, 0.0), (1.0, 0.0), (-1.4, 1.2), (-0.5, 1.6), (0.5, 1.6), (1.4, 1.2)),
)

#: Crown with five points: 5 degree-2 pages out of 7 vertices.
BOOK_5 = PatternGraph(
    name="book-5",
    graph=_g(7, "0-1 0-2 1-2 0-3 1-3 0-4 1-4 0-5 1-5 0-6 1-6"),
    layout=(
        (-1.0, 0.0),
        (1.0, 0.0),
        (-1.6, 1.0),
        (-0.8, 1.5),
        (0.0, 1.7),
        (0.8, 1.5),
        (1.6, 1.0),
    ),
)

#: K4 with a twin pair mounted on one edge; the only failing check is the
#: twin test, every induced P3 lies in a diamond.
K4_WITH_TWINS = PatternGraph(
    name="k4-with-twins",
    graph=_g(6, "0-1 0-2 0-3 1-2 1-3 2-3 0-4 1-4 0-5 1-5"),
    layout=((-0.5, 0.0), (0.5, 0.0), (-1.2, -1.0), (1.2, -1.0), (-0.6, 1.3), (0.6, 1.3)),
)

#: K4 with a degree-2 vertex over each cycle edge: 4 of 8 vertices have
#: degree two, meeting the excluded bound with equality.
SUN_4 = PatternGraph(
    name="sun-4",
    graph=_g(8, "0-1 0-2 0-3 1-2 1-3 2-3 4-0 4-1 5-1 5-2 6-2 6-3 7-3 7-0"),
    layout=(
        (-1.0, 1.0),
        (1.0, 1.0),
        (1.0, -1.0),
        (-1.0, -1.0),
        (0.0, 1.9),
        (1.9, 0.0),
        (0.0, -1.9),
        (-1.9, 0.0),
    ),
)

#: K5 analogue of SUN_4: 5 of 10 vertices have degree two.
SUN_5 = PatternGraph(
    name="sun-5",
    graph=_g(
        10,
        "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4 "
        "5-0 5-1 6-1 6-2 7-2 7-3 8-3 8-4 9-4 9-0",
    ),
    layout=(
        (0.0, 1.0),
        (0.95, 0.31),
        (0.59, -0.81),
        (-0.59, -0.81),
        (-0.95, 0.31),
        (0.9, 1.25),
        (1.47, -0.48),
        (0.0, -1.54),
        (-1.47, -0.48),
        (-0.9, 1.25),
    ),
)

#: Graphs that pass the P3 cover test but are provably not biclique graphs,
#: with the checks expected to fire on each.
NON_BICLIQUE_GALLERY: tuple[tuple[PatternGraph, tuple[str, ...]], ...] = (
    (CROWN, ("twin_k2", "degree2_bound")),
    (BOOK_4, ("twin_k2", "degree2_bound")),
    (K4_WITH_TWINS, ("twin_k2",)),
    (BOOK_5, ("twin_k2", "degree2_bound")),
    (HAJOS, ("forbidden_subgraph", "degree2_bound", "helly_degree2", "gem_wing")),
    (RISING_SUN, ("forbidden_subgraph", "gem_wing")),
    (X1, ("forbidden_subgraph", "gem_wing")),
    (SUN_4, ("forbidden_subgraph", "degree2_bound", "gem_wing")),
    (SUN_5, ("forbidden_subgraph", "degree2_bound", "gem_wing")),
)

ALL_PATTERNS: dict[str, PatternGraph] = {
    p.name: p
    for p in (
        DIAMOND,
        GEM,
        HAJOS,
        RISING_SUN,
        X1,
        CROWN,
        BOOK_4,
        BOOK_5,
        K4_WITH_TWINS,
        SUN_4,
        SUN_5,
    )
}
