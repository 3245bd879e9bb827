"""Bipartite graphs with a fixed left/right split.

A graph lives in a small line-oriented text format:

    L: x1 x2
    R: y1 y2
    E: x1-y1 x1-y2 x2-y2

`parse_graph` reads it, `to_document` writes it back.  Vertex names match
``[A-Za-z0-9_]+`` and `#` starts a comment.  A well-formed document is
checked in bulk (`parse_document`): one `findall` per `E:` line, set sizes
for repeated names and edges, and one pass that checks each edge's sides
while it builds the neighbour masks, which the graph keeps.  The per-token
and per-edge loops run only on a document they will refuse, to word its
error.  That pass, `_neighbour_masks`, is the one side check of every
graph: `BipartiteGraph` makes it too, and a graph derived from checked
graphs (a deleted closed neighbourhood, a disjoint union, a contracted
base) is built unchecked, as its names and sides are theirs.

A graph's structure is held as one int per vertex (`_side_masks`): left
i's neighbours as bits over the positions of `right`, right j's over the
positions of `left`.  Every structural question is a bitwise operation on
them: lefts with equal neighbourhoods have equal ints, a degree is a
`bit_count`, and N(u) <= N(v) is `not N(u) & ~N(v)`.  `neighbors` and
`degree` decode a mask on demand.  The cost is in the width: a mask is as
wide as its highest bit, so a graph with n vertices a side holds up to n^2
mask bits however few its edges, which past a few thousand sparse pairs
costs more time and memory than name sets did (`_neighbour_masks`).

The structural heart of the module is `find_pure_order`: a bipartite graph
without isolated vertices is unmixed (its independence complex is pure)
exactly when any perfect matching x_i~y_i satisfies Villarreal's condition
that x_iy_j and x_jy_k being edges forces x_iy_k to be an edge; any, since
in an unmixed graph all of them do.  The matched pairs then split into the
maximal complete bipartite blocks K_{n,n} of the cross relation (i and j
cross when both x_iy_j and x_jy_i are edges): under a pure order, the
classes of lefts with equal neighbourhoods (`neighbourhood_blocks`), which
each graph groups once (`BipartiteGraph._blocks`).
No matching is searched for: each class is paired with the rights of
least degree in its neighbourhood, which under a pure order are its own.
`_transitive` is the one place the condition is written as a check, on
successor masks, and `_matching_transitive` applies it to a matching of a
graph, whose left masks are those successor masks; the enumerators make
only relations that satisfy it (`enumeration._relations`).
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# One whole whitespace-separated token name-name; `\S` and `str.split` agree
# on what whitespace is.
EDGE_RE = re.compile(r"(?<!\S)([A-Za-z0-9_]+)-([A-Za-z0-9_]+)(?!\S)")


class GraphFormatError(ValueError):
    """A graph document violates the text format."""


class IsolatedVertexError(ValueError):
    """A structural operation got a graph with isolated vertices.

    The matching-based theory assumes every vertex has a neighbor; callers
    that can handle isolated vertices (the homology oracle) never raise this.
    """


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug upstream, not bad input."""


def _check_names(names) -> None:
    """Raise ValueError on a name that `NAME_RE` rejects or that repeats.

    A valid list passes on two C-level tests; the loop, which names the
    first bad name in list order, runs only on a list it will refuse.
    """
    if all(map(NAME_RE.match, names)) and len(set(names)) == len(names):
        return
    seen: set[str] = set()
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"bad vertex name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate vertex {name!r}")
        seen.add(name)


def _neighbour_masks(left, right, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each side's neighbour bitmasks, lefts then rights; the one side check of every graph.

    Left i's mask has bit j set when it is joined to `right[j]`, and right
    j's bit i when it is joined to `left[i]`.  One pass over the edges both
    checks the sides and builds the masks: an edge (x, y) whose x is no
    left or whose y is no right misses its side's position table, and the
    ValueError names that edge, the first off its sides in the order of
    `edges`.  The names must be distinct (`_check_names`).

    A mask is as wide as its highest bit, whatever its count: with n
    vertices a side, a graph whose vertex i has a neighbour near position
    i, a matching say, holds about n^2 bits in all, against O(n + |E|)
    names in neighbour sets, and every bitwise operation on a mask costs
    its width.  Measured on matchings and fence posets (`BENCH_36.json`),
    the `classify` command's work is level with name sets or faster up
    to 3,000 pairs, slower from about 5,000 (1.2x), 2-2.3x at 20,000 and
    4-7x at 60,000; its `tracemalloc` peak is lower at 2,000 pairs, a
    little higher at 5,000 (7.9-8.7 against 7.2-8.6 MB), and 2.1-2.4x at
    20,000 (72-75 MB) and 5-6x at 60,000 (about 540 MB).
    """
    lpos = {x: i for i, x in enumerate(left)}
    rpos = {y: j for j, y in enumerate(right)}
    lmasks, rmasks = [0] * len(left), [0] * len(right)
    try:
        for x, y in edges:
            i, j = lpos[x], rpos[y]
            lmasks[i] |= 1 << j
            rmasks[j] |= 1 << i
    except KeyError:
        raise ValueError(f"edge ({x},{y}) does not run from left to right") from None
    return tuple(lmasks), tuple(rmasks)


def _positions(mask: int) -> list[int]:
    """The positions of the bits set in `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Frozen:
    """Equal, hashed and printed by its `_fields`, set once by `_set`; never reassigned.

    Unlike a `NamedTuple` it has a `__dict__` and takes weak references.
    """

    _fields: tuple[str, ...]

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BipartiteGraph(_Frozen):
    """Two ordered vertex sides and a set of left-to-right edges."""

    _fields = ("left", "right", "edges")

    def __init__(self, left, right, edges) -> None:
        """Check the names, then the edge sides, keeping the neighbour masks that check builds.

        The sides are stored as tuples and the edges as a frozenset of
        tuples, whatever iterables they come as, so every graph hashes.  A
        frozenset is kept as given: a copy may iterate in another order,
        and the side error names the first edge off its sides in that order.
        """
        if not isinstance(edges, frozenset):
            edges = frozenset(map(tuple, edges))
        self._set(tuple(left), tuple(right), edges)
        _check_names(self.left + self.right)
        self.__dict__["_side_masks"] = _neighbour_masks(self.left, self.right, self.edges)

    @classmethod
    def of(cls, left, right, edges) -> "BipartiteGraph":
        return cls(left, right, edges)

    @classmethod
    def _trusted(cls, left: tuple[str, ...], right: tuple[str, ...],
                 edges: frozenset[tuple[str, str]],
                 masks: tuple[tuple[int, ...], tuple[int, ...]] | None = None
                 ) -> "BipartiteGraph":
        """A graph whose names and edge sides the caller has already checked.

        `parse_document` checks the names and the edge sides before
        building, and hands over the neighbour masks it built in that
        check; `__init__` would check them again.  The other callers build
        from graphs already checked, each saying why in its docstring:
        `enumeration._index_graph`, `construct._blow_up`,
        `construct.contract`, `delete_closed_neighborhood` and
        `disjoint_union`.  They pass no masks, and `_side_masks` builds
        them on first use.
        """
        g = object.__new__(cls)
        g._set(left, right, edges)
        if masks is not None:
            g.__dict__["_side_masks"] = masks
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def has_edge(self, x: str, y: str) -> bool:
        return (x, y) in self.edges

    def neighbors(self, v: str) -> frozenset[str]:
        """v's neighbours, decoded from its mask."""
        mask, other = self._mask_of(v)
        return frozenset(map(other.__getitem__, _positions(mask)))

    def degree(self, v: str) -> int:
        return self._mask_of(v)[0].bit_count()

    def _mask_of(self, v: str) -> tuple[int, tuple[str, ...]]:
        """v's neighbour mask and the side whose positions its bits are."""
        lmasks, rmasks = self._side_masks
        if v in self.left:
            return lmasks[self.left.index(v)], self.right
        if v in self.right:
            return rmasks[self.right.index(v)], self.left
        raise KeyError(v)

    def isolated_vertices(self) -> tuple[str, ...]:
        lmasks, rmasks = self._side_masks
        return tuple(v for v, mask in zip(self.vertices, lmasks + rmasks) if not mask)

    @cached_property
    def _side_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The neighbour masks of the lefts and of the rights, freed with the graph.

        `__init__` and `parse_document` keep the masks they build as they
        check the edge sides; any other `_trusted` graph builds them here
        on first use, with the same `_neighbour_masks`, whose side check
        its caller's proof says cannot fail.
        """
        return _neighbour_masks(self.left, self.right, self.edges)

    @cached_property
    def _blocks(self) -> BlockDecomposition:
        """The classes of lefts with equal neighbourhoods, by position in `left`.

        Built on first use and freed with the graph, like `_side_masks`.
        When the graph is unmixed these are its cross blocks: under a pure
        order the neighbourhood classes of its lefts are the blocks
        (`neighbourhood_blocks`), and `find_pure_order` lists its lefts as
        `left`, in the same order, so positions here are its pair indices.
        `find_pure_order` reads this first, to fix the matching, and returns
        an order only once that order is proved pure; every reader after it
        (`classify`, `contract`, `macaulay_order`, `predicted_codim`) thus
        has the blocks with no second grouping and no purity check.  A
        caller's order may list its lefts otherwise, so `cross_blocks`
        checks it and groups along it.
        """
        return neighbourhood_blocks(self, self.left)


class PureOrder(NamedTuple):
    """A perfect matching listed in index order; pairs[i] is (x_{i+1}, y_{i+1})."""

    pairs: tuple[tuple[str, str], ...]

    @property
    def lefts(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def rights(self) -> tuple[str, ...]:
        return tuple(y for _, y in self.pairs)


class BlockDecomposition(NamedTuple):
    """Partition of the 1-based pair indices under the cross relation.

    Blocks are listed by smallest member; `sizes` is aligned with `blocks`.
    """

    blocks: tuple[frozenset[int], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def parse_document(text: str) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    """Parse a graph document, returning (graph, multiplicities or None).

    The optional `M:` line carries expansion multiplicities; plain graph
    callers should use `parse_graph`, which rejects it.

    A well-formed document is checked in bulk.  Each `E:` line is read by
    one `EDGE_RE.findall`, whose matches are whole whitespace-separated
    tokens of the form name-name, so as many matches as tokens means every
    token is an edge.  The names pass `_check_names`'s C-level tests, the
    edges are all distinct when their frozenset is as long as their list,
    and `_neighbour_masks` checks every edge's sides in the one pass that
    builds the graph's neighbour masks, its ValueError caught here.  Only
    where one of these fails does the per-token or per-edge loop run, to
    raise the message with its line number, the one the loop has always
    raised.
    """
    left: list[str] | None = None
    right: list[str] | None = None
    edge_lines: list[tuple[int, list[tuple[str, str]]]] = []
    pairs: list[tuple[str, str]] = []
    mult: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, _, rest = line.partition(":")
        tag = tag.strip()
        tokens = rest.split()
        if tag == "L":
            if left is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'L:' line")
            left = tokens
        elif tag == "R":
            if right is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'R:' line")
            right = tokens
        elif tag == "E":
            found = EDGE_RE.findall(rest)
            if len(found) != len(tokens):
                found = []
                for tok in tokens:
                    u, sep, v = tok.partition("-")
                    if not sep or not u or not v:
                        raise GraphFormatError(f"line {lineno}: malformed edge token {tok!r}")
                    found.append((u, v))
            edge_lines.append((lineno, found))
            pairs += found
        elif tag == "M":
            if mult is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'M:' line")
            try:
                mult = tuple(int(tok) for tok in tokens)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: multiplicities must be integers") from None
        else:
            raise GraphFormatError(f"line {lineno}: expected 'L:', 'R:', 'E:' or 'M:', got {line!r}")
    if left is None:
        raise GraphFormatError("missing 'L:' line")
    if right is None:
        raise GraphFormatError("missing 'R:' line")
    try:
        _check_names(left + right)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    edges = frozenset(pairs)
    try:
        masks = _neighbour_masks(left, right, edges) if len(edges) == len(pairs) else None
    except ValueError:
        masks = None
    if masks is None:
        lset, rset = set(left), set(right)
        seen: set[tuple[str, str]] = set()
        for lineno, found in edge_lines:
            for u, v in found:
                for end in (u, v):
                    if end not in lset and end not in rset:
                        raise GraphFormatError(f"line {lineno}: unknown vertex {end!r}")
                if u not in lset or v not in rset:
                    raise GraphFormatError(
                        f"line {lineno}: edge {u}-{v} has an endpoint on the wrong side")
                if (u, v) in seen:
                    raise GraphFormatError(f"line {lineno}: duplicate edge {u}-{v}")
                seen.add((u, v))
    return BipartiteGraph._trusted(tuple(left), tuple(right), edges, masks), mult


def parse_graph(text: str) -> BipartiteGraph:
    """Parse a plain graph document (no multiplicity line allowed)."""
    g, mult = parse_document(text)
    if mult is not None:
        raise GraphFormatError("unexpected 'M:' line in a plain graph document")
    return g


def to_document(g: BipartiteGraph) -> str:
    """Serialize a graph back to the text format, eight edges per E line."""
    lines = ["L: " + " ".join(g.left) if g.left else "L:",
             "R: " + " ".join(g.right) if g.right else "R:"]
    tokens = [f"{x}-{y}" for x, y in sorted(g.edges)]
    for i in range(0, len(tokens), 8):
        lines.append("E: " + " ".join(tokens[i:i + 8]))
    return "\n".join(lines) + "\n"


def _transitive(succ: tuple[int, ...] | list[int]) -> bool:
    """Villarreal's condition on successor masks: bit j of succ[i] set when i relates to j.

    The relation must be transitive, as x_iy_j and x_jy_k force x_iy_k for
    a matching (`_matching_transitive`): i R j and j R k give i R k, that
    is, succ[j] lies in succ[i] for every j in succ[i], or
    `not succ[j] & ~succ[i]`.  The test for i reads succ[i] alone, not i,
    so it is made once per distinct mask m: succ[j] within m for each j
    in m.  Every i with succ[i] = m meets the same tests, so this is the
    test for every i.
    """
    for mask in set(succ):
        outside, rest = ~mask, mask
        while rest:
            low = rest & -rest
            if succ[low.bit_length() - 1] & outside:
                return False
            rest ^= low
    return True


def _matching_transitive(g: BipartiteGraph, mate: list[int]) -> bool:
    """Villarreal's condition for the perfect matching of g that pairs right j with left mate[j].

    Index the pairs by their rights: pair j is x_{mate[j]}y_j.  Pair i
    relates to pair j when x_{mate[i]}y_j is an edge, so pair i's
    successors are the bits of left mate[i]'s mask, as it stands, and the
    condition is `_transitive` on those masks: for each distinct left mask
    m and each right j in m, N(x_{mate[j]}) within m.  Lefts with equal
    neighbourhoods make a mask repeat, and `_transitive` reads each
    distinct one once.
    """
    lmasks = g._side_masks[0]
    return _transitive([lmasks[i] for i in mate])


def find_pure_order(g: BipartiteGraph) -> PureOrder | None:
    """The pure order of an unmixed graph, or None when it is not unmixed.

    Isolated vertices are outside the theory's hypotheses and raise
    `IsolatedVertexError`.  One perfect matching decides: in an unmixed
    graph every maximal independent set has d elements, so it holds one end
    of each matched edge.  Were x_iy_j and x_jy_k edges but not x_iy_k, a
    maximal independent set containing x_i and y_k would miss y_j, so hold
    x_j, a neighbour of y_k.  So all perfect matchings of an unmixed graph
    pass, and by Villarreal's theorem one that passes proves it unmixed.

    No matching search is needed: the blocks fix the matching.  Each block
    of lefts with equal neighbourhoods is zipped, in input order, with the
    rights of least degree in its neighbourhood, sorted by name.  If the
    graph is unmixed, take a pure order x_i~y_i and x_b in block b.  For
    an edge x_by_c and any x_a adjacent to y_b, x_ay_b and x_by_c give x_ay_c
    by Villarreal's condition, so N(y_b) <= N(y_c): y_b has the least
    degree in N(x_b).  A tie means N(y_b) = N(y_c), which puts x_c in
    N(y_b), so b and c cross and share a block (`neighbourhood_blocks`);
    crossed rights have equal neighbourhoods, so block b's rights are
    exactly the least-degree rights in N(x_b).  They are as many as its
    lefts, so a block where the counts differ proves the graph mixed, and
    the zip is a perfect matching, which passes the check as every perfect
    matching does.  Every pure pairing maps each block's lefts onto the
    same rights, and lefts of one block have one degree, so the zip is the
    first pure pairing with lefts taken by ascending degree and rights by
    name.  If the graph is mixed, a zip that is a perfect matching and
    passes the check would make it unmixed by Villarreal's theorem, so the
    answer is None.

    On the masks: the rights are grouped by degree, the `bit_count` of
    each one's mask, into one mask per degree; a block's least-degree
    rights are the first nonzero AND of one of its left's masks with those,
    in ascending order of degree.  Once every block's counts agree
    each left has one partner, so the zips make a perfect matching exactly
    when the d partners are distinct; `mate` is then its inverse, the left
    of each right.
    """
    lmasks, rmasks = g._side_masks
    if not (all(lmasks) and all(rmasks)):
        raise IsolatedVertexError(f"isolated vertices {', '.join(g.isolated_vertices())}")
    right = g.right
    if len(lmasks) != len(right):
        return None
    level: dict[int, int] = {}
    for j, mask in enumerate(rmasks):
        degree = mask.bit_count()
        level[degree] = level.get(degree, 0) | 1 << j
    by_degree = [level[degree] for degree in sorted(level)]
    mate, partner = [0] * len(right), [0] * len(right)
    for block in g._blocks.blocks:
        lefts = sorted(block)
        around = lmasks[lefts[0] - 1]
        least = next(filter(None, map(around.__and__, by_degree)))
        if least.bit_count() != len(lefts):
            return None
        ys = sorted(_positions(least), key=right.__getitem__)
        for i, j in zip(lefts, ys):
            mate[j], partner[i - 1] = i - 1, j
    if len(set(partner)) != len(right):
        return None
    if not _matching_transitive(g, mate):
        return None
    return PureOrder(tuple(zip(g.left, map(right.__getitem__, partner))))


def is_unmixed(g: BipartiteGraph) -> bool:
    return find_pure_order(g) is not None


def is_pure_order(g: BipartiteGraph, po: PureOrder) -> bool:
    """Re-check both pure-order conditions from scratch."""
    pairs = po.pairs
    if sorted(po.lefts) != sorted(g.left) or sorted(po.rights) != sorted(g.right):
        return False
    if any((x, y) not in g.edges for x, y in pairs):
        return False
    lpos = {x: i for i, x in enumerate(g.left)}
    rpos = {y: j for j, y in enumerate(g.right)}
    mate = [0] * len(pairs)
    for x, y in pairs:
        mate[rpos[y]] = lpos[x]
    return _matching_transitive(g, mate)


def neighbourhood_blocks(g: BipartiteGraph, lefts: tuple[str, ...]) -> BlockDecomposition:
    """Group the 1-based positions of `lefts` by neighbourhood, in first-seen order.

    Lefts with equal neighbourhoods have equal masks, so the classes are
    the groups of equal ints.  For `po.lefts` of a pure order po, whose
    purity is the caller's to know, the classes are the cross blocks (F1):
    i and j cross exactly when x_i and x_j have the same neighbours.  If
    they cross and x_jy_k is an edge, then x_iy_j and x_jy_k give x_iy_k by
    Villarreal's condition, and the same argument runs back, so
    N(x_i) = N(x_j).  If N(x_i) = N(x_j), then y_i, a neighbour of x_i, is
    a neighbour of x_j, and y_j one of x_i, so they cross.  The mirror
    argument (x_ky_i and x_iy_j give x_ky_j) shows that crossed rights have
    equal neighbourhoods too.  So the relation is an equivalence, every
    class is pairwise crossed, and each spans a maximal complete bipartite
    block.
    """
    mask = dict(zip(g.left, g._side_masks[0]))
    classes: dict[int, list[int]] = {}
    for i, x in enumerate(lefts, start=1):
        classes.setdefault(mask[x], []).append(i)
    return BlockDecomposition(tuple(map(frozenset, classes.values())))


def cross_blocks(g: BipartiteGraph, po: PureOrder) -> BlockDecomposition:
    """The cross blocks of `po`, which comes from the caller, so is checked first."""
    if not is_pure_order(g, po):
        raise ValueError("not a pure order of this graph")
    return neighbourhood_blocks(g, po.lefts)


def delete_closed_neighborhood(g: BipartiteGraph, v: str) -> BipartiteGraph:
    """Remove v together with all its neighbors; survivors may end up isolated.

    The survivors are g's vertices on g's sides and their edges are g's, so
    the names and sides hold as g's did, and the graph is built unchecked.
    """
    if v not in g.left and v not in g.right:
        raise ValueError(f"unknown vertex {v!r}")
    gone = {v} | g.neighbors(v)
    return BipartiteGraph._trusted(
        tuple(u for u in g.left if u not in gone),
        tuple(u for u in g.right if u not in gone),
        frozenset((x, y) for x, y in g.edges if x not in gone and y not in gone))


def disjoint_union(a: BipartiteGraph, b: BipartiteGraph) -> BipartiteGraph:
    """a beside b; they may share no vertex name.

    With no name shared, the union's names are as distinct as a's and b's,
    and each edge keeps its sides, so the overlap check is the only guard.
    """
    overlap = set(a.vertices) & set(b.vertices)
    if overlap:
        raise ValueError(f"vertex names shared between operands: {sorted(overlap)}")
    return BipartiteGraph._trusted(a.left + b.left, a.right + b.right, a.edges | b.edges)


def _components(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Each component's lefts and rights as masks, in the order of its first vertex in `g.vertices`.

    A component grows from its first left, alternately adding the rights
    its lefts see and the lefts those rights see.  A right that no left
    reaches has no neighbour, so it is a component alone.
    """
    lmasks, rmasks = g._side_masks
    comps: list[tuple[int, int]] = []
    seen = reached = 0
    for start in range(len(lmasks)):
        if seen >> start & 1:
            continue
        lefts = grown = 1 << start
        rights = 0
        while grown:
            new = 0
            for i in _positions(grown):
                new |= lmasks[i]
            new &= ~rights
            rights |= new
            grown = 0
            for j in _positions(new):
                grown |= rmasks[j]
            grown &= ~lefts
            lefts |= grown
        seen |= lefts
        reached |= rights
        comps.append((lefts, rights))
    comps += [(0, 1 << j) for j in range(len(rmasks)) if not reached >> j & 1]
    return comps


def connected_components(g: BipartiteGraph) -> tuple[frozenset[str], ...]:
    return tuple(frozenset([*map(g.left.__getitem__, _positions(lefts)),
                            *map(g.right.__getitem__, _positions(rights))])
                 for lefts, rights in _components(g))


def is_connected(g: BipartiteGraph) -> bool:
    return len(_components(g)) == 1
