"""Bipartite graphs with a fixed left/right split.

A graph lives in a small line-oriented text format:

    L: x1 x2
    R: y1 y2
    E: x1-y1 x1-y2 x2-y2

`parse_graph` reads it, `to_document` writes it back.  Vertex names match
``[A-Za-z0-9_]+`` and `#` starts a comment.  A well-formed document is
checked in bulk (`parse_document`): one `findall` per `E:` line, set sizes
for repeated names and edges, and one pass that checks each edge's sides
while it builds the neighbour sets, which the graph keeps.  The per-token and per-edge loops run only on a document they will
refuse, to word its error.  That pass, `_neighbour_sets`, is the one side
check of every graph: `BipartiteGraph` makes it too, and a graph derived
from checked graphs (a deleted closed neighbourhood, a disjoint union, a
contracted base) is built unchecked, as its names and sides are theirs.

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
`_transitive` is the one place the condition is written as a check, and
`_matching_transitive` applies it to a matching on the quotient by those
classes, one successor set per class; the enumerators make only relations
that satisfy it (`enumeration._relations`).
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


def _neighbour_sets(left, right, edges) -> dict[str, frozenset[str]]:
    """Neighbours of every vertex, lefts then rights; the one side check of every graph.

    One pass over the edges both checks the sides and builds the sets: an
    edge (x, y) whose x is no left or whose y is no right misses its side's
    table, and the ValueError names that edge, the first off its sides in
    the order of `edges`.  The names must be distinct (`_check_names`).
    """
    ladj: dict[str, set[str]] = {x: set() for x in left}
    radj: dict[str, set[str]] = {y: set() for y in right}
    try:
        for x, y in edges:
            ladj[x].add(y)
            radj[y].add(x)
    except KeyError:
        raise ValueError(f"edge ({x},{y}) does not run from left to right") from None
    ladj.update(radj)
    return {v: frozenset(ns) for v, ns in ladj.items()}


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

    def __init__(self, left: tuple[str, ...], right: tuple[str, ...],
                 edges: frozenset[tuple[str, str]]) -> None:
        """Check the names, then the edge sides, keeping the neighbour sets that check builds."""
        self._set(left, right, edges)
        _check_names(self.left + self.right)
        self.__dict__["_adjacency"] = _neighbour_sets(self.left, self.right, self.edges)

    @classmethod
    def of(cls, left, right, edges) -> "BipartiteGraph":
        return cls(tuple(left), tuple(right), frozenset(tuple(e) for e in edges))

    @classmethod
    def _trusted(cls, left: tuple[str, ...], right: tuple[str, ...],
                 edges: frozenset[tuple[str, str]],
                 adjacency: dict[str, frozenset[str]] | None = None) -> "BipartiteGraph":
        """A graph whose names and edge sides the caller has already checked.

        `parse_document` checks the names and the edge sides before
        building, and hands over the neighbour sets it built in that check;
        `__init__` would check them again.  The other callers build from
        graphs already checked, each saying why in its docstring:
        `enumeration._index_graph`, `construct._blow_up`,
        `construct.contract`, `delete_closed_neighborhood` and
        `disjoint_union`.  They pass no sets, and `_adjacency` builds them
        on first use.
        """
        g = object.__new__(cls)
        g._set(left, right, edges)
        if adjacency is not None:
            g.__dict__["_adjacency"] = adjacency
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.left + self.right

    def has_edge(self, x: str, y: str) -> bool:
        return (x, y) in self.edges

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adjacency[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def isolated_vertices(self) -> tuple[str, ...]:
        adj = self._adjacency
        return tuple(v for v in self.vertices if not adj[v])

    @cached_property
    def _adjacency(self) -> dict[str, frozenset[str]]:
        """Neighbours of every vertex, freed with the graph.

        `__init__` and `parse_document` keep the sets they build as they
        check the edge sides; any other `_trusted` graph builds them here
        on first use, with the same `_neighbour_sets`, whose side check
        its caller's proof says cannot fail.
        """
        return _neighbour_sets(self.left, self.right, self.edges)

    @cached_property
    def _blocks(self) -> BlockDecomposition:
        """The classes of lefts with equal neighbourhoods, by position in `left`.

        Built on first use and freed with the graph, like `_adjacency`.
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
    and `_neighbour_sets` checks every edge's sides in the one pass that
    builds the graph's neighbour sets, its ValueError caught here.  Only
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
        adjacency = _neighbour_sets(left, right, edges) if len(edges) == len(pairs) else None
    except ValueError:
        adjacency = None
    if adjacency is None:
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
    return BipartiteGraph._trusted(tuple(left), tuple(right), edges, adjacency), mult


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


def _transitive(succ: dict) -> bool:
    # Villarreal condition (2) on successor sets: x_iy_j and x_jy_k force
    # x_iy_k, that is succ[j] <= succ[i] for every j in succ[i]; triples with
    # a repeated index hold through the matched edges.
    return all(succ[j] <= succ[i] for i in succ for j in succ[i])


def _matching_transitive(g: BipartiteGraph, match: dict[str, str]) -> bool:
    """Villarreal's condition for `match`, a perfect matching of g, checked on `g._blocks`.

    `match` sends each left x_i to its partner y_i, a neighbour, and is a
    bijection onto `g.right`.  Let succ(i) be the indices j with x_iy_j
    an edge; the condition is succ(j) <= succ(i) for every j in succ(i).
    succ(i) depends on N(x_i) alone, so it is one set per class of lefts
    with equal neighbourhoods (`g._blocks`).  The check runs on the
    quotient, whose successors of a class are the classes succ(i) hits,
    and also checks that each class hit is hit whole: |N(x_i)|, which is
    |succ(i)| as `match` is a bijection, must equal the sum of the sizes
    of the classes hit.

    This is the per-left check.  Suppose the condition holds, j is in
    succ(i) and x_j' ~ x_j.  N(x_j') = N(x_j) holds y_j', since x_j'y_j' is
    an edge, so j' is in succ(j), which lies in succ(i): succ(i) is a union
    of whole classes, and the sizes add up.  A class C' hit by succ(i)
    then has its members in succ(i), so succ(C') <= succ(i), and the
    quotient passes.  Conversely, if every succ(i) is a union of whole
    classes, it is the union of the classes the quotient gives it, so for
    j in succ(i) the quotient's succ(C_j) <= succ(C_i) is succ(j) <=
    succ(i), and the per-left check passes.
    """
    adj, left, blocks = g._adjacency, g.left, g._blocks.blocks
    klass = {match[left[i - 1]]: k for k, block in enumerate(blocks) for i in block}
    sizes = [len(block) for block in blocks]
    succ = {}
    for k, block in enumerate(blocks):
        around = adj[left[min(block) - 1]]
        hit = frozenset(map(klass.__getitem__, around))
        if len(around) != sum(map(sizes.__getitem__, hit)):
            return False
        succ[k] = hit
    return _transitive(succ)


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
    """
    isolated = g.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(f"isolated vertices {', '.join(isolated)}")
    if len(g.left) != len(g.right):
        return None
    adj = g._adjacency
    partner: dict[str, str] = {}
    for block in g._blocks.blocks:
        xs = [g.left[i - 1] for i in sorted(block)]
        least = min(len(adj[y]) for y in adj[xs[0]])
        ys = sorted(y for y in adj[xs[0]] if len(adj[y]) == least)
        if len(ys) != len(xs):
            return None
        partner.update(zip(xs, ys))
    if len(set(partner.values())) != len(g.right):
        return None
    if not _matching_transitive(g, partner):
        return None
    return PureOrder(tuple((x, partner[x]) for x in g.left))


def is_unmixed(g: BipartiteGraph) -> bool:
    return find_pure_order(g) is not None


def is_pure_order(g: BipartiteGraph, po: PureOrder) -> bool:
    """Re-check both pure-order conditions from scratch."""
    pairs = po.pairs
    if sorted(po.lefts) != sorted(g.left) or sorted(po.rights) != sorted(g.right):
        return False
    if any((x, y) not in g.edges for x, y in pairs):
        return False
    return _matching_transitive(g, dict(pairs))


def neighbourhood_blocks(g: BipartiteGraph, lefts: tuple[str, ...]) -> BlockDecomposition:
    """Group the 1-based positions of `lefts` by neighbourhood, in first-seen order.

    For `po.lefts` of a pure order po, whose purity is the caller's to
    know, the classes are the cross blocks (F1): i and j cross exactly when
    x_i and x_j have the same neighbours.  If they cross and x_jy_k is an
    edge, then x_iy_j and x_jy_k give x_iy_k by Villarreal's condition, and
    the same argument runs back, so N(x_i) = N(x_j).  If N(x_i) = N(x_j),
    then y_i, a neighbour of x_i, is a neighbour of x_j, and y_j one of
    x_i, so they cross.  The mirror argument (x_ky_i and x_iy_j give x_ky_j)
    shows that crossed rights have equal neighbourhoods too.  So the
    relation is an equivalence, every class is pairwise crossed, and each
    spans a maximal complete bipartite block.
    """
    adj = g._adjacency
    classes: dict[frozenset[str], set[int]] = {}
    for i, x in enumerate(lefts, start=1):
        classes.setdefault(adj[x], set()).add(i)
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


def connected_components(g: BipartiteGraph) -> tuple[frozenset[str], ...]:
    adj = g._adjacency
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack, comp = [start], {start}
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def is_connected(g: BipartiteGraph) -> bool:
    return len(connected_components(g)) == 1
