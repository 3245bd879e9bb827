"""Graph model, document format, pure orders, blocks, neighborhood deletion."""

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cmtgraphs import (
    BipartiteGraph,
    Expansion,
    GraphFormatError,
    IsolatedVertexError,
    connected_components,
    classification_json,
    classify,
    contract,
    cross_blocks,
    delete_closed_neighborhood,
    disjoint_union,
    enumerate_cm,
    expand,
    find_pure_order,
    independence_complex,
    is_pure,
    is_connected,
    is_pure_order,
    is_unmixed,
    link,
    parse_graph,
    predicted_codim,
    to_document,
)
from cmtgraphs import bigraph
from conftest import (all_pure_pairings, complete, graph, random_bipartite,
                      relabeled_copy, rename)

PATH = "L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n"
SIX_CYCLE = "L: x1 x2 x3\nR: y1 y2 y3\nE: x1-y1 x1-y2 x2-y2 x2-y3 x3-y3 x3-y1\n"


def diagonal_graph(d: int, extra) -> BipartiteGraph:
    """Matched pairs x_i-y_i plus the off-diagonal edges x_i-y_j for (i, j) in extra."""
    return BipartiteGraph.of([f"x{i}" for i in range(d)], [f"y{i}" for i in range(d)],
                             [(f"x{i}", f"y{i}") for i in range(d)]
                             + [(f"x{i}", f"y{j}") for i, j in extra])


def least_pure_pairing(g: BipartiteGraph):
    """The first pure pairing in a lexicographic order, from the brute-force oracle.

    Lefts are taken by ascending degree, ties kept in input order, and the
    partners are compared as names.  The JSON reports depend on this
    pairing, so it pins what `find_pure_order` must return.
    """
    pairings = all_pure_pairings(g)
    if not pairings:
        return None
    degree = {x: sum((x, y) in g.edges for y in g.right) for x in g.left}
    order = sorted(g.left, key=degree.__getitem__)
    best = min(pairings, key=lambda m: [m[x] for x in order])
    return tuple((x, best[x]) for x in g.left)


def unmixed_pool():
    """Unmixed graphs with their pure orders, for the block facts.

    The 389 unmixed graphs on 1-4 diagonal-matched pairs, then relabelled
    expansions of every Cohen-Macaulay base on 1-4 pairs, up to 8 pairs.
    """
    for d in range(1, 5):
        optional = [(i, j) for i in range(d) for j in range(d) if i != j]
        for mask in range(2 ** len(optional)):
            g = diagonal_graph(d, [e for bit, e in enumerate(optional) if mask >> bit & 1])
            po = find_pure_order(g)
            if po is not None:
                yield g, po
    rng = random.Random(41)
    for dimension in range(4):
        for base in enumerate_cm(dimension):
            for _ in range(4):
                mult = [1] * len(base.left)
                for _ in range(rng.randint(1, 8 - len(mult))):
                    mult[rng.randrange(len(mult))] += 1
                g = relabeled_copy(expand(Expansion(base, tuple(mult))), rng)
                yield g, find_pure_order(g)


def crossed(g: BipartiteGraph, po, i: int, j: int) -> bool:
    """Whether 0-based pair indices i and j cross: x_iy_j and x_jy_i are edges."""
    (xi, yi), (xj, yj) = po.pairs[i], po.pairs[j]
    return (xi, yj) in g.edges and (xj, yi) in g.edges


def assert_matches_oracle(g: BipartiteGraph) -> bool:
    po = find_pure_order(g)
    expected = least_pure_pairing(g)
    assert (po is None) == (expected is None)
    if po is not None:
        assert po.pairs == expected
    return po is not None


# The parser, name check and Villarreal check as they stood before the bulk
# parse: the references the current ones are compared with.

def former_check_names(names) -> None:
    seen: set[str] = set()
    for name in names:
        if not bigraph.NAME_RE.match(name):
            raise ValueError(f"bad vertex name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate vertex {name!r}")
        seen.add(name)


def former_parse_document(text: str):
    """(left, right, edges, multiplicities), or the GraphFormatError raised."""
    left = right = mult = None
    edge_tokens = []
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
            for tok in tokens:
                u, sep, v = tok.partition("-")
                if not sep or not u or not v:
                    raise GraphFormatError(f"line {lineno}: malformed edge token {tok!r}")
                edge_tokens.append((u, v, lineno))
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
        former_check_names(left + right)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    lset, rset = set(left), set(right)
    edges = set()
    for u, v, lineno in edge_tokens:
        for end in (u, v):
            if end not in lset and end not in rset:
                raise GraphFormatError(f"line {lineno}: unknown vertex {end!r}")
        if u not in lset or v not in rset:
            raise GraphFormatError(f"line {lineno}: edge {u}-{v} has an endpoint on the wrong side")
        if (u, v) in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u}-{v}")
        edges.add((u, v))
    return tuple(left), tuple(right), frozenset(edges), mult


def former_adjacency(g: BipartiteGraph) -> dict:
    adj = {v: set() for v in g.vertices}
    for x, y in g.edges:
        adj[x].add(y)
        adj[y].add(x)
    return {v: frozenset(ns) for v, ns in adj.items()}


def assert_former_neighbours(g: BipartiteGraph, context) -> None:
    """Each vertex's neighbours and degree, in vertex order, as the former neighbour sets give them."""
    former = former_adjacency(g)
    assert [g.neighbors(v) for v in g.vertices] == [former[v] for v in g.vertices], context
    assert [g.degree(v) for v in g.vertices] == [len(former[v]) for v in g.vertices], context


def former_matching_transitive(g: BipartiteGraph, match) -> bool:
    # succ[x] holds the lefts whose partner x sees.
    adj = former_adjacency(g)
    owner = {y: x for x, y in match.items()}
    succ = {x: frozenset(owner[y] for y in adj[x]) for x in match}
    return all(succ[j] <= succ[i] for i in succ for j in succ[i])


def former_side_message(left, right, edges):
    """The message of the constructor's former second loop, or None when every edge is on its sides."""
    lset, rset = set(left), set(right)
    for x, y in edges:
        if x not in lset or y not in rset:
            return f"edge ({x},{y}) does not run from left to right"
    return None


def off_side_parts(rng: random.Random):
    """Sides and an edge list in which a few random pairs of names, often off their sides, join the edges."""
    left = [f"x{i}" for i in range(rng.randint(1, 5))]
    right = [f"y{j}" for j in range(rng.randint(1, 5))]
    names = left + right + ["z0", "z1"]
    edges = [(x, y) for x in left for y in right if rng.random() < 0.5]
    edges += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(2, 5))]
    rng.shuffle(edges)
    return left, right, edges


def twin_row_graph(rng: random.Random, d: int, density: float = 0.5) -> BipartiteGraph:
    """d lefts and d rights; each row after the first repeats an earlier one about a third of the time.

    A fresh row holds its own y_i and each other right with probability
    `density`, so most graphs have perfect matchings, and twin rows make
    classes of two or more lefts.
    """
    rows = []
    for i in range(d):
        if rows and rng.random() < 0.35:
            rows.append(rng.choice(rows))
        else:
            rows.append({i} | {j for j in range(d) if rng.random() < density})
    return BipartiteGraph.of([f"x{i}" for i in range(d)], [f"y{j}" for j in range(d)],
                             [(f"x{i}", f"y{j}") for i, row in enumerate(rows) for j in row])


def check_mask_against_per_left(g: BipartiteGraph) -> tuple[int, int]:
    """Every perfect matching of g through the mask check and the former one: (matchings, passing)."""
    matchings = passing = 0
    for ys in itertools.permutations(range(len(g.right))):
        match = {x: g.right[j] for x, j in zip(g.left, ys)}
        if all((x, y) in g.edges for x, y in match.items()):
            mate = [0] * len(ys)
            for i, j in enumerate(ys):
                mate[j] = i
            verdict = bigraph._matching_transitive(g, mate)
            assert verdict == former_matching_transitive(g, match), (to_document(g), match)
            matchings += 1
            passing += verdict
    return matchings, passing


# Pieces a corrupted document is made of: every kind of whitespace the
# splitter knows, a line separator (\x1c), names that are no names or
# repeat, edges with two dashes, a colon or their ends swapped, comments
# and tags.
CORRUPTIONS = [" ", "\t", "\xa0", "\u2003", "\x1c", "\n", "-", ":", "#", "a-b-c", "x.1-y1",
               "a-b:", "x0-x1", "y0-x0", "y1-x1", "x0-q", "x0-", "-y0", "x-0", "é", "٣", "x²",
               " x0 ", " y0 ", " x1 ", "E:", "L:", "R:", "M:", "M: 2 1", "# c", "x0-y0",
               "x1-y1", "0", "_"]


def seeded_document(rng: random.Random) -> str:
    """A valid graph document with random whitespace, comments and an optional M: line."""
    left = [f"x{i}" for i in range(rng.randint(0, 4))]
    right = [f"y{j}" for j in range(rng.randint(0, 4))]
    edges = [f"{x}-{y}" for x in left for y in right if rng.random() < 0.5]
    rng.shuffle(edges)

    def space():
        return rng.choice([" ", "  ", "\t", "\xa0", " \u2003"])

    lines = [f"L:{space()}{space().join(left)}", f"R:{space()}{space().join(right)}"]
    while edges:
        k = rng.randint(1, 4)
        lines.append("E:" + space() + space().join(edges[:k]) + rng.choice(["", " # edges"]))
        edges = edges[k:]
    if rng.random() < 0.3:
        lines.append("M: " + " ".join(str(rng.randint(1, 3)) for _ in left))
    if rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# a comment", "", "  "]))
    rng.shuffle(lines)
    return "\n".join(lines) + rng.choice(["", "\n"])


def corrupted_document(rng: random.Random) -> str:
    """A seeded document with one to three pieces inserted, characters dropped or edges repeated or swapped."""
    text = seeded_document(rng)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        move = rng.random()
        if move < 0.6:
            text = text[:at] + rng.choice(CORRUPTIONS) + text[at:]
        elif move < 0.8:
            text = text[:at] + text[at + 1:]
        else:
            u, _, v = rng.choice([t for t in text.split() if "-" in t] or ["x0-y0"]).partition("-")
            text += f"\nE: {u}-{v}" if rng.random() < 0.5 else f"\nE: {v}-{u}"
    return text


def check_parser_against_former(rng: random.Random, count: int, corrupt: bool = True):
    """`count` documents through both parsers: (accepted, refused).

    An accepted document must give the same sides, edges, multiplicities
    and neighbours; a refused one the same GraphFormatError text.
    """
    accepted = refused = 0
    for _ in range(count):
        doc = corrupted_document(rng) if corrupt else seeded_document(rng)
        try:
            expected = former_parse_document(doc)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                bigraph.parse_document(doc)
            assert str(got.value) == str(exc), doc
            refused += 1
            continue
        g, mult = bigraph.parse_document(doc)
        assert (g.left, g.right, g.edges, mult) == expected, doc
        assert_former_neighbours(g, doc)
        accepted += 1
    return accepted, refused


FIG1 = """\
L: x1 x21 x22 x23
R: y1 y21 y22 y23
E: x1-y1 x1-y21 x1-y22 x1-y23
E: x21-y21 x21-y22 x21-y23 x22-y21 x22-y22 x22-y23 x23-y21 x23-y22 x23-y23
"""


class TestParsing:
    def test_k22_document(self):
        g = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y1 x2-y2\n")
        assert g.left == ("x1", "x2")
        assert g.right == ("y1", "y2")
        assert len(g.edges) == 4

    def test_single_edge(self):
        g = parse_graph("L: x1\nR: y1\nE: x1-y1\n")
        assert g.edges == frozenset({("x1", "y1")})

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a graph\nL: a  # left side\n\nR: b\nE: a-b\n")
        assert g.edges == frozenset({("a", "b")})

    def test_edges_may_span_lines(self):
        g = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1\nE: x2-y2\n")
        assert len(g.edges) == 2

    def test_vertex_order_preserved(self):
        g = parse_graph("L: b a c\nR: z y\nE: a-z\n")
        assert g.left == ("b", "a", "c")
        assert g.right == ("z", "y")

    def test_round_trip(self):
        g = parse_graph(FIG1)
        assert parse_graph(to_document(g)) == g

    def test_empty_sides_serialize(self):
        g = BipartiteGraph.of(["a"], [], [])
        assert parse_graph(to_document(g)) == g

    @pytest.mark.parametrize("doc, fragment", [
        ("L: x1\nR: y1\nE: x1-x1\n", "wrong side"),
        ("L: x1\nR: y1\nE: y1-x1\n", "wrong side"),
        ("L: x1\nR: y1\nE: x1-z9\n", "unknown vertex"),
        ("L: x1 x1\nR: y1\nE: x1-y1\n", "duplicate vertex"),
        ("L: x1\nR: x1\nE: x1-x1\n", "duplicate vertex"),
        ("L: x1\nR: y1\nE: x1-y1 x1-y1\n", "duplicate edge"),
        ("L: x1\nR: y1\nE: x1\n", "malformed edge"),
        ("L: x1\nR: y1\nQ: what\n", "expected"),
        ("R: y1\n", "missing 'L:'"),
        ("L: x1\n", "missing 'R:'"),
        ("L: x-1\nR: y1\n", "bad vertex name"),
        ("L: x1\nR: y1\nE: x1-y1\nM: 1\n", "unexpected 'M:'"),
    ])
    def test_rejects_bad_documents(self, doc, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_graph(doc)

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("L: x1\nR: y1\nE: x1-y1 x1-y1\n")

    def test_each_name_and_edge_checked_once(self, monkeypatch):
        from cmtgraphs import bigraph

        real, checked, rebuilt = bigraph._check_names, [], []

        def counting(names):
            checked.append(tuple(names))
            return real(names)

        monkeypatch.setattr(bigraph, "_check_names", counting)
        monkeypatch.setattr(BipartiteGraph, "__init__", lambda g, *fields: rebuilt.append(fields))
        g = parse_graph("L: x1 x2\nR: y1 y2\nE: x1-y1 x1-y2 x2-y2\n")
        assert checked == [("x1", "x2", "y1", "y2")]
        assert rebuilt == []
        assert g.edges == frozenset({("x1", "y1"), ("x1", "y2"), ("x2", "y2")})
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            parse_graph("L: x1 x1\nR: y1\nE: x1-y9 y1-x1\n")

    def test_valid_documents_as_the_former_parser_read_them(self):
        # Tabs, no-break and em spaces between tokens, comments after edges.
        assert check_parser_against_former(random.Random(3), 500, corrupt=False) == (500, 0)

    def test_corrupted_documents_refused_as_the_former_parser_refused_them(self):
        accepted, refused = check_parser_against_former(random.Random(4), 1000)
        assert accepted > 100 and refused > 500, (accepted, refused)

    @pytest.mark.parametrize("doc", [
        "L: a b\nR: c\nE: a-c-b\n", "L: x\nR: y1\nE: x.1-y1\n", "L: a\nR: b\nE: a-b:\n",
        "L: a\nR: b\nE: a-b\tb-a\n", "L: a\nR: b\nE: a-b\xa0a-b\n",
        "L: a\nR: b\nE: a\x1c-b\n", "L: a\nR: b\nE: a-b # a-c\nE: a-c\n",
        "L: a\nR: b c\nE: a-b a-c a-b\n", "L: a\nR: b\nE:a-b\n",
    ])
    def test_hand_picked_documents_as_the_former_parser(self, doc):
        try:
            expected = former_parse_document(doc)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError, match=re.escape(str(exc))):
                bigraph.parse_document(doc)
        else:
            g, mult = bigraph.parse_document(doc)
            assert (g.left, g.right, g.edges, mult) == expected
            assert_former_neighbours(g, doc)

    def test_check_names_as_the_former_loop(self):
        # Every list of up to three names from an adversarial pool, then
        # longer random ones: the same verdict, and the same first bad name.
        pool = ["a", "x1", "_", "Z9", "", " ", "a b", "a\tb", "a-b", "é", "ß", "٣", "x²",
                "a\n", "A"]
        rng = random.Random(5)
        lists = [list(c) for k in range(4) for c in itertools.product(pool, repeat=k)]
        lists += [rng.choices(pool, k=rng.randint(4, 9)) for _ in range(2000)]
        verdicts = set()
        for names in lists:
            try:
                former_check_names(names)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    bigraph._check_names(names)
                verdicts.add(str(exc).split(" vertex")[0])
            else:
                bigraph._check_names(names)
                verdicts.add("ok")
        assert verdicts == {"ok", "bad", "duplicate"}

    def test_construction_rejects_edge_off_sides(self):
        with pytest.raises(ValueError, match="left to right"):
            BipartiteGraph.of(["a"], ["b"], [("b", "a")])

    def test_side_error_names_the_edge_the_former_loop_named(self):
        # The side check raises at the first edge off its sides, in the
        # order of the edges' frozenset, as the former second loop did.
        rng = random.Random(12)
        several = 0
        for _ in range(2000):
            left, right, edges = off_side_parts(rng)
            frozen = frozenset(tuple(e) for e in edges)
            expected = former_side_message(left, right, frozen)
            several += sum(x not in left or y not in right for x, y in frozen) >= 2
            for build in (lambda: BipartiteGraph.of(left, right, edges),
                          lambda: BipartiteGraph(tuple(left), tuple(right), frozen)):
                if expected is None:
                    g = build()
                    assert_former_neighbours(g, (left, right, edges))
                else:
                    with pytest.raises(ValueError) as err:
                        build()
                    assert str(err.value) == expected, (left, right, edges)
        assert several > 1000, several


class TestPureOrder:
    def test_k22_has_identity_pure_order(self):
        po = find_pure_order(complete(2))
        assert po is not None
        assert po.pairs == (("x1", "y1"), ("x2", "y2"))

    def test_path_pure_order(self):
        po = find_pure_order(parse_graph(PATH))
        assert po is not None
        assert po.pairs == (("x1", "y1"), ("x2", "y2"))

    def test_six_cycle_has_none(self):
        # Independent route: every perfect matching fails transitivity.
        g = parse_graph(SIX_CYCLE)
        assert all_pure_pairings(g) == []
        assert find_pure_order(g) is None
        # And the complex oracle agrees that the graph is mixed.
        assert not is_pure(independence_complex(g))

    def test_unmixed_examples(self):
        assert is_unmixed(complete(3))
        assert is_unmixed(graph("x1", "y1", "x1-y1"))
        assert not is_unmixed(parse_graph(SIX_CYCLE))

    def test_unequal_sides_not_unmixed(self):
        assert not is_unmixed(graph("x1 x2", "y1", "x1-y1 x2-y1"))

    def test_isolated_vertex_rejected(self):
        g = BipartiteGraph.of(["x1", "x2"], ["y1", "y2"],
                              [("x1", "y1"), ("x1", "y2")])
        with pytest.raises(IsolatedVertexError):
            find_pure_order(g)

    def test_empty_graph_trivially_unmixed(self):
        po = find_pure_order(BipartiteGraph.of([], [], []))
        assert po is not None and po.pairs == ()

    def test_returned_order_passes_recheck(self):
        rng = random.Random(7)
        seen_witness = 0
        for _ in range(300):
            g = random_bipartite(rng, max_side=3)
            if g.isolated_vertices():
                continue
            po = find_pure_order(g)
            if po is not None:
                assert is_pure_order(g, po)
                seen_witness += 1
        assert seen_witness > 10

    def test_search_order_independence(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_bipartite(rng, max_side=3)
            if g.isolated_vertices():
                continue
            reversed_g = BipartiteGraph.of(g.left[::-1], g.right[::-1], g.edges)
            assert is_unmixed(g) == is_unmixed(reversed_g)

    def test_every_diagonal_graph_up_to_four_pairs(self):
        # All 1 + 4 + 64 + 4096 graphs on d <= 4 diagonal-matched pairs.  The
        # unmixed ones are the labelled preorders: 1, 4, 29, 355 (A000798).
        unmixed = 0
        for d in range(1, 5):
            optional = [(i, j) for i in range(d) for j in range(d) if i != j]
            for mask in range(2 ** len(optional)):
                extra = [e for bit, e in enumerate(optional) if mask >> bit & 1]
                unmixed += assert_matches_oracle(diagonal_graph(d, extra))
        assert unmixed == 1 + 4 + 29 + 355

    def test_every_small_graph_matches_the_oracle(self):
        # Every graph without isolated vertices on sides of up to 3, and on
        # 3 x 4 and 4 x 3, then a seeded sample of 4 x 4 graphs.  Rights are
        # listed against name order.  Unlike the diagonal graphs above, the
        # mixed ones include graphs with a perfect matching whose
        # least-degree pairing is no perfect matching or fails the check.
        def graphs(p, q, masks):
            left = [f"x{i}" for i in range(p)]
            right = [f"y{j}" for j in reversed(range(q))]
            cells = list(itertools.product(left, right))
            for mask in masks:
                g = BipartiteGraph.of(left, right, [e for bit, e in enumerate(cells)
                                                    if mask >> bit & 1])
                if not g.isolated_vertices():
                    yield g

        shapes = [(p, q) for p in range(1, 4) for q in range(1, 4)] + [(3, 4), (4, 3)]
        pool = [g for p, q in shapes for g in graphs(p, q, range(2 ** (p * q)))]
        pool += graphs(4, 4, random.Random(43).sample(range(2 ** 16), 400))
        unmixed = mixed_matched = 0
        for g in pool:
            found = assert_matches_oracle(g)
            unmixed += found
            mixed_matched += not found and any(
                all((x, y) in g.edges for x, y in zip(g.left, perm))
                for perm in itertools.permutations(g.right)
                if len(g.left) == len(g.right))
        assert unmixed > 150 and mixed_matched > 250

    def test_partners_have_least_degree_in_the_neighbourhood(self):
        for g, po in unmixed_pool():
            for x, y in po.pairs:
                assert g.degree(y) == min(g.degree(v) for v in g.neighbors(x))

    def test_transitive_is_villarreal_on_every_reflexive_relation(self):
        # Every superset of the diagonal on d <= 4 points (1, 4, 64 and 4096
        # relations): the successor-mask check, a from-scratch triple check
        # and unmixedness of the index graph all agree.
        transitive = 0
        for d in range(1, 5):
            optional = [(i, j) for i in range(d) for j in range(d) if i != j]
            for mask in range(2 ** len(optional)):
                extra = [e for bit, e in enumerate(optional) if mask >> bit & 1]
                relation = {(i, i) for i in range(d)} | set(extra)
                succ = [sum(1 << j for a, j in relation if a == i) for i in range(d)]
                triples = all((i, k) in relation
                              for i, j, k in itertools.product(range(d), repeat=3)
                              if (i, j) in relation and (j, k) in relation)
                verdict = bigraph._transitive(succ)
                assert verdict == triples == is_unmixed(diagonal_graph(d, extra))
                transitive += verdict
        assert transitive == 1 + 4 + 29 + 355

    def test_mask_check_is_the_per_left_check(self):
        # Every perfect matching of seeded graphs on 2-5 pairs with twin
        # rows, mixed graphs included: the check on the distinct left
        # masks agrees with the former check on every left.
        rng = random.Random(29)
        matchings = passing = 0
        for _ in range(1500):
            m, p = check_mask_against_per_left(twin_row_graph(rng, rng.randint(2, 5)))
            matchings += m
            passing += p
        assert matchings > 6000 and 0.1 < passing / matchings < 0.9, (matchings, passing)

    def test_relabeled_copies_up_to_six_pairs(self):
        # Shuffled names and sides; names like v10 < v9 test the name order.
        rng = random.Random(23)
        unmixed = 0
        for _ in range(300):
            d = rng.randint(2, 6)
            extra = {(i, j) for i in range(d) for j in range(d)
                     if i != j and rng.random() < 0.3}
            if rng.random() < 0.5:  # close it up to a preorder, so unmixed
                for k, i, j in itertools.product(range(d), repeat=3):
                    if (i, k) in extra and (k, j) in extra and i != j:
                        extra.add((i, j))
            unmixed += assert_matches_oracle(
                relabeled_copy(diagonal_graph(d, extra), rng))
        assert unmixed > 100

    @given(st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=200)
    def test_unmixed_matches_oracle_purity_d3(self, mask):
        # All graphs on 3 matched pairs plus optional off-diagonal edges.
        optional = [(i, j) for i in range(3) for j in range(3) if i != j]
        edges = {(f"x{i}", f"y{i}") for i in range(3)}
        edges |= {(f"x{i}", f"y{j}") for bit, (i, j) in enumerate(optional)
                  if mask >> bit & 1}
        g = BipartiteGraph.of([f"x{i}" for i in range(3)],
                              [f"y{i}" for i in range(3)], edges)
        assert is_unmixed(g) == is_pure(independence_complex(g))

    def test_large_poset_expansion(self):
        # A random poset on 60 points blown up to over 300 matched pairs.
        rng = random.Random(31)
        n = 60
        below = {(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.1}
        for k, i, j in itertools.product(range(n), repeat=3):
            if (i, k) in below and (k, j) in below:
                below.add((i, j))
        mult = tuple(rng.randint(1, 9) for _ in range(n))
        e = Expansion(diagonal_graph(n, below), mult)
        assert sum(mult) >= 300
        g = relabeled_copy(expand(e), rng)
        verdict = classify(g)
        assert verdict.t_sharp == predicted_codim(e)
        assert verdict.block_sizes == tuple(sorted(mult))
        # A mixed component makes the union mixed; an exhaustive search
        # would walk every perfect matching of g before saying so.
        assert not classify(disjoint_union(g, parse_graph(SIX_CYCLE))).unmixed


def sparse_document(n: int, fence: bool) -> str:
    """A matching on n pairs x_iy_i or, with `fence`, the fence poset graph: x_iy_{i+1} for even i, x_{i+1}y_i for odd i too."""
    edges = [f"x{i}-y{i}" for i in range(n)]
    if fence:
        edges += [f"x{i}-y{i + 1}" for i in range(0, n - 1, 2)]
        edges += [f"x{i + 1}-y{i}" for i in range(1, n - 1, 2)]
    return (f"L: {' '.join(f'x{i}' for i in range(n))}\n"
            f"R: {' '.join(f'y{i}' for i in range(n))}\nE: {' '.join(edges)}\n")


class TestSparseCost:
    @pytest.mark.parametrize("fence", [False, True])
    def test_one_mask_per_vertex(self, fence):
        # A mask is as wide as its highest bit, so on n pairs whose vertex
        # i sees positions near i the masks hold about n^2 bits: vertex i
        # of each side is an int of i + 1 bits or so, which CPython stores
        # in 24 bytes and a 4-byte digit per 30 bits.  Parsing and
        # classifying must stay under those bytes plus 1,500 a pair for the
        # document's names, edges and blocks (7.9 and 8.7 MB measured,
        # against 11.1 MB): a table of each vertex's own bit kept beside the
        # masks passes it on the fence.
        n = 5000
        doc = sparse_document(n, fence)
        masks = 2 * sum(24 + 4 * (i // 30 + 1) for i in range(n + 1))
        tracemalloc.start()
        try:
            data = classification_json(parse_graph(doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (data["unmixed"], data["d"], data["cohen_macaulay"]) == (True, n, True)
        assert sorted(data["macaulay_order"]) == list(range(1, n + 1))
        assert peak < masks + 1500 * n, (peak, masks)


class TestCrossBlocks:
    def test_complete_graph_is_one_block(self):
        g = complete(4)
        po = find_pure_order(g)
        bd = cross_blocks(g, po)
        assert bd.blocks == (frozenset({1, 2, 3, 4}),)

    def test_fig1_blocks(self):
        g = parse_graph(FIG1)
        bd = cross_blocks(g, find_pure_order(g))
        assert bd.blocks == (frozenset({1}), frozenset({2, 3, 4}))
        assert bd.sizes == (1, 3)

    def test_cross_free_graph_has_singletons(self):
        g = parse_graph(PATH)
        bd = cross_blocks(g, find_pure_order(g))
        assert bd.sizes == (1, 1)

    def test_blocks_span_complete_subgraphs_maximally(self):
        g = parse_graph(FIG1)
        po = find_pure_order(g)
        bd = cross_blocks(g, po)
        xs, ys = po.lefts, po.rights
        for block in bd.blocks:
            ids = sorted(i - 1 for i in block)
            inside = sum((xs[i], ys[j]) in g.edges for i in ids for j in ids)
            assert inside == len(ids) ** 2
            for other in range(len(po.pairs)):
                if other + 1 in block:
                    continue
                both_ways = all(
                    (xs[i], ys[other]) in g.edges and (xs[other], ys[i]) in g.edges
                    for i in ids)
                assert not both_ways

    def test_blocks_are_the_cross_closure(self):
        # Union-find over every crossed pair, then every block pairwise
        # crossed.  Each order is also taken with its pairs shuffled, which
        # keeps it pure and lists the blocks' smallest indices in another order.
        from cmtgraphs import PureOrder
        rng = random.Random(23)
        count = 0
        for g, found in unmixed_pool():
            shuffled = PureOrder(tuple(rng.sample(found.pairs, len(found.pairs))))
            for po in (found, shuffled):
                d = len(po.pairs)
                parent = list(range(d))

                def root(i):
                    while parent[i] != i:
                        i = parent[i]
                    return i

                for i, j in itertools.combinations(range(d), 2):
                    if crossed(g, po, i, j):
                        parent[root(i)] = root(j)
                classes = {}
                for i in range(d):
                    classes.setdefault(root(i), set()).add(i + 1)
                closure = tuple(sorted(map(frozenset, classes.values()), key=min))
                assert cross_blocks(g, po).blocks == closure, g
                for block in closure:
                    for a, b in itertools.combinations(sorted(block), 2):
                        assert crossed(g, po, a - 1, b - 1), (g, block)
            count += 1
        assert count > 389

    def test_contract_base_is_cross_free_with_uniform_adjacency(self):
        for g, po in unmixed_pool():
            xs, ys = po.lefts, po.rights
            for a, b in itertools.permutations(cross_blocks(g, po).blocks, 2):
                linked = {(xs[i - 1], ys[j - 1]) in g.edges for i in a for j in b}
                assert len(linked) == 1, (g, a, b)
            base = contract(g).base
            for i, j in itertools.combinations(range(len(base.left)), 2):
                assert not (base.has_edge(base.left[i], base.right[j])
                            and base.has_edge(base.left[j], base.right[i])), g

    def test_rejects_non_order(self):
        from cmtgraphs import PureOrder
        g = complete(2)
        with pytest.raises(ValueError, match="not a pure order"):
            cross_blocks(g, PureOrder((("x1", "y1"),)))


class TestDeletion:
    def test_k22_leaves_one_vertex(self):
        g = delete_closed_neighborhood(complete(2), "x1")
        assert g.left == ("x2",)
        assert g.right == ()
        assert not g.edges

    def test_single_edge_leaves_nothing(self):
        g = delete_closed_neighborhood(graph("x1", "y1", "x1-y1"), "x1")
        assert g.vertices == ()

    def test_fig1_hub_deletion(self):
        g = delete_closed_neighborhood(parse_graph(FIG1), "x1")
        assert g.left == ("x21", "x22", "x23")
        assert g.right == ()
        assert not g.edges

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            delete_closed_neighborhood(complete(2), "z")

    def test_deletion_matches_vertex_link(self):
        # Ind(G minus the closed neighborhood) must be the link of the vertex.
        rng = random.Random(3)
        for _ in range(120):
            g = random_bipartite(rng, max_side=3)
            ind = independence_complex(g)
            for v in g.vertices:
                sub = independence_complex(delete_closed_neighborhood(g, v))
                lk = link(ind, {v})
                assert sub.facets == lk.facets


class TestDerivedGraphs:
    # Graphs built from checked graphs skip the constructor's checks; each
    # must be the graph the constructor builds from the same parts.
    @staticmethod
    def assert_as_constructed(g):
        built = BipartiteGraph.of(g.left, g.right, g.edges)
        assert g == built and hash(g) == hash(built), g
        assert (type(g.left), type(g.right), type(g.edges)) == (tuple, tuple, frozenset), g
        assert g._side_masks == built._side_masks, g
        assert_former_neighbours(g, g)

    def test_deleted_closed_neighbourhoods(self):
        rng = random.Random(13)
        for _ in range(150):
            g = random_bipartite(rng, max_side=4)
            for v in g.vertices:
                self.assert_as_constructed(delete_closed_neighborhood(g, v))

    def test_disjoint_unions(self):
        rng = random.Random(14)
        for _ in range(150):
            a, b = random_bipartite(rng), random_bipartite(rng)
            self.assert_as_constructed(disjoint_union(rename(a, "_a"), rename(b, "_b")))

    def test_contracted_bases(self):
        for g, _ in unmixed_pool():
            self.assert_as_constructed(contract(g).base)


class TestComponents:
    def test_disjoint_union_and_components(self):
        a = complete(2)
        b = complete(2, "u", "w")
        u = disjoint_union(a, b)
        assert len(connected_components(u)) == 2
        with pytest.raises(ValueError, match="shared"):
            disjoint_union(a, complete(2))

    def test_single_component(self):
        assert len(connected_components(parse_graph(PATH))) == 1

    def test_components_as_the_former_walk(self):
        # The former search over the neighbour sets, from each vertex in
        # vertex order not yet seen: the same components in the same
        # order, isolated vertices on either side included.
        def former_components(g):
            adj, seen, comps = former_adjacency(g), set(), []
            for start in g.vertices:
                if start not in seen:
                    stack, comp = [start], {start}
                    while stack:
                        for u in adj[stack.pop()]:
                            if u not in comp:
                                comp.add(u)
                                stack.append(u)
                    seen |= comp
                    comps.append(frozenset(comp))
            return tuple(comps)

        rng = random.Random(36)
        isolated_rights = 0
        for _ in range(600):
            g = random_bipartite(rng, max_side=6, edge_prob=rng.choice([0.1, 0.2, 0.4]))
            expected = former_components(g)
            assert connected_components(g) == expected, g
            assert is_connected(g) == (len(expected) == 1), g
            isolated_rights += any(not g.degree(y) for y in g.right)
        assert isolated_rights > 200, isolated_rights
