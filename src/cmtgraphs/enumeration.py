"""Exhaustive generation of example families, up to isomorphism.

Isomorphism here means any vertex bijection that maps edges onto edges and
either preserves the two sides or swaps them wholesale.  `canonical_form`
codes each component by the least sorted column-mask tuple over the
arrangements of one side's neighbourhood rows, found by a branch-and-bound
search over the distinct arrangements: a lower bound of every code below
a partial arrangement cuts the branches that cannot beat the best code
found, so the search returns the code the full walk would.

Three generators are provided.  `enumerate_cm` lists the Cohen-Macaulay
bipartite graphs of a given dimension by walking the reflexive transitive
relations whose related pairs all have i <= j (each one is the edge
pattern of a cross-free graph, and relabelled along a linear extension
every Cohen-Macaulay bipartite graph arises that way).
`enumerate_unmixed` lists every unmixed graph on d matched pairs by walking
the reflexive transitive relations (preorders); it is the universe the
oracle cross-checks run over.  Both walks make their relations one point
at a time (`_relations`): the new point goes above a down-closed set of
the earlier points and, for preorders, below an up-closed set lying above
all of it, which is exactly what keeps the relation transitive, so each
relation is made once and none is filtered out.  The walk keys each
relation as it grows it: an int over a fixed order of the pairs, to
which each new point adds the bits of its new pairs, read from tables
built once per walk.  Both label each class once: the first member met
lists the class's orbit, every relabelling of the relation and of its
dual, and later members are found in it by their keys and skipped; only
the orbit's keys that the walk can yield are kept for that.  The orbit
is one OR of 64-bit lanes, one lane per relabelling, packed once per
call into one int per pair.  The least key in the orbit, the least
labelling, names the class, whichever member was met first; the graph of
that labelling is kept, and the classes come out in increasing order of
it, so neither walk calls `canonical_form`.  Both refuse more than
`MAX_PAIRS` matched pairs before any walk: dimension 5 and d = 6 are the
largest they answer.
`enumerate_sharp_cmt` builds the graphs of sharp codimension exactly t as
block expansions of Cohen-Macaulay bases and groups them into families: a
base of dimension t-1 with a single blown-up pair works for every block
size, so that family is infinite and is reported once, with the size-2
and size-3 instances as representatives.  Its instances reach
max(t + 2, 2t - 2) vertices a side, so t stops at 5, where they would
pass `MAX_SIDE`, which `canonical_form` refuses.

The generators are structural only: codimensions come from the block
formula `predicted_codim` applies, and no instance is classified again or
meets the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
from collections.abc import Sequence
from typing import NamedTuple

from .bigraph import BipartiteGraph, _components, _positions, is_connected, to_document
from .construct import _blow_up, _sharp_codim

MAX_SIDE = 8
MAX_PAIRS = 6


class CanonicalForm(NamedTuple):
    code: tuple


def _component_code(rows: list[int], columns: list[int]) -> tuple:
    """The least sorted column-mask tuple over the arrangements of `rows`, by branch and bound.

    Each row is a vertex's neighbour mask and each column one bit of it.
    With row i at bit i, a column's mask holds the bits of the rows that
    contain it.  Swapping two equal rows (twins) changes no column mask, so
    every permutation of the row vertices has the masks of the arrangement
    it lays out, and the least over all permutations is the least over the
    distinct arrangements.  Those are laid out one position at a time, each
    position taking one of the twin classes not yet used up.

    A node with rows at positions 0..i-1 gives each column c the bound
    mask_c + ((1 << r_c) - 1) << i, where r_c counts the unplaced rows
    holding c.  Those rows take r_c distinct positions, all at least i, so
    they add at least 2^i + ... + 2^(i + r_c - 1) to the mask: every
    column's final mask is at least its bound.  If b_c <= f_c for every
    column, the k-th least b is at most the k-th least f for every k, so
    the sorted bounds are at most the sorted final masks elementwise, and
    hence lexicographically: the node's sorted bound is a lower bound of
    the code of every leaf below it.  At a leaf r_c = 0 and the bound is
    the code itself.  A node's children are tried in ascending order of
    their sorted bounds, and the first child whose bound is not below the
    best code found so far ends the node: it and every later child can
    only give codes at least that best, and only the least code is asked
    for, so cutting on a tie loses nothing.  A leaf is entered only when
    its bound, its code, is below the best so far, so it becomes the best.

    The bounds are kept as they are, not as masks and counts: the bound's
    bits below i are the mask, and the r_c bits from i up are the unplaced
    rows.  Placing a row at position i leaves the bound of a column it
    holds as it is (bit i moves from the unplaced run to the mask, and the
    run now starts at i + 1), and moves the run of any other column up one
    bit, which adds the run to the bound: b + (b & (-1 << i)).
    """
    distinct = list(dict.fromkeys(rows))
    unplaced = [rows.count(row) for row in distinct]
    outside = [[not row & y for y in columns] for row in distinct]
    best = None

    def place(i: int, bounds: list[int], key: list[int]) -> None:
        nonlocal best
        if i == len(rows):
            best = key
            return
        high = -1 << i
        children = []
        for k, n in enumerate(unplaced):
            if n:
                grown = [b + (b & high) if out else b for b, out in zip(bounds, outside[k])]
                children.append((sorted(grown), k, grown))
        children.sort()
        for child_key, k, grown in children:
            if best is not None and child_key >= best:
                return
            unplaced[k] -= 1
            place(i + 1, grown, child_key)
            unplaced[k] += 1

    start = [(1 << sum(bool(row & y) for row in rows)) - 1 for y in columns]
    place(0, start, sorted(start))
    return (len(rows), len(columns), tuple(best))


def canonical_form(g: BipartiteGraph) -> CanonicalForm:
    """Total-order key, equal for two graphs exactly when they are isomorphic.

    Each component is coded with its lefts as rows and again with its
    rights as rows (`_component_code`), and the key is the lesser of the
    two sorted tuples of component codes.
    """
    if len(g.left) > MAX_SIDE or len(g.right) > MAX_SIDE:
        raise ValueError(f"side size guard exceeded ({MAX_SIDE} vertices per side)")
    lmasks, rmasks = g._side_masks
    sides = [(_positions(lefts), _positions(rights)) for lefts, rights in _components(g)]
    straight = sorted(_component_code([lmasks[i] for i in xs], [1 << j for j in ys])
                      for xs, ys in sides)
    swapped = sorted(_component_code([rmasks[j] for j in ys], [1 << i for i in xs])
                     for xs, ys in sides)
    return CanonicalForm(min(tuple(straight), tuple(swapped)))


def _index_graph(d: int, relation: set[tuple[int, int]]) -> BipartiteGraph:
    """The graph with edge x_{i+1}y_{j+1} for each (i, j) in `relation` on range(d).

    Built with no check: the names x1..xd and y1..yd are distinct and
    well formed, and every edge runs from an x to a y.
    """
    return BipartiteGraph._trusted(
        tuple(f"x{i + 1}" for i in range(d)),
        tuple(f"y{i + 1}" for i in range(d)),
        frozenset((f"x{i + 1}", f"y{j + 1}") for i, j in relation),
    )


def _unions(masks: Sequence[int]) -> list[int]:
    """`unions[s]`, the union of `masks[a]` over the points a of the set s, for every s.

    Taking the lowest point `low` out of a non-empty s leaves a smaller
    int, whose entry is already the union over the rest of s, so one OR
    adds the lowest point's mask: by induction on s every entry is its
    union, the empty set's being 0.
    """
    unions = [0] * (1 << len(masks))
    for s in range(1, len(unions)):
        low = s & -s
        unions[s] = unions[s ^ low] | masks[low.bit_length() - 1]
    return unions


def _closed_sets(masks: tuple[int, ...]) -> list[int]:
    """The sets s of points that hold `masks[a]` for each of their points a, in increasing order.

    Each `masks[a]` holds a itself, so the union of the masks over s
    (`_unions`) contains s, and s holds every one of them exactly when
    that union is no larger than s: when it equals s.
    """
    return [s for s, union in enumerate(_unions(masks)) if union == s]


def _relations(d: int, bit: dict[tuple[int, int], int], upward: bool) -> list[int]:
    """Each reflexive transitive relation on range(d), d >= 1, once, as its key.

    `bit` gives each off-diagonal pair its own bit, and a relation's key
    is the OR of the bits of its pairs; the diagonal, in every relation,
    has none.  With `upward`, only the relations whose pairs (i, j) all
    have i < j.

    A relation is grown one point at a time, as bitmasks: `filters[a]`
    holds the points b with a R b, a included.  Point k is put above a set
    D of the earlier points and below a set U of them:
    R' = R + {(k, k)} + D x {k} + {k} x U.  Any relation R' on range(k + 1)
    is made this way from its restriction R to range(k), D the points
    below k and U those above it, and from no other R, D and U, since all
    three are read back off R'.  So the walk makes each relation once, as
    long as it keeps exactly the transitive ones.  Given a transitive R,
    R' is transitive exactly when D is down-closed, U is up-closed and
    every point of D lies below every point of U in R.  Take (a, b) and
    (b, c) in R', which need (a, c) in R'.  If none of a, b, c is k, R has
    it.  If b = k alone, a is in D and c in U, so it is D x U in R.  If
    a = k alone, b is in U and b R c, so c must be in U: U up-closed.  If
    c = k alone, a R b and b is in D, so a must be in D: D down-closed.
    If two of them are k, (a, c) is (k, k) or one of the two pairs given.
    When a condition fails, its case gives a triple with (a, c) missing
    from R', so the conditions are exactly transitivity through k, and
    every relation made is transitive with no check after.  D is
    down-closed when it holds `ideals[b]`, the points below b, for each
    of its points b, and U is up-closed when it holds `filters[b]` for
    each of its points b (`_closed_sets`).  For `upward`, k is the
    largest point so far, so U is empty and only D is chosen: each new
    pair (a, k) has a < k.

    The key grows with the relation.  R' adds to R the pair (k, k), which
    has no bit, and the pairs of D x {k} and {k} x U, none of them in R,
    so the key of R' is that of R with the bits of D x {k} and of
    {k} x U set.  `below[k][D]` and `above[k][U]` hold those bits for
    every subset of range(k) (`_unions` of the bits of (a, k) and of
    (k, a) over a < k).  At the last point, k = d - 1, the keys are
    appended as made to one list, which the walk returns, with no filters
    built for them: no key is handed up through the recursion.
    """
    below = [_unions([bit[a, k] for a in range(k)]) for k in range(d)]
    above = [_unions([bit[k, a] for a in range(k)]) for k in range(d)]

    keys: list[int] = []

    def grow(filters: tuple[int, ...], key: int) -> None:
        k = len(filters)
        ideals = tuple(sum(1 << a for a, f in enumerate(filters) if f >> b & 1) for b in range(k))
        ups = [0] if upward else _closed_sets(filters)
        for down in _closed_sets(ideals):
            common = (1 << k) - 1  # the points above every point of D
            for a in range(k):
                if down >> a & 1:
                    common &= filters[a]
            fits = [up for up in ups if not up & ~common]
            grown = key | below[k][down]
            if k == d - 1:
                keys.extend([grown | above[k][up] for up in fits])
            else:
                raised = tuple(f | 1 << k if down >> a & 1 else f for a, f in enumerate(filters))
                for up in fits:
                    grow(raised + (up | 1 << k,), grown | above[k][up])

    grow((), 0)
    return keys


def _lanes(d: int, bit: dict[tuple[int, int], int]) -> tuple[list[int], int]:
    """`_orbit`'s table: for each pair, its bit under every relabelling and its dual's.

    `bit` gives the off-diagonal pairs of range(d) the bits 1 << n for
    n < len(bit) <= 64.  The n-th int of `lanes` belongs to the pair
    (i, j) with the bit 1 << n and is made of 2 * d! lanes of 64 bits,
    packed as an `array('Q')` in the machine's byte order, `width` bytes
    in all: for the m-th permutation s of range(d), lane m holds the bit
    of the image (s(i), s(j)) and lane d! + m that of (s(j), s(i)).
    `array` is imported here, so only the commands that enumerate load it.
    """
    from array import array

    assert len(bit) <= 64  # each key fits one lane
    perms = list(itertools.permutations(range(d)))
    images = [[s[i] for s in perms] for i in range(d)]
    lanes = [int.from_bytes(array("Q", map(bit.__getitem__,
                                           zip(images[i] + images[j], images[j] + images[i]))),
                            sys.byteorder)
             for i, j in sorted(bit, key=bit.__getitem__)]
    return lanes, 2 * len(perms) * array("Q").itemsize


def _orbit(key: int, lanes: list[int], width: int) -> set[int]:
    """Every relabelling of a relation and of its dual, keyed as `_relations` keys them.

    `key` is the relation's key, and `lanes` and `width` are `_lanes` of
    the same bits.  A permutation s sends distinct off-diagonal pairs to
    distinct off-diagonal pairs, each with a bit of its own, so the OR of
    the lanes of the relation's pairs holds in lane m the OR of the bits
    of their images, the key of the relation relabelled by s, and in lane
    d! + m the key of its dual relabelled by s.  Each key is below
    2^len(bit) <= 2^64, so it fits its lane, and OR acts bit by bit, so
    no lane spills into another: the lanes, unpacked, are exactly the
    relabellings' keys, read back as the same unsigned 64-bit items.

    The relation is reflexive, and its index graph is unmixed with the
    diagonal as a pure order; two such relations have the same orbit
    exactly when their index graphs are isomorphic, and otherwise
    disjoint ones.  A relabelling is a side-preserving isomorphism and the
    dual is the side swap, so a shared member means isomorphic graphs.
    Conversely, take an isomorphism that keeps the sides, sending x_i to
    x_s(i) and y_i to y_u(i).  The image of the diagonal is a perfect
    matching, and a perfect matching sends each block's lefts onto that
    block's rights (`find_pure_order`), so s(i) and u(i) lie in one block.
    Pairs in one block have equal neighbourhoods on both sides
    (`neighbourhood_blocks`), so x_s(i)y_u(j) is an edge exactly when
    x_s(i)y_s(j) is: the second relation is the first relabelled by s.
    An isomorphism that swaps the sides does the same to the dual.  Both
    relations thus have the same relabellings, up to duality: one orbit.
    """
    acc = 0
    while key:
        low = key & -key
        acc |= lanes[low.bit_length() - 1]
        key ^= low
    return set(memoryview(acc.to_bytes(width, sys.byteorder)).cast("Q"))


def _classes(d: int, order: list[tuple[int, int]], upward: bool) -> list[BipartiteGraph]:
    """One index graph per class of `_relations(d, bit, upward)`, by increasing least labelling.

    Each pair gets the bit that makes a relation's key its int over
    `order`, with `order[0]` as its most significant bit, so keys sort as
    the indicator vectors over `order` do.  `_lanes` packs the bits for
    `_orbit` once per call.  The first member of a class met puts the
    class's whole `_orbit` into `seen`, and the least key there, its least
    labelling, records the class.  Every later member is in `seen` as it
    stands and is skipped, so only the first member's pairs are read.  So
    each class is labelled once, and its graph is built from that least
    vector.

    Only keys the walk can yield go into `seen`.  With `upward`, `down`
    holds the bits of the pairs (i, j) with i > j; otherwise it is 0 and
    the whole orbit goes into `seen` in one C-level update, with no
    filter.  `_relations` with `upward` makes only relations
    whose pairs all have i < j, so no key it yields has a bit of `down`:
    a key of the orbit that has one is never looked up, and leaving it out
    of `seen` changes no lookup, so the same members are skipped.  The
    least key is still taken over the whole orbit, so the class is named
    as before.  `seen` then holds, per class, the labellings of the poset
    and of its dual with every pair i < j, 4,824 keys for the 184 classes
    on 6 points in all, in place of 2 * 6! = 1,440 keys per class.

    Nothing kept depends on the order the relations come in.  The orbit
    is the same set from whichever member of the class is met first, so
    its least key is too, and every class with a member among the
    relations is met.  Distinct classes have non-isomorphic graphs, so
    disjoint orbits (`_orbit`), and their least keys differ: sorted, the
    keys fix the order of the classes, with no `canonical_form` call.
    The graph kept is therefore the one a first-come dedupe keeps on any
    walk that meets relations in increasing order of their vectors over
    `order` and keeps every relabelling of a kept relation and of its
    dual: the first member of a class it meets has the least vector, and
    it meets the classes in the order returned.

    No report shows this order.  `enumerate --cm` reports counts and the
    sorted names of its documents, and each document holds the graph of
    the least labelling whatever the list's order.  `enumerate --cmt`
    (`enumerate_sharp_cmt`) sorts its families by their own canonical
    forms, and a family's base and vector do not depend on the order of
    the bases: isomorphic blow-ups contract (`construct.contract`) to
    isomorphic bases, and each base class is listed once, so every family is met on one base only,
    and its vector is the first of that base's candidates to give it.
    `verify --d` shows the order only in its counterexamples, which
    `cli` sorts by canonical form itself, only when there are any.
    """
    bit = {p: 1 << n for n, p in enumerate(reversed(order))}
    down = sum(bit[i, j] for i, j in order if i > j) if upward else 0
    lanes, width = _lanes(d, bit)
    seen: set[int] = set()
    codes = []
    for key in _relations(d, bit, upward):
        if key not in seen:
            orbit = _orbit(key, lanes, width)
            seen.update((k for k in orbit if not k & down) if down else orbit)
            codes.append(min(orbit))
    diagonal = {(i, i) for i in range(d)}
    return [_index_graph(d, diagonal | {p for p in order if code & bit[p]})
            for code in sorted(codes)]


def enumerate_cm(dimension: int) -> list[BipartiteGraph]:
    """All Cohen-Macaulay bipartite graphs of the given dimension, deduplicated.

    The graph on d matched pairs built from a reflexive antisymmetric
    transitive relation (edge x_iy_j for every related i, j) is cross-free,
    and conversely a Macaulay reindexing turns any Cohen-Macaulay bipartite
    graph into such a relation with every related pair i <= j, so the
    transitive relations on the pairs i < j (`_relations` with `upward`)
    meet every class.  The key's order lists (j, i) then (i, j) for each
    slot i < j, so on antisymmetric relations its vectors rise with
    none < (i, j) < (j, i) per slot, taken lexicographically: the walk over
    all antisymmetric transitive relations in that order meets each class
    first at its least vector, the one `_classes` keeps.  The classes come
    in the order that walk meets them, by increasing least vector.
    Dimensions past `MAX_PAIRS` - 1 are refused before any walk.
    """
    d = dimension + 1
    if not 1 <= d <= MAX_PAIRS:
        raise ValueError(f"dimension must be between 0 and {MAX_PAIRS - 1}")
    order = [p for i, j in itertools.combinations(range(d), 2) for p in ((j, i), (i, j))]
    return _classes(d, order, upward=True)


def enumerate_unmixed(d: int) -> list[BipartiteGraph]:
    """Every unmixed bipartite graph on d matched pairs, no isolated vertices.

    Any such graph contains a perfect matching, so up to relabelling it is
    the index graph of a reflexive relation R: the diagonal x_iy_i and one
    edge x_iy_j per off-diagonal pair (i, j) in R.  The walk makes exactly
    the transitive R (`_relations`), with no graph built or matching
    searched per relation.
    The diagonal is a perfect matching of R's index graph, and no vertex is
    isolated.  Villarreal's condition on that matching reads: (i, j) and
    (j, k) in R give (i, k) in R, which is transitivity.  By
    `find_pure_order`'s docstring every perfect matching of an unmixed graph
    passes, and one matching that passes proves the graph unmixed.  So the
    index graph is unmixed exactly when R is transitive: the preorders on
    range(d) give every unmixed graph on d pairs, and no other.  The key's
    order is every off-diagonal pair (i, j), row by row, and the classes
    come by increasing least labelling over it (`_classes`).  d past
    `MAX_PAIRS` is refused before any walk.
    """
    if not 1 <= d <= MAX_PAIRS:
        raise ValueError(f"d must be between 1 and {MAX_PAIRS}")
    order = [(i, j) for i in range(d) for j in range(d) if i != j]
    return _classes(d, order, upward=False)


class CmtFamily(NamedTuple):
    """One isomorphism class of sharp CM_t graphs, possibly parametric.

    A parametric family has a single blown-up pair whose size is free; its
    `graphs` are the size-2 and size-3 representatives and `multiplicities`
    records the size-2 instance.  Non-parametric families are single graphs.
    """

    base: BipartiteGraph
    multiplicities: tuple[int, ...]
    parametric: bool
    graphs: tuple[BipartiteGraph, ...]
    connected: bool


def enumerate_sharp_cmt(t: int, max_total: int | None = None) -> list[CmtFamily]:
    """All families of graphs with sharp codimension exactly t, for 2 <= t <= 5.

    Bases run over Cohen-Macaulay graphs of dimension 1 through t-1.  A
    base of dimension h <= t-2 needs at least two blown-up pairs, each of
    size at most t-h, and the multiplicity vector must predict t on the
    nose; those families are finite.  A base of dimension exactly t-1 takes
    one blown-up pair of arbitrary size, which is the parametric case.
    `max_total` drops every instance whose multiplicities sum past it (a
    family survives if any representative does).  The candidate vectors
    depend only on h, so they are listed once per base size, and a family
    is built only when its first instance's canonical form is new.

    t is refused before any work where an instance would pass `MAX_SIDE`
    vertices a side, which `canonical_form` refuses: every instance can
    meet it, each candidate's first instance here and all of them when
    `enumerate --out` names its files (`_code_digest`).  t is refused too
    where `enumerate_cm(t - 1)` would refuse the bases, past `MAX_PAIRS`.
    An instance has sum(m) vertices a side, m its vector, and the largest
    has max(t + 2, 2t - 2).  A parametric family's size-3 member has
    (t - 1) + 3 = t + 2, its size-2 member one fewer.  A finite family's
    vector has a least entry n above 1 and predicts sum(m) - n + 1 = t,
    so sum(m) = t - 1 + n; its entries are at most t - h <= t - 1, so
    sum(m) <= 2t - 2.  For t >= 3 the base on 2 points (h = 1) with both
    entries t - 1 reaches it, predicting (2t - 2) - (t - 1) + 1 = t, and
    every such base is listed.  So every instance fits exactly when
    2t - 2 <= MAX_SIDE, that is t <= floor(MAX_SIDE / 2) + 1, and
    t + 2 <= MAX_SIDE, which the first implies once MAX_SIDE >= 6.  With
    `MAX_SIDE` = 8 the largest sides for t = 2..5 are 4, 5, 6 and 8, and
    t = 6 would need 10: t runs from 2 to 5, whatever `max_total` drops.

    The blow-ups need no check, and are not classified.  The base's
    positional pairing x_i~y_i is a pure order, so `_blow_up` applies.
    The base is the index graph of a reflexive transitive relation:
    `_classes` builds it from the least labelling of a relation kept as
    transitive, and that labelling relabels the relation or its dual,
    which stay transitive.  The diagonal is then a perfect matching, and
    on it Villarreal's condition is transitivity (`enumerate_unmixed`), so
    it passes.

    The multiplicities are the blocks.  The base is cross-free.  In a
    blow-up the copies of pair i all have the same neighbourhood.  Copies
    of pairs i and j have different ones, because equal base
    neighbourhoods would put y_j next to x_i and y_i next to x_j, so i and
    j would cross.  So the blocks are the blown-up pairs, and `classify`
    would read `predicted_codim`'s value off their sizes; the bases come
    from `enumerate_cm`, so its cross check would not fire.  On a base of
    h + 1 <= t - 1 pairs the formula alone keeps the vectors described
    above.  No entry above 1 predicts 0.  One entry n above 1 predicts
    (h + n) - n + 1 = h + 1 < t.  k > t - h entries above 1 predict at
    least (h + 1 - k) + 2(k - 1) + 1 = h + k > t: the ones add h + 1 - k,
    and the k - 1 large entries other than the least add at least 2 each.

    A blow-up is connected exactly when its base is.  The diagonal edge
    x_iy_i becomes a K_{n_i,n_i}, which is connected, and a base edge
    x_iy_j joins every copy of x_i to every copy of y_j, so the copies of
    two vertices share a component exactly when the vertices do: the
    blow-up's components are the blow-ups of the base's.
    """
    top = min(MAX_PAIRS, MAX_SIDE // 2 + 1)
    if not 2 <= t <= top:
        raise ValueError(f"t must be between 2 and {top}")
    found: dict[CanonicalForm, CmtFamily] = {}
    for h in range(1, t):
        d_base = h + 1
        if h == t - 1:
            candidates = [([tuple(n if k == slot else 1 for k in range(d_base)) for n in (2, 3)],
                           True) for slot in range(d_base)]
        else:
            candidates = [([vec], False)
                          for vec in itertools.product(range(1, t - h + 1), repeat=d_base)
                          if _sharp_codim(vec) == t]
        candidates = [(kept, parametric) for vectors, parametric in candidates
                      if (kept := [v for v in vectors if max_total is None or sum(v) <= max_total])]
        for base in enumerate_cm(h):
            connected = is_connected(base)
            for vectors, parametric in candidates:
                first = _blow_up(base, vectors[0])
                code = canonical_form(first)
                if code not in found:
                    graphs = (first, *(_blow_up(base, vec) for vec in vectors[1:]))
                    found[code] = CmtFamily(base, vectors[0], parametric, graphs, connected)
    return [found[code] for code in sorted(found, key=lambda c: c.code)]


def _code_digest(g: BipartiteGraph) -> str:
    blob = repr(canonical_form(g).code).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_enumeration(out_dir: str | os.PathLike, manifest: dict,
                      graphs: list[BipartiteGraph]) -> dict:
    """Write one graph document per instance and `manifest.json`; return the manifest.

    The manifest comes from the caller, which counts what it enumerated;
    only its `files` are filled in here, with the sorted document names.
    `json` and `pathlib` are imported here, so a command that writes no
    directory loads neither.
    """
    import json
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for g in graphs:
        name = f"g_{_code_digest(g)}.graph"
        (out / name).write_text(to_document(g))
        files.append(name)
    manifest = dict(manifest, files=sorted(files))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
