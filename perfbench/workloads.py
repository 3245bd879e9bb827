"""Seeded inputs for the benchmark, each with an answer computed here.

Nothing in this module imports `cmtgraphs`: every expected answer comes
from the raw definitions (brute-force independent sets, poset closures,
Villarreal's condition on a planted matching, orbit counts of small posets
and preorders), so a wrong answer from the program cannot hide behind the
same wrong answer here.

A workload is a list of `Command`s.  Each command is one `cmtgraphs` CLI
invocation: its argv, the graph document it reads (written to a file by
the runner; `{doc}` in the argv marks the path) and the exact `result`
object of its JSON report.  Every command must exit with code 0.

Vertex names carry a per-command prefix (`c<k>`), so no cache entry made
while answering one command can answer another, just as with separate CLI
invocations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DOC = "{doc}"


@dataclass
class Command:
    argv: list[str]
    expected_result: dict
    document: str | None = None
    label: str = ""


# ---------------------------------------------------------------- posets

def random_poset(rng: random.Random, k: int, density: float) -> set[tuple[int, int]]:
    """Reflexive order relation on range(k): a random DAG, transitively closed.

    Each pair i < j of a random linear extension is related with probability
    `density` before closure; the points are then relabelled at random.
    """
    below = [1 << i for i in range(k)]  # below[j]: bitmask of i with i <= j
    for j in range(k):
        for i in range(j):
            if rng.random() < density:
                below[j] |= below[i]
    perm = list(range(k))
    rng.shuffle(perm)
    return {(perm[i], perm[j]) for j in range(k) for i in range(k) if below[j] >> i & 1}


def _successors(rel) -> dict[int, int]:
    succ: dict[int, int] = {}
    for a, b in rel:
        succ[a] = succ.get(a, 0) | 1 << b
    return succ


def _is_transitive(rel) -> bool:
    succ = _successors(rel)
    return all(succ.get(b, 0) & ~succ[a] == 0 for a, b in rel)


# ---------------------------------------------------------------- documents

def _document(left: list[str], right: list[str], edges: list[tuple[str, str]],
              rng: random.Random) -> str:
    left, right, edges = left[:], right[:], edges[:]
    rng.shuffle(left)
    rng.shuffle(right)
    rng.shuffle(edges)
    lines = ["L: " + " ".join(left), "R: " + " ".join(right)]
    tokens = [f"{x}-{y}" for x, y in edges]
    for i in range(0, len(tokens), 12):
        lines.append("E: " + " ".join(tokens[i:i + 12]))
    return "\n".join(lines) + "\n"


def _relation_graph(prefix: str, k: int, rel) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """Graph with edge x_i y_j for every (i, j) in `rel`."""
    left = [f"{prefix}x{i}" for i in range(k)]
    right = [f"{prefix}y{i}" for i in range(k)]
    return left, right, [(left[i], right[j]) for i, j in sorted(rel)]


def _expansion_graph(prefix: str, rel, mult: list[int]):
    """Blow base pair i up to K_{m_i, m_i}; pairs i, j joined iff (i, j) in rel."""
    lefts = [[f"{prefix}x{i}_{a}" for a in range(m)] for i, m in enumerate(mult)]
    rights = [[f"{prefix}y{i}_{a}" for a in range(m)] for i, m in enumerate(mult)]
    edges = [(x, y) for i, j in sorted(rel) for x in lefts[i] for y in rights[j]]
    return (list(itertools.chain.from_iterable(lefts)),
            list(itertools.chain.from_iterable(rights)), edges)


# ---------------------------------------------------------------- complexes

def _adjacency(k: int, rel) -> list[int]:
    """Neighbour bitmasks of the relation graph: bit i is x_i, bit k + j is y_j."""
    adj = [0] * (2 * k)
    for i, j in rel:
        adj[i] |= 1 << (k + j)
        adj[k + j] |= 1 << i
    return adj


def independent_sets(k: int, rel) -> list[int]:
    """Every independent set of the relation graph on 2k vertices, as bitmasks."""
    n = 2 * k
    adj = _adjacency(k, rel)
    out: list[int] = []

    def grow(s: int, start: int) -> None:
        out.append(s)
        for v in range(start, n):
            if not adj[v] & s:
                grow(s | 1 << v, v + 1)

    grow(0, 0)
    return out


def oracle_answer(k: int, rel) -> dict:
    """Oracle report of a Cohen-Macaulay relation graph, from its face list.

    Poset graphs are Cohen-Macaulay (Herzog-Hibi), so homology sits in the
    top degree only, where the reduced Euler characteristic fixes it.
    """
    faces = independent_sets(k, rel)
    n = 2 * k
    full = (1 << n) - 1
    adj = _adjacency(k, rel)
    facets = []
    for s in faces:
        blocked = s
        for v in range(n):
            if s >> v & 1:
                blocked |= adj[v]
        if blocked == full:
            facets.append(s)
    sizes = {bin(f).count("1") for f in facets}
    if sizes != {k}:
        raise ValueError(f"poset graph with facet sizes {sorted(sizes)}")
    top = k - 1
    euler = sum((-1) ** (bin(s).count("1") - 1) for s in faces)
    betti = {str(q): 0 for q in range(-1, top + 1)}
    betti[str(top)] = (-1) ** top * euler
    return {"facet_count": len(facets), "dimension": top, "pure": True,
            "betti": betti, "cm_codim": 0}


def oracle_cost(k: int, rel) -> float:
    """Seconds the seed oracle needs on this graph, by a fitted face-count model.

    Per face H: the link's faces are the faces S containing H; a rank over
    adjacent face levels costs about the product of their sizes times the
    smaller one.  The two coefficients were fitted on a 2-core x86 CPU;
    only their ratio matters for picking inputs of like cost.
    """
    levels: dict[int, list[int]] = {}
    for s in independent_sets(k, rel):
        members = [1 << v for v in range(2 * k) if s >> v & 1]
        for r in range(len(members) + 1):
            for sub in itertools.combinations(members, r):
                row = levels.setdefault(sum(sub), [0] * (2 * k + 1))
                row[len(members) - r] += 1
    calls = 0
    rank_work = 0
    for row in levels.values():
        calls += sum(row)
        rank_work += sum(row[q - 1] * row[q] * min(row[q - 1], row[q])
                         for q in range(1, len(row)))
    return 2.0e-5 * calls + 2.6e-8 * rank_work


# ---------------------------------------------------------------- orbit counts

def _orbit_classes(n: int, relations) -> tuple[int, int]:
    """Classes of `relations` under relabelling and reversal; (all, connected)."""
    perms = list(itertools.permutations(range(n)))

    def code(rel) -> tuple:
        return min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)

    classes: dict[tuple, bool] = {}
    for rel in relations:
        key = min(code(rel), code({(b, a) for a, b in rel}))
        if key not in classes:
            classes[key] = _comparability_connected(n, rel)
    return len(classes), sum(classes.values())


def _comparability_connected(n: int, rel) -> bool:
    reach = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in range(n):
            if b not in reach and ((a, b) in rel or (b, a) in rel):
                reach.add(b)
                stack.append(b)
    return len(reach) == n


def cm_graph_classes(points: int) -> tuple[int, int]:
    """Cohen-Macaulay bipartite graphs on `points` pairs: (count, connected).

    They are the graphs of posets (Herzog-Hibi) and swapping sides reverses
    the poset, so they are the posets on `points` points up to isomorphism
    and duality, (P + SD) / 2 by Burnside.  Every poset has a natural
    labelling, so the relations within i < j cover every class.
    """
    slots = list(itertools.combinations(range(points), 2))
    posets = []
    for mask in range(1 << len(slots)):
        rel = {(i, i) for i in range(points)}
        rel.update(s for b, s in enumerate(slots) if mask >> b & 1)
        if _is_transitive(rel):
            posets.append(rel)
    return _orbit_classes(points, posets)


def unmixed_graph_classes(pairs: int) -> int:
    """Unmixed bipartite graphs on `pairs` matched pairs, up to isomorphism.

    Along a perfect matching an unmixed graph is a preorder (Villarreal's
    condition is transitivity); swapping sides reverses it.
    """
    slots = [(i, j) for i in range(pairs) for j in range(pairs) if i != j]
    preorders = []
    for mask in range(1 << len(slots)):
        rel = {(i, i) for i in range(pairs)}
        rel.update(s for b, s in enumerate(slots) if mask >> b & 1)
        if _is_transitive(rel):
            preorders.append(rel)
    return _orbit_classes(pairs, preorders)[0]


# ---------------------------------------------------------------- classification

def classify_answer(d: int, rel) -> dict:
    """`classify` result for a graph given by `rel` along its planted matching.

    Unmixed iff the planted matching satisfies Villarreal's condition (any
    perfect matching gives the same verdict).  Blocks are the classes of
    the cross relation and t_sharp = d - n_min + 1.  Cross-free graphs are
    refused: their report carries a Macaulay order not predicted here.
    """
    if not _is_transitive(rel):
        return {"unmixed": False, "d": None, "dimension": None, "block_sizes": None,
                "n_min": None, "t_sharp": None, "buchsbaum": None, "cohen_macaulay": None}
    succ = _successors(rel)
    pred: dict[int, int] = {}
    for a, b in rel:
        pred[b] = pred.get(b, 0) | 1 << a
    blocks = {succ[i] & pred[i] for i in range(d)}
    sizes = sorted(bin(b).count("1") for b in blocks)
    big = [n for n in sizes if n >= 2]
    if not big:
        raise ValueError("cross-free graph: its Macaulay order is not predicted here")
    t = d - min(big) + 1
    return {"unmixed": True, "d": d, "dimension": d - 1, "block_sizes": sizes,
            "n_min": min(big), "t_sharp": t, "buchsbaum": t <= 1, "cohen_macaulay": False}


def _expanded_relation(rel, mult: list[int]) -> set[tuple[int, int]]:
    """Relation on the expanded pairs, numbered block by block."""
    start = list(itertools.accumulate([0] + mult))
    return {(start[i] + a, start[j] + b)
            for i, j in rel for a in range(mult[i]) for b in range(mult[j])}


def _multiplicities(rng: random.Random, total: int, n_min: int) -> list[int]:
    """Random parts summing to `total` whose smallest part above 1 is `n_min`."""
    parts = [n_min]
    left = total - n_min
    while left:
        choices = [1] + list(range(n_min, left + 1))
        m = rng.choice(choices)
        parts.append(m)
        left -= m
    rng.shuffle(parts)
    return parts


# ---------------------------------------------------------------- workloads

def oracle_large(rng: random.Random) -> list[Command]:
    """Six `oracle` runs on 14-vertex poset graphs of like predicted cost.

    Every face link of a Cohen-Macaulay complex must be shown acyclic, so
    boundary-matrix rank dominates.  Posets on 7 points of density 0.5-0.7
    differ in cost by 5x; keeping only those the cost model puts in a
    narrow band holds the work per run steady across seeds.  The band holds
    13-facet graphs only: 14-facet ones, at 1.06-1.13 by the model, run
    about 12% longer, and a mix of the two moves the median command from
    seed to seed.
    """
    cmds = []
    while len(cmds) < 6:
        rel = random_poset(rng, 7, rng.uniform(0.5, 0.7))
        if not 0.95 <= oracle_cost(7, rel) <= 1.03:
            continue
        prefix = f"c{len(cmds)}"
        doc = _document(*_relation_graph(prefix, 7, rel), rng)
        cmds.append(Command(["oracle", DOC], oracle_answer(7, rel), doc, label=prefix))
    return cmds


# (total pairs, t_sharp) of every verify_blocks expansion with 10-12 vertices
# and t_sharp 2-5, cycled so each seed gets the same mix.  A 12-vertex
# command costs about three 10-vertex ones; with 10-vertex shapes at 3/11
# the median command lies well inside the 12-vertex costs, not in the gap
# between the two groups, where it would jump from seed to seed.
BLOCK_SHAPES = ((6, 2), (5, 2), (6, 3), (6, 4), (5, 3), (6, 5),
                (6, 2), (6, 3), (5, 4), (6, 4), (6, 5))


def verify_blocks(rng: random.Random) -> list[Command]:
    """120 `verify` runs on 10-12-vertex block expansions with t_sharp 2-5.

    Homology is non-zero here and the Reisner scan stops at the first bad
    link, so link and face construction outweigh rank.
    """
    cmds = []
    for k in range(120):
        total, t = BLOCK_SHAPES[k % len(BLOCK_SHAPES)]
        mult = _multiplicities(rng, total, total - t + 1)
        rel = random_poset(rng, len(mult), rng.uniform(0.3, 0.7))
        prefix = f"c{k}"
        doc = _document(*_expansion_graph(prefix, rel, mult), rng)
        expected = {"agree": True, "structural_t_sharp": t, "oracle_cm_codim": t,
                    "oracle_pure": True, "mismatches": []}
        cmds.append(Command(["verify", DOC], expected, doc, label=prefix))
    return cmds


def perfect_matchings(d: int, rel) -> int:
    """Perfect matchings of the relation graph: the permanent, by Ryser's formula."""
    rows = [sum(1 << j for j in range(d) if (i, j) in rel) for i in range(d)]
    total = 0
    for cols in range(1, 1 << d):
        prod = 1
        for row in rows:
            prod *= bin(row & cols).count("1")
            if not prod:
                break
        total += (-1) ** (d - bin(cols).count("1")) * prod
    return total


def _dense_graph(rng: random.Random, d: int, p: float) -> set[tuple[int, int]]:
    """Diagonal matching plus each other edge with probability p.

    Cohen-Macaulay draws (transitive and cross-free) are redrawn, because
    `classify_answer` does not predict their Macaulay order.
    """
    while True:
        rel = {(i, i) for i in range(d)}
        rel.update((i, j) for i in range(d) for j in range(d)
                   if i != j and rng.random() < p)
        if not _is_transitive(rel) or any(i != j and (j, i) in rel for i, j in rel):
            return rel


def classify_mix(rng: random.Random) -> list[Command]:
    """120 `classify` runs: 96 dense 8-pair graphs, 24 large poset expansions.

    Dense graphs (planted matching plus each other edge with probability
    0.75) are almost never unmixed, so the pure-order search backtracks
    over every perfect matching.  Only graphs with 4000-6000 perfect
    matchings (the middle fifth or so) are kept, so the search work per
    run holds steady across seeds.  The expansions of 40-point posets are
    unmixed and cycle through 65-80 pairs, so the cubic transitivity checks
    dominate.
    """
    cmds = []
    for k in range(120):
        prefix = f"c{k}"
        if k % 5:
            d = 8
            rel = _dense_graph(rng, d, 0.75)
            while not 4000 <= perfect_matchings(d, rel) <= 6000:
                rel = _dense_graph(rng, d, 0.75)
            left, right, edges = _relation_graph(prefix, d, rel)
        else:
            d = 65 + (k // 5) % 16
            mult = [1] * 40
            while sum(mult) < d:
                i = rng.randrange(40)
                mult[i] = min(mult[i] + 1, 3)
            base = random_poset(rng, 40, 0.06)
            rel = _expanded_relation(base, mult)
            left, right, edges = _expansion_graph(prefix, base, mult)
        cmds.append(Command(["classify", DOC], classify_answer(d, rel),
                            _document(left, right, edges, rng), label=prefix))
    return cmds


def enumerate_pair(rng: random.Random) -> list[Command]:
    """`enumerate --cm 4` then `verify --d 4`; the seed changes nothing here.

    Canonical forms dominate.  `enumerate --cmt 5` is left out: it reruns
    `enumerate --cm 4` internally and would double the run.
    """
    count, connected = cm_graph_classes(5)
    instances = unmixed_graph_classes(4)
    return [
        Command(["enumerate", "--cm", "4"],
                {"dimension_or_t": {"dimension": 4}, "count": count,
                 "connected_count": connected, "files": []}, label="cm4"),
        Command(["verify", "--d", "4"],
                {"d": 4, "instances": instances, "disagreements": 0, "counterexamples": []},
                label="d4"),
    ]


GENERATORS = {
    "oracle_large": oracle_large,
    "verify_blocks": verify_blocks,
    "classify": classify_mix,
    "enumerate": enumerate_pair,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of `workload` for `seed`; one seed, one list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
