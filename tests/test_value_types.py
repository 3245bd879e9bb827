"""The contract every frozen value type keeps, whatever builds it.

Equal fields give equal objects with equal hashes and one changed field
makes them unequal; fields cannot be assigned or deleted; the repr is
`Name(field=value, ...)` in field order; positional and keyword
construction agree.  The module imports no pytest, so it also runs as a
plain script (`PYTHONPATH=src python tests/test_value_types.py`).
"""

from cmtgraphs import (
    BipartiteGraph,
    BlockDecomposition,
    CanonicalForm,
    CmtClassification,
    CmtFamily,
    Expansion,
    HomologyProfile,
    MacaulayOrder,
    OracleAgreement,
    PureOrder,
    SimplicialComplex,
)

EDGE = BipartiteGraph(("x1",), ("y1",), frozenset({("x1", "y1")}))
OTHER_EDGE = BipartiteGraph(("u1",), ("v1",), frozenset({("u1", "v1")}))
ORDER = PureOrder((("x1", "y1"),))
BLOCKS = BlockDecomposition((frozenset({1}),))
VERDICT = CmtClassification(True, 1, (1,), None, 0, ORDER, BLOCKS)

# (type, field names in order, values, other values).  Replacing any one
# value by its other still builds a valid instance.
CASES = [
    (BipartiteGraph, ("left", "right", "edges"),
     (("x1",), ("y1",), frozenset({("x1", "y1")})),
     (("x1", "x2"), ("y1", "y2"), frozenset())),
    (PureOrder, ("pairs",), ((("x1", "y1"),),), ((("x2", "y2"),),)),
    (BlockDecomposition, ("blocks",), ((frozenset({1}),),), ((frozenset({1, 2}),),)),
    (CmtClassification,
     ("unmixed", "d", "block_sizes", "n_min", "t_sharp", "order", "blocks"),
     (True, 1, (1,), None, 0, ORDER, BLOCKS),
     (False, 2, (2,), 2, 1, PureOrder(()), BlockDecomposition(()))),
    (MacaulayOrder, ("order",), ((1, 2),), ((2, 1),)),
    (OracleAgreement,
     ("agree", "structural", "oracle_pure", "oracle_dim", "oracle_codim", "mismatches"),
     (True, VERDICT, True, 0, 0, ()),
     (False, CmtClassification(False), False, 1, None, ("dimension",))),
    (Expansion, ("base", "multiplicities"), (EDGE, (2,)), (OTHER_EDGE, (3,))),
    (CanonicalForm, ("code",), ((1, 2),), ((1, 3),)),
    (CmtFamily, ("base", "multiplicities", "parametric", "graphs", "connected"),
     (EDGE, (2,), True, (EDGE,), True),
     (OTHER_EDGE, (3,), False, (), False)),
    (SimplicialComplex, ("vertices", "facets"),
     (("a", "b"), frozenset({frozenset({"a"}), frozenset({"b"})})),
     (("a", "b", "c"), frozenset({frozenset({"a", "b"})}))),
    (HomologyProfile, ("betti",), ((0, 1),), ((1,),)),
]


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[case[0].__name__ for case in CASES])


def refused(action) -> bool:
    try:
        action()
    except AttributeError:
        return True
    return False


def test_value_type_contract(case):
    cls, fields, values, others = case
    obj = cls(*values)
    by_name = cls(**dict(zip(fields, values)))
    assert [getattr(obj, f) for f in fields] == list(values)
    assert obj == by_name and not obj != by_name and hash(obj) == hash(by_name)
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for i, f in enumerate(fields):
        changed = cls(*values[:i], others[i], *values[i + 1:])
        assert obj != changed and not obj == changed, f
        assert refused(lambda: setattr(obj, f, others[i])), f
        assert refused(lambda: delattr(obj, f)), f
    assert [getattr(obj, f) for f in fields] == list(values)


def test_equality_with_another_type_is_not_implemented():
    # `_Frozen.__eq__` declines, so Python falls back to identity: False.
    for cls, _, values, _ in CASES:
        if cls not in (BipartiteGraph, Expansion, SimplicialComplex):
            continue
        obj = cls(*values)
        assert obj.__eq__(values) is NotImplemented
        assert obj.__eq__(CmtClassification(False)) is NotImplemented
        assert not obj == values and obj != values
    assert not EDGE == Expansion(EDGE, (2,)) and EDGE != Expansion(EDGE, (2,))


def test_graph_from_lists_and_sets_hashes():
    # The constructor stores tuples and a frozenset of tuples, whatever
    # iterables it is given, so the graph hashes and equals its `of` build.
    built = BipartiteGraph(["a"], ["b"], {("a", "b")})
    listed = BipartiteGraph(["x1", "x2"], ["y1"], [["x1", "y1"], ["x2", "y1"]])
    assert built == BipartiteGraph.of(["a"], ["b"], [("a", "b")])
    assert hash(built) == hash(BipartiteGraph.of(["a"], ["b"], [("a", "b")]))
    assert listed == BipartiteGraph.of(("x1", "x2"), ("y1",), {("x1", "y1"), ("x2", "y1")})
    assert hash(listed) == hash(BipartiteGraph.of(("x1", "x2"), ("y1",),
                                                  {("x1", "y1"), ("x2", "y1")}))
    assert (type(built.left), type(built.right), type(built.edges)) == (tuple, tuple, frozenset)
    assert all(type(e) is tuple for e in listed.edges)


def test_classification_defaults():
    mixed = CmtClassification(unmixed=False)
    assert mixed == CmtClassification(False, None, None, None, None, None, None)
    assert (mixed.d, mixed.block_sizes, mixed.n_min, mixed.t_sharp, mixed.order,
            mixed.blocks) == (None,) * 6


if __name__ == "__main__":
    for case in CASES:
        test_value_type_contract(case)
        print("contract holds:", case[0].__name__)
    test_equality_with_another_type_is_not_implemented()
    print("contract holds: no equality with another type")
    test_graph_from_lists_and_sets_hashes()
    print("contract holds: a graph built from lists and sets hashes")
    test_classification_defaults()
    print("contract holds: CmtClassification defaults")
