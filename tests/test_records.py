"""The value types' record semantics, shared through `mret.errors.Record`."""

import copy
import pickle

import pytest

from mret.astra import ArborescencePair, AstraReport
from mret.cnf import CnfFormula
from mret.errors import Record
from mret.graphs import Digraph, Schedule, Temporalisation
from mret.reachability import ReachabilityResult
from mret.reduction import ReductionInstance, ReductionParams
from mret.solvers import SolveResult

CLAUSES = (((0, True), (1, False), (2, True)), ((0, False), (1, True), (2, False)))

# per record class: positional arguments, the repr of the record they make,
# and arguments that its `__post_init__` refuses with the message given
# (None for a class that checks nothing)
CASES = [
    (Digraph, (2, ((0, 1), (1, 0))),
     "Digraph(node_count=2, edges=((0, 1), (1, 0)))",
     ((2, ((0, 2),)), "edge 0 endpoint out of range")),
    (Temporalisation, ((1, 2, 2),),
     "Temporalisation(times=(1, 2, 2))",
     (((1, 0),), "time label of edge 1 must be >= 1")),
    (Schedule, ((1, 0),),
     "Schedule(order=(1, 0))",
     (((0, 2),), "not a permutation")),
    (ReachabilityResult, (2, (3, 3), (2, 2), 4),
     "ReachabilityResult(node_count=2, reach_from=(3, 3), per_source_counts=(2, 2), total=4)",
     None),
    (SolveResult, ("arborescence", Schedule((1, 0)), 4, 2, (2, 2)),
     "SolveResult(method='arborescence', best_schedule=Schedule(order=(1, 0)), best_total=4, "
     "explored=2, certificate=(2, 2))",
     None),
    (ArborescencePair, (0, frozenset({0}), frozenset({1}), {0: 0, 1: 1}, {0: 0, 1: 1}),
     "ArborescencePair(root=0, out_edges=frozenset({0}), in_edges=frozenset({1}), "
     "out_depths={0: 0, 1: 1}, in_depths={0: 0, 1: 1})",
     None),
    (AstraReport, ("greedy", (2, 2), 0, 2, 1.0),
     "AstraReport(method='greedy', per_root=(2, 2), best_root=0, best_min=2, ratio=1.0)",
     None),
    (CnfFormula, (3, CLAUSES),
     "CnfFormula(variable_count=3, clauses=(((0, True), (1, False), (2, True)), "
     "((0, False), (1, True), (2, False))))",
     ((3, (CLAUSES[0][:2], CLAUSES[1])), "clause 1 has 2 literals")),
    (ReductionParams, (1, 1, 91, 5),
     "ReductionParams(n=1, m=1, K=91, M=5)",
     ((1, 0, 91, 5), "m must be at least 1")),
    (ReductionInstance,
     (Digraph(1, ()), ("b",), ReductionParams(1, 1, 1, 1), CnfFormula(3, CLAUSES),
      (3, 2, 1), ((range(0, 1),),)),
     "ReductionInstance(digraph=Digraph(node_count=1, edges=()), roles=('b',), "
     "params=ReductionParams(n=1, m=1, K=1, M=1), formula=CnfFormula(variable_count=3, "
     "clauses=(((0, True), (1, False), (2, True)), ((0, False), (1, True), (2, False)))), "
     "bounds=(3, 2, 1), "
     "phases=((range(0, 1),),))",
     None),
]


def test_every_record_class_is_covered():
    assert sorted(case[0].__name__ for case in CASES) == sorted(
        cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("mret."))


@pytest.mark.parametrize("cls, args, text, refused", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, args, text, refused, monkeypatch):
    fields = cls._fields
    record = cls(*args)
    assert tuple(getattr(record, name) for name in fields) == args
    assert repr(record) == text

    # keyword construction, and refusals of missing, extra and repeated arguments
    keywords = dict(zip(fields, args))
    assert cls(**keywords) == record
    assert cls(*args[:1], **{name: keywords[name] for name in fields[1:]}) == record
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    if refused is not None:
        bad, message = refused
        with pytest.raises(ValueError, match=message):
            cls(*bad)

    # equal records hash alike, unless a field is unhashable
    twin = cls(*args)
    assert twin == record and not twin != record and twin is not record
    if cls is ArborescencePair:  # its depth maps are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(args)

    # a record of another class with the same fields and values is not equal
    other = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    lookalike = other(*args)
    assert repr(lookalike) == text
    assert lookalike != record and record != lookalike and record != args

    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert repr(record) == text

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text

    # `__init__` looks `__post_init__` up at call time, so that it can be wrapped
    seen = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(post_init(self)))
    assert cls(*args) == record and seen == [None]


def test_a_class_level_value_is_a_default():
    result = SolveResult("exact", Schedule((0,)), 2, 1)
    assert result.certificate is None
    assert result == SolveResult("exact", Schedule((0,)), 2, 1, None)
    assert repr(result).endswith(", explored=1, certificate=None)")
