"""The package's record classes: immutability, equality, hashing, ``repr``,
copies and pickles, and what importing the package loads."""

import copy
import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import wiring
from oracles import factorial_setup
from wiring import dsl
from wiring.closed import internal_hom
from wiring.laws import GeneratorConfig, LawFailure, Stack, SuiteReport
from wiring.partitions import Partition
from wiring.query import AttrRef, Condition, ConjunctiveQuery, compile_query
from wiring.recursion import fixed_point
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain

ROOT = pathlib.Path(__file__).resolve().parent.parent

D = ValueDomain("D", (0, 1))
S = Star(["a", "b"])
WD = WiringDiagram([S], Star(["a"]), ["x", "y"], {(0, "a"): "x", (0, "b"): "y"}, {"a": "x"})
TS = TypedStar(S, {"a": D, "b": D})
A = TypedStar(["a"], {"a": D})
REF = AttrRef("u", "a")
SCRIPT = dsl.parse_script(
    """
    type D = {0, 1};
    star P(a:D, b:D);
    star Z(a:D);
    rel p : P from "p.csv";
    query q = SELECT u.a FROM p u WHERE u.b = 1;
    union both = q | q;
    diagram loop(Z) -> [Z => Z] {
      cable c : D;
      solder inner1.a -> c;
      solder out.arg1.a -> c;
      solder out.ret.a -> c;
    }
    rel zr : Z from "z.csv";
    setup s = loop(zr);
    """
)
FACT = factorial_setup(3)


def _records():
    """(name, instance, repr) of every record class; the reprs are the
    texts the package has always printed."""
    hom = internal_hom([A], A)
    failure = LawFailure("law", 1, "desc")
    return [
        ("ValueDomain", D, "ValueDomain('D', 2 values)"),
        ("Star", S, "Star({a, b})"),
        ("WiringDiagram", WD, "WiringDiagram([Star({a, b})] -> Star({a}), cables=2)"),
        ("TypedStar", TS, "TypedStar({a:D, b:D})"),
        (
            "TypedWiringDiagram",
            TypedWiringDiagram(WD, {"x": D, "y": D}),
            "TypedWiringDiagram([TypedStar({a:D, b:D})] -> TypedStar({a:D}))",
        ),
        ("Relation", Relation(TS, [(0, 1), (1, 1)]), "Relation(TypedStar({a:D, b:D}), 2 tuples)"),
        ("Partition", Partition(S, [["b"], ["a"]]), "Partition(a | b)"),
        (
            "HomStar",
            hom,
            "HomStar(args=(TypedStar({a:D}),), ret=TypedStar({a:D}), "
            "star=TypedStar({arg1.a:D, ret.a:D}))",
        ),
        (
            "RecursiveSetup",
            FACT,
            "RecursiveSetup(z=TypedStar({A:N, B:N}), relation=Relation("
            "TypedStar({arg1.A:N, arg1.B:N, ret.A:N, ret.B:N}), 12 tuples))",
        ),
        (
            "FixedPointResult",
            fixed_point(FACT, "least"),
            "FixedPointResult(relation=Relation(TypedStar({A:N, B:N}), 0 tuples), "
            "pruned=(), mode='least')",
        ),
        ("AttrRef", REF, "AttrRef(alias='u', attr='a')"),
        (
            "Condition",
            Condition(REF, right=AttrRef("v", "b")),
            "Condition(left=AttrRef(alias='u', attr='a'), "
            "right=AttrRef(alias='v', attr='b'), literal=None)",
        ),
        (
            "ConjunctiveQuery",
            ConjunctiveQuery((REF,), (("p", "u"),), (Condition(REF, literal="x"),)),
            "ConjunctiveQuery(select=(AttrRef(alias='u', attr='a'),), tables=(('p', 'u'),), "
            "conditions=(Condition(left=AttrRef(alias='u', attr='a'), right=None, "
            "literal='x'),))",
        ),
        (
            "CompiledQuery",
            compile_query(SCRIPT.queries["q"], SCRIPT),
            "CompiledQuery(query=ConjunctiveQuery(select=(AttrRef(alias='u', attr='a'),), "
            "tables=(('p', 'u'),), conditions=(Condition(left=AttrRef(alias='u', attr='b'), "
            "right=None, literal=1),)), diagram=TypedWiringDiagram([TypedStar({a:D, b:D}), "
            "TypedStar({value:D})] -> TypedStar({a:D})), inputs=('p',), "
            "literal_relations=(Relation(TypedStar({value:D}), 1 tuples),))",
        ),
        (
            "RelDecl",
            SCRIPT.relations["p"],
            "RelDecl(name='p', path='p.csv', star=TypedStar({a:D, b:D}))",
        ),
        (
            "DiagramDecl",
            SCRIPT.diagrams["loop"],
            "DiagramDecl(name='loop', typed=TypedWiringDiagram([TypedStar({a:D})] -> "
            "TypedStar({arg1.a:D, ret.a:D})), hom=HomStar(args=(TypedStar({a:D}),), "
            "ret=TypedStar({a:D}), star=TypedStar({arg1.a:D, ret.a:D})))",
        ),
        ("UnionDecl", SCRIPT.unions["both"], "UnionDecl(name='both', parts=('q', 'q'))"),
        (
            "SetupDecl",
            SCRIPT.setups["s"],
            "SetupDecl(name='s', diagram_name='loop', rel_names=('zr',), z=TypedStar({a:D}))",
        ),
        (
            "GeneratorConfig",
            GeneratorConfig(seed=3, cases=7),
            "GeneratorConfig(seed=3, cases=7)",
        ),
        ("LawFailure", failure, "LawFailure(law='law', case_index=1, description='desc')"),
        (
            "SuiteReport",
            SuiteReport("n", 3, (failure,), ("s",)),
            "SuiteReport(name='n', cases=3, failures=(LawFailure(law='law', case_index=1, "
            "description='desc'),), skipped=('s',))",
        ),
        (
            "Stack",
            Stack(WD),
            "Stack(diagram=WiringDiagram([Star({a, b})] -> Star({a}), cables=2), fillers=())",
        ),
    ]


RECORDS = _records()
IDS = [name for name, _obj, _text in RECORDS]
# compared by identity, as they always were
BY_IDENTITY = {"WiringDiagram", "TypedWiringDiagram", "RecursiveSetup"}
HOLD_DIAGRAMS = {"CompiledQuery", "DiagramDecl", "Stack"}


@pytest.mark.parametrize("name, obj, text", RECORDS, ids=IDS)
def test_repr_is_unchanged(name, obj, text):
    assert type(obj).__name__ == name
    assert repr(obj) == text


@pytest.mark.parametrize("name, obj, text", RECORDS, ids=IDS)
def test_attributes_cannot_be_set_or_deleted(name, obj, text):
    attr = next(iter(vars(obj))) if hasattr(obj, "__dict__") else obj._fields[0]
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == before


@pytest.mark.parametrize("name, obj, text", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(name, obj, text):
    shallow, pickled = copy.copy(obj), pickle.loads(pickle.dumps(obj))
    for twin in (shallow, pickled):
        assert type(twin) is type(obj) and repr(twin) == text
    # a shallow copy shares the fields; a pickle copies them too, so a
    # record that holds an identity-compared diagram no longer equals it
    assert (shallow == obj) is (name not in BY_IDENTITY)
    assert (pickled == obj) is (name not in BY_IDENTITY | HOLD_DIAGRAMS)
    if shallow == obj:
        assert hash(shallow) == hash(obj)


def test_value_records_hash_their_fields():
    """Equal records hash alike, and a hash is the hash of the compared
    fields' tuple, as it always was."""
    for name, obj, _text in RECORDS:
        if hasattr(obj, "_fields"):
            assert hash(obj) == hash(tuple(obj)), name
    assert hash(D) == hash(("D", (0, 1)))
    assert D == ValueDomain("D", (0, 1)) and D != ValueDomain("E", (0, 1))
    part = Partition(S, [["a", "b"]])
    assert part == Partition(Star(["b", "a"]), [["b", "a"]])
    assert hash(part) == hash((S, (("a", "b"),)))
    assert part != Partition(S, [["a"], ["b"]])
    cfg = GeneratorConfig(seed=3)
    assert cfg == GeneratorConfig(3, 100) and hash(cfg) == hash((3, 100))
    assert cfg != GeneratorConfig(seed=4)
    assert GeneratorConfig() == GeneratorConfig(seed=0, cases=100)


def test_records_of_different_classes_differ():
    """The classes kept plain never equal a tuple of their fields, as a
    ``NamedTuple`` would."""
    assert D != ("D", (0, 1))
    assert GeneratorConfig() != (0, 100)
    assert internal_hom([A], A) != ((A,), A)
    assert WD != copy.copy(WD) and WD == WD


def test_homstar_equality_ignores_star():
    hom = internal_hom([A], A)
    other = type(hom)(hom.args, hom.ret, TS)
    assert other == hom and hash(other) == hash(hom) == hash((hom.args, hom.ret))
    assert type(hom)(hom.args, TS, hom.star) != hom


def test_generator_config_keeps_its_checks():
    with pytest.raises(wiring.ValidationError, match="cases must be nonnegative"):
        GeneratorConfig(cases=-1)
    assert GeneratorConfig(seed=-5).seed == -5


def test_cached_properties_and_tries_survive_immutability():
    twd = TypedWiringDiagram(WD, {"x": D, "y": D})
    assert twd.outer is twd.outer and "outer" in vars(twd)
    hom = internal_hom([A], A)
    assert hom.evaluation is hom.evaluation
    rel = Relation(TS, [(0, 1), (1, 1)])
    trie = rel._trie_at((0,), ())
    assert rel._trie_at((0,), ()) is trie
    assert "_tries" not in vars(copy.copy(rel))
    assert "_tries" not in vars(pickle.loads(pickle.dumps(rel)))


def _layer_modules():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({module for module, _attr, _name, _counts in spans.LAYERS})


def test_import_loads_no_dataclasses_and_every_traced_module():
    """``import wiring`` builds its classes without ``dataclasses`` and the
    stdlib modules it pulls in, and the modules the benchmark's tracer
    patches are loaded by ``import wiring.cli``.  Run without ``site``, so
    only the package's own imports count."""
    code = (
        "import json, sys\n"
        "unused = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "import wiring\n"
        "after_wiring = [m for m in unused if m in sys.modules]\n"
        "import wiring.cli\n"
        "print(json.dumps({'after_wiring': after_wiring,\n"
        "    'after_cli': [m for m in unused if m in sys.modules],\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('wiring'))}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(wiring.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    found = json.loads(out)
    assert found["after_wiring"] == [] and found["after_cli"] == []
    assert set(_layer_modules()) <= set(found["loaded"])
    assert "wiring.laws" in found["loaded"]
