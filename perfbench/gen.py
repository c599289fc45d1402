"""Seeded input generation and the independent answers the benchmark checks.

``generate(workload, seed, work)`` writes everything one run needs into the
directory ``work`` and returns the spec that ``worker.py`` reads.  The same
seed gives the same files.  Expected answers never come from ``wiring``:
query answers come from ``sqlite3`` ``SELECT DISTINCT`` over the same rows,
the factorial answer from its closed form, and ``check`` and ``dot`` answers
from counting declarations in the script text.

A spec holds one *cycle* of operations and, per cycle, a seeded order in
which to run them.  Every cycle runs the same operations, so runs stop at
cycle boundaries and keep the same mix of operation sizes whatever the
seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import sqlite3
from math import factorial

# Cycle orders are generated up front; a run that needs more reuses them.
ORDER_COUNT = 256

# ---------------------------------------------------------------------------
# values, CSV and the SQL oracle


def parse_token(token: str):
    """Cell typing of the ``.wd`` CSV dialect: ASCII integers are ints."""
    token = token.strip()
    if re.fullmatch(r"-?[0-9]+", token):
        return int(token)
    return token


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(v) for v in row) + "\n")


def read_csv(path: str) -> tuple[list[str], list[tuple]]:
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    return header, [tuple(parse_token(c) for c in line.split(",")) for line in lines[1:]]


_SELECT_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<from>.+?)(?:\s+WHERE\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _ref(text: str) -> str:
    alias, attr = text.strip().split(".")
    return f"{_quote(alias)}.{_quote(attr)}"


def parse_select(text: str) -> dict:
    """Split a ``SELECT ... FROM ... WHERE ...`` text into its parts."""
    m = _SELECT_RE.match(" ".join(text.split()))
    if m is None:
        raise ValueError(f"not a conjunctive query: {text!r}")
    select = [s.strip() for s in m.group("select").split(",")]
    tables = [tuple(t.split()) for t in m.group("from").split(",")]
    conds = []
    if m.group("where"):
        for cond in re.split(r"\s+AND\s+", m.group("where"), flags=re.IGNORECASE):
            left, right = (side.strip() for side in cond.split("="))
            conds.append((left, right))
    return {"select": select, "tables": tables, "conds": conds}


def to_sql(text: str) -> tuple[str, list]:
    """Translate a ``.wd`` query text into SQLite ``SELECT DISTINCT``."""
    q = parse_select(text)
    where, params = [], []
    for left, right in q["conds"]:
        if right.startswith("'"):
            where.append(f"{_ref(left)} = ?")
            params.append(right[1:-1])
        elif re.fullmatch(r"-?[0-9]+", right):
            where.append(f"{_ref(left)} = ?")
            params.append(int(right))
        else:
            where.append(f"{_ref(left)} = {_ref(right)}")
    sql = "SELECT DISTINCT " + ", ".join(_ref(s) for s in q["select"])
    sql += " FROM " + ", ".join(f"{_quote(p)} AS {_quote(a)}" for p, a in q["tables"])
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql, params


class SqlOracle:
    """An in-memory SQLite database holding the generated relations."""

    def __init__(self):
        self.db = sqlite3.connect(":memory:")
        self.columns: dict[str, list[str]] = {}

    def add(self, name: str, header, rows) -> None:
        self.columns[name] = list(header)
        cols = ", ".join(_quote(h) for h in header)
        self.db.execute(f"CREATE TABLE {_quote(name)} ({cols})")
        marks = ", ".join("?" for _ in header)
        self.db.executemany(f"INSERT INTO {_quote(name)} VALUES ({marks})", rows)

    def answer(self, text: str) -> list[list]:
        sql, params = to_sql(text)
        return sorted(list(r) for r in self.db.execute(sql, params))

    def edges(self, text: str) -> int:
        """Solder points of the compiled query: every FROM wire, one per
        distinct WHERE constant, and every SELECT column."""
        q = parse_select(text)
        inner = sum(len(self.columns[pred]) for pred, _alias in q["tables"])
        literals = {
            right for _left, right in q["conds"]
            if right.startswith("'") or re.fullmatch(r"-?[0-9]+", right)
        }
        return inner + len(literals) + len(q["select"])

    def close(self) -> None:
        self.db.close()


def _orders(rng: random.Random, n: int) -> list[list[int]]:
    return [rng.sample(range(n), n) for _ in range(ORDER_COUNT)]


# ---------------------------------------------------------------------------
# join: conjunctive queries over random binary relations

JOIN_DOMAIN = 300

# (shape, relation sizes).  Sizes are fixed so that the smallest-first join
# order, and hence the cost, does not depend on the seed.  In the path
# shapes the two smallest relations share no cable, so the seed's join
# order starts with a cross product.  A cycle has an odd number of
# operations, so the median falls inside one size class, not between two.
JOIN_QUERIES = [
    ("path3", (40, 160, 60)),
    ("path3", (70, 280, 100)),
    ("path4", (40, 120, 60, 160)),
    ("path4", (70, 250, 100, 300)),
    ("star3", (300, 400, 500)),
    ("star3", (500, 650, 800)),
    ("triangle", (1200, 1200, 1200)),
    ("triangle", (1800, 1800, 1800)),
    ("triangle", (2500, 2500, 2500)),
]

_JOIN_SHAPES = {
    "path3": "SELECT a.x, c.y FROM {0} a, {1} b, {2} c WHERE a.y = b.x AND b.y = c.x",
    "path4": "SELECT a.x, d.y FROM {0} a, {1} b, {2} c, {3} d "
             "WHERE a.y = b.x AND b.y = c.x AND c.y = d.x",
    "star3": "SELECT a.x, a.y, b.y, c.y FROM {0} a, {1} b, {2} c "
             "WHERE a.x = b.x AND a.x = c.x",
    "triangle": "SELECT a.x, b.x, c.x FROM {0} a, {1} b, {2} c "
                "WHERE a.y = b.x AND b.y = c.x AND c.y = a.x",
}


def _edge_relation(rng: random.Random, size: int) -> list[tuple[int, int]]:
    rows: set[tuple[int, int]] = set()
    while len(rows) < size:
        rows.add((rng.randrange(JOIN_DOMAIN), rng.randrange(JOIN_DOMAIN)))
    return sorted(rows)


def gen_join(seed: int, work: str) -> dict:
    rng = random.Random(seed)
    oracle = SqlOracle()
    lines = [
        f"type V = range 0..{JOIN_DOMAIN - 1};",
        "star E(x:V, y:V);",
    ]
    ops = []
    for qi, (shape, sizes) in enumerate(JOIN_QUERIES):
        names = []
        for ri, size in enumerate(sizes):
            name = f"q{qi}r{ri}"
            rows = _edge_relation(rng, size)
            write_csv(os.path.join(work, f"{name}.csv"), ("x", "y"), rows)
            oracle.add(name, ("x", "y"), rows)
            lines.append(f'rel {name} : E from "{name}.csv";')
            names.append(name)
        text = _JOIN_SHAPES[shape].format(*names)
        lines.append(f"query q{qi} = {text};")
        ops.append({
            "name": f"q{qi}", "label": f"q{qi}:{shape}:{'/'.join(map(str, sizes))}",
            "expected": oracle.answer(text),
        })
    oracle.close()
    with open(os.path.join(work, "join.wd"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return {"script": "join.wd", "ops": ops, "orders": _orders(rng, len(ops))}


# ---------------------------------------------------------------------------
# fixpoint: the factorial recursion of the shipped fixture at other limits

FACTORIAL_FIXTURE = os.path.join("fixtures", "factorial", "factorial.wd")
# Limits of one cycle; the seed moves each by up to FIXPOINT_JITTER.  The
# median falls in the middle of the three limits near 100, so a run holds
# about thirty samples of it.  The largest runs twice per cycle, so that a
# run holds more than ten of them and the tail falls among them.
FIXPOINT_LIMITS = (60, 80, 100, 100, 100, 180, 180)
FIXPOINT_JITTER = 1
_RANGE_RE = re.compile(r"type\s+N\s*=\s*range\s+0\s*\.\.\s*(\d+)\s*;")


def factorial_graph(limit: int) -> list[list[int]]:
    """Closed form of the greatest fixed point: ``(n, n!)`` with ``n! <= limit``."""
    pairs, n = [], 0
    while factorial(n) <= limit:
        pairs.append([n, factorial(n)])
        n += 1
    return pairs


def factorial_inputs(limit: int) -> list[list[tuple]]:
    """Decrement, multiplication and conditional over ``0..limit``, in the
    wire order of the fixture's DEC, MUL and BRANCH stars."""
    values = range(limit + 1)
    return [
        [(a, a - 1 if a > 0 else 0) for a in values],
        [(a, b, a * b) for a in values for b in values if a * b <= limit],
        [(a, c, 1 if a == 0 else c) for a in values for c in values],
    ]


def gen_fixpoint(seed: int, work: str) -> dict:
    rng = random.Random(seed)
    with open(FACTORIAL_FIXTURE, encoding="utf-8") as handle:
        text = handle.read()
    if not _RANGE_RE.search(text):
        raise ValueError(f"{FACTORIAL_FIXTURE}: no 'type N = range 0..K;' line")
    ops = []
    for i, base in enumerate(FIXPOINT_LIMITS):
        limit = base + rng.randint(-FIXPOINT_JITTER, FIXPOINT_JITTER)
        script = f"factorial{i}.wd"
        with open(os.path.join(work, script), "w", encoding="utf-8") as handle:
            handle.write(_RANGE_RE.sub(f"type N = range 0..{limit};", text))
        ops.append({
            "label": f"limit={limit}",
            "limit": limit,
            "script": script,
            "expected": factorial_graph(limit),
        })
    return {"ops": ops, "orders": _orders(rng, len(ops))}


# ---------------------------------------------------------------------------
# scripts: `wd` commands on the shipped fixtures and on generated catalogs

# (declarations of each kind) per catalog: types, stars, rels, queries.
CATALOGS = ((4, 40, 160, 120), (6, 120, 500, 400))
CATALOG_TYPE_SIZE = 40
CATALOG_ROWS = (5, 25)
CATALOG_WIRES = ("a", "b", "c", "d", "e", "f")
FIXTURES = {
    "wiki": os.path.join("fixtures", "wiki", "wiki.wd"),
    "nand": os.path.join("fixtures", "nand", "circuits.wd"),
    "factorial": FACTORIAL_FIXTURE,
}


def _script_facts(path: str) -> dict:
    """Relations, queries, diagrams and setups of a ``.wd`` file, read from
    its text without ``wiring``."""
    with open(path, encoding="utf-8") as handle:
        text = re.sub(r"#[^\n]*", "", handle.read())
    rels = dict(re.findall(r"\brel\s+(\w+)\s*:\s*\w+\s+from\s+\"([^\"]+)\"\s*;", text))
    queries = {
        name: " ".join(body.split())
        for name, body in re.findall(r"\bquery\s+(\w+)\s*=\s*(SELECT\b.*?);", text, re.S)
    }
    diagrams = {
        name: body.count("solder")
        for name, body in re.findall(r"\bdiagram\s+(\w+)\s*\(.*?\{(.*?)\}", text, re.S)
    }
    return {
        "rels": rels,
        "queries": queries,
        "diagrams": diagrams,
        "unions": len(re.findall(r"\bunion\s+\w+\s*=", text)),
        "setups": len(re.findall(r"\bsetup\s+\w+\s*=", text)),
    }


def _oracle_for(path: str, facts: dict) -> SqlOracle:
    oracle = SqlOracle()
    base = os.path.dirname(path)
    for name, rel_path in facts["rels"].items():
        header, rows = read_csv(os.path.join(base, rel_path))
        oracle.add(name, header, rows)
    return oracle


def _gen_catalog(rng: random.Random, work: str, index: int, sizes) -> str:
    """A script with many small relations over text domains and selective
    two-way queries, each restricted to one constant that occurs in its data."""
    n_types, n_stars, n_rels, n_queries = sizes
    prefix = f"c{index}"
    folder = os.path.join(work, prefix)
    os.makedirs(folder)
    types = [f"T{t}" for t in range(n_types)]
    values = {t: [f"{t.lower()}v{v}" for v in range(CATALOG_TYPE_SIZE)] for t in types}
    wire_type = dict(zip(CATALOG_WIRES, rng.sample(types * 2, len(CATALOG_WIRES))))
    lines = [f"# generated catalog {index}"]
    for t in types:
        lines.append(f"type {t} = {{{', '.join(values[t])}}};")
    stars = []
    for s in range(n_stars):
        wires = sorted(rng.sample(CATALOG_WIRES, rng.choice((2, 2, 3))))
        stars.append((f"S{s}", wires))
        lines.append(f"star S{s}({', '.join(f'{w}:{wire_type[w]}' for w in wires)});")
    rels = {}
    for r in range(n_rels):
        star, wires = rng.choice(stars)
        rows: set[tuple] = set()
        target = rng.randint(*CATALOG_ROWS)
        while len(rows) < target:
            rows.add(tuple(rng.choice(values[wire_type[w]]) for w in wires))
        name = f"r{r}"
        rel_path = f"{prefix}/{name}.csv"
        write_csv(os.path.join(work, rel_path), wires, sorted(rows))
        rels[name] = (wires, sorted(rows))
        lines.append(f'rel {name} : {star} from "{rel_path}";')
    names = sorted(rels)
    for q in range(n_queries):
        lines.append(f"query q{q} = {_catalog_query(rng, rels, names)};")
    path = os.path.join(work, f"catalog{index}.wd")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def _catalog_query(rng: random.Random, rels: dict, names: list) -> str:
    while True:
        left, right = rng.sample(names, 2)
        shared = sorted(set(rels[left][0]) & set(rels[right][0]))
        if shared:
            break
    on = rng.choice(shared)
    lw, rw = rels[left][0], rels[right][0]
    out_l = rng.choice([w for w in lw if w != on] or lw)
    out_r = rng.choice([w for w in rw if w != on] or rw)
    row = rng.choice(rels[left][1])
    filt = rng.choice([w for w in lw if w != out_l] or lw)
    value = row[lw.index(filt)]
    return (
        f"SELECT x.{out_l}, y.{out_r} FROM {left} x, {right} y "
        f"WHERE x.{on} = y.{on} AND x.{filt} = '{value}'"
    )


def gen_scripts(seed: int, work: str) -> dict:
    rng = random.Random(seed)
    os.makedirs(os.path.join(work, "out"))
    scripts = dict(FIXTURES)
    for i, sizes in enumerate(CATALOGS):
        scripts[f"catalog{i}"] = _gen_catalog(rng, work, i, sizes)
    ops: list[dict] = []

    def out_path() -> str:
        return os.path.join(work, "out", f"op{len(ops)}.csv")

    for path in scripts.values():
        facts = _script_facts(path)
        oracle = _oracle_for(path, facts)
        ops.append({
            "argv": ["check", path],
            "expect": {"kind": "check", "counts": [
                f"{len(facts['rels'])} relations", f"{len(facts['queries'])} queries",
                f"{facts['unions']} unions", f"{facts['setups']} setups",
            ]},
        })
        queries = sorted(facts["queries"])
        if queries:
            name = rng.choice(queries)
            text = facts["queries"][name]
            ops.append({
                "argv": ["eval", path, name, "--out", out_path()],
                "expect": {"kind": "eval", "script": path, "name": name,
                           "rows": oracle.answer(text)},
            })
            name = rng.choice(queries)
            ops.append({
                "argv": ["dot", path, name],
                "expect": {"kind": "dot", "name": name,
                           "edges": oracle.edges(facts["queries"][name])},
            })
            text = facts["queries"][rng.choice(queries)]
            ops.append({
                "argv": ["query", path, text],
                "expect": {"kind": "query", "rows": oracle.answer(text)},
            })
        for name, solders in sorted(facts["diagrams"].items()):
            ops.append({
                "argv": ["dot", path, name],
                "expect": {"kind": "dot", "name": name, "edges": solders},
            })
        oracle.close()
    with open(FACTORIAL_FIXTURE, encoding="utf-8") as handle:
        limit = int(_RANGE_RE.search(handle.read()).group(1))
    for mode, rows in (("gfp", factorial_graph(limit)), ("lfp", [])):
        ops.append({
            "argv": ["fixpoint", FACTORIAL_FIXTURE, "fact", "--mode", mode, "--out", out_path()],
            "expect": {"kind": "fixpoint", "script": FACTORIAL_FIXTURE, "setup": "fact",
                       "rows": rows},
        })
    for op in ops:
        op["label"] = f"{op['argv'][0]}:{os.path.basename(op['argv'][1])}"
    return {"ops": ops, "orders": _orders(rng, len(ops))}


# ---------------------------------------------------------------------------
# laws: the public law suites at seeded generator configurations

LAW_SUITES = (
    ("check_operad_laws", None),
    ("check_pushout_oracle", None),
    ("check_algebra_naturality", "rel"),
    ("check_algebra_naturality", "eq"),
    ("check_prop_witnesses", 2),
    ("check_prop_witnesses", 3),
    ("check_prop_witnesses", 4),
)
LAW_CASES = 200


def gen_laws(seed: int, work: str) -> dict:
    """Every cycle runs each suite once, at configurations seeded anew per
    cycle, so a run samples many seeds of each suite."""
    rng = random.Random(seed)
    ops, orders = [], []
    for _cycle in range(ORDER_COUNT):
        first = len(ops)
        for suite, arg in LAW_SUITES:
            ops.append({
                "label": suite if arg is None else f"{suite}:{arg}", "suite": suite,
                "arg": arg, "seed": rng.randrange(2**31), "cases": LAW_CASES,
            })
        orders.append(rng.sample(range(first, len(ops)), len(LAW_SUITES)))
    return {"ops": ops, "orders": orders}


GENERATORS = {"join": gen_join, "fixpoint": gen_fixpoint, "scripts": gen_scripts, "laws": gen_laws}


def generate(workload: str, seed: int, work: str) -> dict:
    spec = GENERATORS[workload](seed, work)
    spec.update(workload=workload, seed=seed)
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    return spec
