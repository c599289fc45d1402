"""The ``wd`` command line tool.

Subcommands: ``check`` validates a script and its CSV data, ``eval`` runs a
named query or union, ``query`` runs an inline SELECT expression, ``dot``
renders a diagram or compiled query, ``fixpoint`` runs a recursion setup,
``laws`` runs the random law suites.

``check`` loads and validates every relation the script declares.  The other
commands read only the relations they use: ``eval`` those in the query's FROM
or, for a union, in its parts' FROMs; ``query`` those in the inline query's
FROM; ``fixpoint`` the setup's; ``dot`` none.  A missing or malformed CSV
that a command does not read is not an error for that command.

In the same way ``check`` parses the whole script, and the other commands
pass :func:`wiring.dsl.parse_script` the names they read, each with the
keywords of the declarations they look it up in: ``eval`` its name as a
``query`` or ``union``, ``dot`` as a ``diagram`` or ``query``, ``fixpoint``
as a ``setup``, and ``query`` the inline query's FROM names as a ``rel`` or
``const``.  A declaration of the name with another keyword is not chosen
by the name, so when it is broken and no declaration with one of those
keywords has the name, the command reports that it has no such name; nor
is it chosen by the own name of a declaration that is, unless the two
share a name space.  Which declarations the chosen ones lead to, and so
whose errors a command raises, is stated in :mod:`wiring.dsl`.
``query`` parses its inline SELECT before the script, so the SELECT's own
syntax errors come first.

Run it as ``wd`` once the package is installed, or as ``python -m
wiring.cli`` with ``src`` on the path.

Exit status: 0 on success, 1 for user errors (bad scripts, missing files,
unknown names), 2 for internal invariant violations (law failures or
unexpected exceptions).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from typing import IO, Collection, Iterator, Mapping

from . import csvio, dsl, relations
from .dot import emit_dot
from .errors import WiringError, not_utf8
from .laws import GeneratorConfig, run_all
from .query import compile_query, evaluate_query
from .recursion import build_setup, fixed_point
from .relations import Relation


def _load_script(
    path: str, reads: Mapping[str, Collection[str]] | None = None
) -> tuple[dsl.Script, str]:
    """The script at ``path``, read as UTF-8 with an optional leading
    byte-order mark like the CSV files and parsed, only as far as ``reads``
    needs when given, and the directory it is in."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise WiringError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WiringError(not_utf8(path, exc)) from exc
    return dsl.parse_script(text, reads), os.path.dirname(os.path.abspath(path))


def _load_relations(
    script: dsl.Script, base_dir: str, names: Collection[str]
) -> dict[str, Relation]:
    """The rels and consts named in ``names``; the rels' CSV files load in
    declaration order."""
    loaded = {name: script.consts[name] for name in names if name in script.consts}
    for name in script.relations:
        if name in names:
            decl = script.relations[name]
            path = os.path.join(base_dir, decl.path)
            loaded[name] = csvio.load_csv_relation(path, decl.star)
    return loaded


def _result_reads(script: dsl.Script, name: str) -> set[str]:
    """The rel and const names that the query or union ``name`` reads."""
    if name in script.queries:
        return {pred for pred, _alias in script.queries[name].tables}
    if name in script.unions:
        return set().union(*(_result_reads(script, p) for p in script.unions[name].parts))
    raise WiringError(f"no query or union named {name!r}")


def _resolve_result(
    script: dsl.Script, rels: Mapping[str, Relation], name: str
) -> Relation:
    """The query or union ``name``, which :func:`_result_reads` has vetted."""
    if name in script.unions:
        parts = [
            _resolve_result(script, rels, part)
            for part in script.unions[name].parts
        ]
        result = parts[0]
        for part in parts[1:]:
            result = relations.union(result, part)
        return result
    return evaluate_query(compile_query(script.queries[name], script), rels)


@contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The file at ``path``, or standard output when there is none; a
    file that cannot be written is a user error."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise WiringError(f"cannot write {path}: {exc}") from exc


def cmd_check(args) -> int:
    script, base_dir = _load_script(args.script)
    _load_relations(script, base_dir, script.relations)
    counts = (
        f"{len(script.domains)} types, {len(script.stars)} stars, "
        f"{len(script.relations)} relations, {len(script.consts)} consts, "
        f"{len(script.diagrams)} diagrams, "
        f"{len(script.queries)} queries, {len(script.unions)} unions, "
        f"{len(script.setups)} setups"
    )
    print(f"{args.script}: ok ({counts})")
    return 0


def cmd_eval(args) -> int:
    script, base_dir = _load_script(args.script, {args.name: ("query", "union")})
    rels = _load_relations(script, base_dir, _result_reads(script, args.name))
    result = _resolve_result(script, rels, args.name)
    with _output(args.out) as handle:
        csvio.write_relation_csv(result, handle)
    return 0


def cmd_query(args) -> int:
    query = dsl.parse_select_text(args.text)
    reads = {pred: ("rel", "const") for pred, _alias in query.tables}
    script, base_dir = _load_script(args.script, reads)
    compiled = compile_query(dsl.resolve_query_text(args.text, query, script), script)
    rels = _load_relations(script, base_dir, compiled.inputs)
    result = evaluate_query(compiled, rels)
    with _output(args.out) as handle:
        csvio.write_relation_csv(result, handle)
    return 0


def cmd_dot(args) -> int:
    script, _base_dir = _load_script(args.script, {args.name: ("diagram", "query")})
    if args.name in script.diagrams:
        diagram = script.diagrams[args.name].typed
    elif args.name in script.queries:
        diagram = compile_query(script.queries[args.name], script).diagram
    else:
        raise WiringError(f"no diagram or query named {args.name!r}")
    text = emit_dot(diagram, name=args.name)
    with _output(args.out) as handle:
        handle.write(text)
    return 0


def cmd_fixpoint(args) -> int:
    script, base_dir = _load_script(args.script, {args.name: ("setup",)})
    if args.name not in script.setups:
        raise WiringError(f"no setup named {args.name!r}")
    decl = script.setups[args.name]
    rels = _load_relations(script, base_dir, decl.rel_names)
    phi = script.diagrams[decl.diagram_name].typed
    setup = build_setup(decl.z, phi, [rels[r] for r in decl.rel_names])
    mode = {"gfp": "greatest", "lfp": "least"}[args.mode]
    result = fixed_point(setup, mode)
    with _output(args.out) as handle:
        csvio.write_relation_csv(result.relation, handle)
    print(
        f"{args.name}: mode={args.mode} tuples={len(result.relation)} "
        f"iterations={result.iterations}",
        file=sys.stderr,
    )
    return 0


def cmd_laws(args) -> int:
    cfg = GeneratorConfig(seed=args.seed, cases=args.cases)
    reports = run_all(cfg)
    for report in reports:
        print(report.format())
    if args.summary:
        with _output(args.summary) as handle:
            for report in reports:
                handle.write(
                    f"{report.name}\t{report.cases}\t{len(report.failures)}\n"
                )
    failures = sum(len(r.failures) for r in reports)
    print(f"total: {failures} failures")
    return 2 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wd`` argument parser, built once per process: parsing reads it
    and never changes it."""
    parser = argparse.ArgumentParser(
        prog="wd", description="wiring diagram scripts: validate, run, render"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a script and load its data")
    p.add_argument("script")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate a named query or union")
    p.add_argument("script")
    p.add_argument("name")
    p.add_argument("--out", help="write result CSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("query", help="evaluate an inline SELECT expression")
    p.add_argument("script")
    p.add_argument("text", help="e.g. \"SELECT a.x FROM r a WHERE a.y = 'v'\"")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("dot", help="render a diagram or query as DOT")
    p.add_argument("script")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("fixpoint", help="run a recursion setup to a fixed point")
    p.add_argument("script")
    p.add_argument("name")
    p.add_argument("--mode", choices=("gfp", "lfp"), default="gfp")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("laws", help="run the random law suites")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary", help="write a machine-readable summary here")
    p.set_defaults(func=cmd_laws)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except WiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
