"""Dead-code guard: every function and class defined in the package must
be referenced somewhere in the sources; code that only the tests use
belongs in `tests/`.

A reference is any bare name, attribute access or import alias, so the
check is purely syntactic (standard-library `ast`).  Dunder names are
exempt because the interpreter calls them implicitly.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freecert"


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(*dirs: Path) -> list[str]:
    """Package definitions whose name no module under `dirs` references."""
    defined: dict[str, str] = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    used: set[str] = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    used.add(node.asname)
    return sorted(where for name, where in defined.items() if name not in used)


def test_no_unreferenced_definitions():
    dead = unreferenced_definitions(ROOT / "src", ROOT / "tests")
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)


def test_no_definition_referenced_only_from_tests():
    test_only = sorted(set(unreferenced_definitions(ROOT / "src")) - set(unreferenced_definitions(ROOT / "src", ROOT / "tests")))
    assert not test_only, "definitions only the tests use (move them to tests/):\n" + "\n".join(test_only)


def unused_imports(*dirs: Path) -> list[str]:
    """Names a module under `dirs` imports and never references as a bare
    name (`import a.b` binds `a`); `__future__` imports bind nothing."""
    found = []
    for path, tree in _trees(*dirs):
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_test_modules_use_every_name_they_import():
    """An unused import in a test keeps a dead name looking used to
    `test_no_unreferenced_definitions`."""
    unused = unused_imports(ROOT / "tests")
    assert not unused, "imported and never referenced:\n" + "\n".join(unused)


def _optional_params(func: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the call's positional arguments or None) of
    every parameter with a default.  A method's first parameter is bound by
    the attribute access, so positions skip it."""
    args = func.args
    skip = 1 if is_method else 0
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first_default]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _optional_parameters() -> dict[str, list[tuple[str, int | None, str]]]:
    """{function name: [(parameter, position or None, place)]} of every
    optional parameter of a package function."""
    optional: dict[str, list[tuple[str, int | None, str]]] = {}
    for path, tree in _trees(PACKAGE):
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(node.name):
                for name, pos in _optional_params(node, id(node) in methods):
                    where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({name})"
                    optional.setdefault(node.name, []).append((name, pos, where))
    return optional


def _optional_calls(optional: dict, *dirs: Path):
    """(function name, parameter, whether the call passes it) for every
    call under `dirs` of a function in `optional` and each of its optional
    parameters, by position or by keyword.  Calls match by bare name or
    attribute name."""
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            fname = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if fname not in optional:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for name, pos, _ in optional[fname]:
                by_position = pos is not None and (starred or pos < len(node.args))
                yield fname, name, by_position or name in keywords or None in keywords


def unpassed_optional_parameters(*dirs: Path) -> list[str]:
    """Optional parameters of package functions that no call under `dirs`
    passes."""
    optional = _optional_parameters()
    passed = {(fname, name) for fname, name, given in _optional_calls(optional, *dirs) if given}
    return sorted(where for fname, params in optional.items() for name, _, where in params if (fname, name) not in passed)


def always_passed_optional_parameters(*dirs: Path) -> list[str]:
    """Optional parameters of package functions that every call under
    `dirs` passes: none of those calls takes the default."""
    optional = _optional_parameters()
    defaulted = {(fname, name) for fname, name, given in _optional_calls(optional, *dirs) if not given}
    return sorted(where for fname, params in optional.items() for name, _, where in params if (fname, name) not in defaulted)


def test_every_optional_parameter_is_passed():
    unpassed = unpassed_optional_parameters(ROOT / "src", ROOT / "tests")
    assert not unpassed, "optional parameters no call passes:\n" + "\n".join(unpassed)


#: `cli.main(argv)`: the benchmark passes the argument list through its
#: own name for the function, `self.cli_main(argv)`, which no name match sees.
TEST_ONLY_EXEMPT = {"main(argv)"}


def test_no_optional_parameter_passed_only_from_tests():
    """A parameter that only the tests pass is a test hook in the package:
    the tests build what they need themselves (`tests/oracles.py`)."""
    users = (ROOT / "src", ROOT / "tools", ROOT / "perfbench")
    test_only = set(unpassed_optional_parameters(*users)) - set(unpassed_optional_parameters(*users, ROOT / "tests"))
    test_only = sorted(where for where in test_only if where.rsplit(" ", 1)[-1] not in TEST_ONLY_EXEMPT)
    assert not test_only, "optional parameters only the tests pass:\n" + "\n".join(test_only)


def test_no_default_used_only_from_tests():
    """A default that every package, tool and benchmark call overrides is
    a test convenience in the package: the tests pass the value themselves."""
    users = (ROOT / "src", ROOT / "tools", ROOT / "perfbench")
    test_only = [where for where in always_passed_optional_parameters(*users) if where.rsplit(" ", 1)[-1] not in TEST_ONLY_EXEMPT]
    assert not test_only, "defaults only the tests use:\n" + "\n".join(test_only)


def _package_imports(path: Path) -> tuple[dict[str, set[str]], set[str]]:
    """({freecert module: names imported from it}, top-level names of the
    other modules) of the imports in `path`.  The package itself is the
    module "", and a plain `import freecert.x` imports no names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    internal: dict[str, set[str]] = {}
    external = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            internal.setdefault(node.module or "", set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]:
                top, _, rest = name.partition(".")
                if top == "freecert":
                    names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
                    internal.setdefault(rest, set()).update(names)
                else:
                    external.add(top)
    return internal, external


def test_checker_imports_only_scalar_and_projective():
    """The certified inequalities stand on exact arithmetic and the
    projective metric alone, never on the search code they check: within
    the package `checker.py` imports `scalar` and `projective`, and beyond
    it only the standard library."""
    internal, external = _package_imports(PACKAGE / "checker.py")
    assert internal.keys() <= {"scalar", "projective"}, f"checker.py imports freecert modules {sorted(internal)}"
    assert external <= sys.stdlib_module_names, f"checker.py imports {sorted(external - sys.stdlib_module_names)}"


def test_pingpong_imports_only_projective_and_scalar():
    """`pingpong.py` asks each backend's sets for their disjointness and
    each player's evidence for its mapping conditions, so it names no
    backend type: within the package it imports `projective` and `scalar`
    alone, and it tests no type or attribute."""
    internal, _ = _package_imports(PACKAGE / "pingpong.py")
    assert internal.keys() == {"projective", "scalar"}, f"pingpong.py imports freecert modules {sorted(internal)}"
    names = {node.id for node in ast.walk(ast.parse((PACKAGE / "pingpong.py").read_text(encoding="utf-8"))) if isinstance(node, ast.Name)}
    assert not names & {"isinstance", "hasattr", "getattr", "_backend_key"}


def test_verifier_imports_no_search_code():
    """`certfmt.py`, the format and its verifier, imports no claim
    producer: within the package only `checker`, `projective`, `scalar`,
    `tree`, the version, and from `dynamics` the two routines it re-runs
    (the gap bound and the direction candidates), and beyond it only the
    standard library."""
    internal, external = _package_imports(PACKAGE / "certfmt.py")
    assert internal.keys() == {"", "checker", "projective", "scalar", "tree", "dynamics"}, f"certfmt.py imports freecert modules {sorted(internal)}"
    assert internal[""] == {"__version__"}
    assert internal["dynamics"] == {"contraction_gap_sq", "direction_candidates"}
    assert external <= sys.stdlib_module_names, f"certfmt.py imports {sorted(external - sys.stdlib_module_names)}"


def pair_list_copies(path: Path) -> list[str]:
    """Where `path` spells a ping-pong pair label ("A+", "R+", "A-" or
    "R-") in a string constant that is no docstring, or writes k (8k - 5)
    as `8 * k - 5`: each is a copy of the pair list `scalar` holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0].value) for n in ast.walk(tree) if isinstance(n, scopes) and n.body and isinstance(n.body[0], ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            if any(label in node.value for label in ("A+", "R+", "A-", "R-")):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.BinOp) and re.fullmatch(r"8 \* \w+ - 5", ast.unparse(node)):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_scalar_alone_lists_the_pingpong_pairs():
    """`scalar.tuple_pairs`, `pair_count`, `PAIR_LABELS` and `VERY_PAIRS`
    are the one list of the sets ping-pong must show disjoint: no other
    module of the package spells a label or counts the pairs itself."""
    copies = [where for path in sorted(PACKAGE.glob("*.py")) if path.name != "scalar.py" for where in pair_list_copies(path)]
    assert not copies, "copies of the pair list:\n" + "\n".join(copies)


def _claim_literals(path: Path) -> list[tuple[str, str]]:
    """(claim type, innermost enclosing function) of each dict literal in
    `path` with a "type" key, the type "?" where it is no string."""
    found = []

    def visit(node, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "type":
                    found.append((value.value if isinstance(value, ast.Constant) and isinstance(value.value, str) else "?", func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def _checked_claim_types() -> set[str]:
    """The claim types `certfmt.check_claim` accepts: the strings it
    compares its `kind` with."""
    tree = ast.parse((PACKAGE / "certfmt.py").read_text(encoding="utf-8"))
    check = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "check_claim")
    compares = [n for n in ast.walk(check) if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name) and n.left.id == "kind"]
    return {c.value for n in compares for c in ast.walk(n.comparators[0]) if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def test_certfmt_alone_writes_each_claim_type_once():
    """`certfmt` is the only writer of claim JSON: `cli.py` holds no dict
    with a "type" key, and each claim type `check_claim` accepts is written
    as a dict literal in exactly one `certfmt` function."""
    assert not _claim_literals(PACKAGE / "cli.py"), "cli.py writes claims"
    writers: dict[str, set[str]] = {}
    for kind, func in _claim_literals(PACKAGE / "certfmt.py"):
        writers.setdefault(kind, set()).add(func)
    checked = _checked_claim_types()
    assert len(checked) == 14
    assert writers.keys() == checked, f"written {sorted(writers)}, checked {sorted(checked)}"
    assert all(len(funcs) == 1 for funcs in writers.values()), writers


#: Standard-library modules the package leaves unloaded: `dataclasses`
#: executes generated code for each record class, and it imports `inspect`;
#: `typing` is a few milliseconds of start-up that `scalar.Record` makes
#: unnecessary, and `argparse` a few more, with a parser built on every
#: call, that `cli.main`'s own reader of the argument list makes unnecessary.
UNLOADED = {"argparse", "dataclasses", "inspect", "typing"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add((node.module or "").partition(".")[0])
    return out


def test_no_module_imports_dataclasses_or_inspect():
    found = []
    for path, tree in _trees(PACKAGE):
        bad = _imported_modules(tree) & UNLOADED
        if bad:
            found.append(f"{path.relative_to(ROOT)} imports {sorted(bad)}")
    assert not found, "\n".join(found)


def record_kinds() -> list[str]:
    """Package classes that are not of the one record kind: a class that
    derives from `NamedTuple` or `tuple`, or one with `__slots__` that does
    not derive from `scalar.Record`, through the package's own classes."""
    bases: dict[str, list[str]] = {}
    slotted: dict[str, str] = {}
    found = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            names = [b.id if isinstance(b, ast.Name) else b.attr if isinstance(b, ast.Attribute) else "" for b in node.bases]
            bases[node.name] = names
            if {"NamedTuple", "tuple"} & set(names):
                found.append(f"{where} derives from {sorted({'NamedTuple', 'tuple'} & set(names))}")
            targets = [t for stmt in node.body if isinstance(stmt, ast.Assign) for t in stmt.targets]
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                slotted[node.name] = where

    def is_record(name: str) -> bool:
        return name == "Record" or any(is_record(b) for b in bases.get(name, ()))

    found += [f"{where} has __slots__ but is no Record" for name, where in slotted.items() if name != "Record" and not is_record(name)]
    return found


def test_every_record_is_a_scalar_record():
    bad = record_kinds()
    assert not bad, "\n".join(bad)


def _loaded_modules(statement: str) -> set[str]:
    """`sys.modules` after a fresh interpreter ran `statement`, started
    with `-S`: the site hooks of some installations load `typing`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """Read from what `import freecert.cli` adds to the modules of a bare
    interpreter, so that whatever the interpreter loads itself does not
    count."""
    added = _loaded_modules("import freecert.cli") - _loaded_modules("pass")
    assert "freecert.cli" in added
    assert not added & UNLOADED, f"import freecert.cli loads {sorted(added & UNLOADED)}"


def test_verifier_import_loads_no_search_code():
    loaded = _loaded_modules("import freecert.certfmt")
    assert "freecert.certfmt" in loaded
    producers = {"freecert.synthesis", "freecert.pingpong", "freecert.cli"}
    assert not loaded & producers, f"import freecert.certfmt loads {sorted(loaded & producers)}"


def test_pingpong_import_loads_no_dynamics():
    loaded = _loaded_modules("import freecert.pingpong")
    assert "freecert.pingpong" in loaded
    search = {"freecert.dynamics", "freecert.checker", "freecert.rootiso"}
    assert not loaded & search, f"import freecert.pingpong loads {sorted(loaded & search)}"


MEMO_DECORATORS = {"lru_cache", "cache"}


def _memo_name(dec: ast.expr) -> str | None:
    """`lru_cache` or `cache` when the decorator is one of them, bare or
    called, by bare or attribute name."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.id if isinstance(target, ast.Name) else target.attr if isinstance(target, ast.Attribute) else None
    return name if name in MEMO_DECORATORS else None


def _finite_maxsize(dec: ast.expr) -> bool:
    """`lru_cache(N)` or `lru_cache(maxsize=N)` with N a positive integer literal."""
    if not isinstance(dec, ast.Call) or _memo_name(dec) != "lru_cache":
        return False
    sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int and sizes[0].value > 0


def _module_name(path: Path) -> str:
    return "freecert" if path.stem == "__init__" else f"freecert.{path.stem}"


def memoized_functions() -> tuple[list[tuple[str, str | None, str]], list[str]]:
    """((module, class or None, name) of every memoized module-level
    function or class attribute, places of the memos that are not one of
    those or have no finite maxsize)."""
    found, bad = [], []
    for path, tree in _trees(PACKAGE):
        owners = {id(f): None for f in tree.body}
        owners.update({id(f): c.name for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body})
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in (d for d in node.decorator_list if _memo_name(d)):
                where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                if id(node) not in owners:
                    bad.append(f"{where}: not a module-level function or class attribute")
                elif not _finite_maxsize(dec):
                    bad.append(f"{where}: no finite integer maxsize")
                else:
                    found.append((_module_name(path), owners[id(node)], node.name))
    return found, bad


def test_every_memo_is_cleared_between_benchmark_requests(monkeypatch):
    """Each `lru_cache` in the package is bounded and sits where the
    benchmark's `find_caches` attribute scan finds it, so every request
    starts cold."""
    found, bad = memoized_functions()
    assert not bad, "memos the benchmark cannot reset:\n" + "\n".join(bad)
    assert found
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from run import find_caches

    for path in PACKAGE.glob("*.py"):
        importlib.import_module(_module_name(path))
    scanned = {id(c) for c in find_caches()}
    for module, owner, name in found:
        obj = importlib.import_module(module)
        if owner is not None:
            obj = vars(obj)[owner]
        assert id(vars(obj)[name]) in scanned, f"{module} {owner or ''} {name} escapes find_caches"


#: The integer kernel: functions, and methods named `Class.method`, that
#: run on cleared integers alone.
INTEGER_KERNEL = {
    "projective.py": ("det", "_eliminate", "inverse_rows", "_eliminated_inverse", "_kernel_intersection_point"),
    "dynamics.py": ("_padic_pivot", "padic_exponents", "gram_charpoly", "_faddeev_leverrier", "_charpoly_gram", "_below", "_power_direction", "_krylov_point"),
    "scalar.py": ("cmp_sqrt_sum", "sqrt_lower_pair", "sqrt_upper_pair"),
    "checker.py": ("Ladder.upper", "Ladder.above", "Ladder.ends_below"),
    "rootiso.py": ("_bisect", "_rational_root", "_refine", "_refine_quadratic"),
}


def _fraction_lines(node: ast.AST) -> list[int]:
    """The lines under `node` that name `Fraction`, bare or as an attribute."""
    return [
        sub.lineno
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and sub.id == "Fraction") or (isinstance(sub, ast.Attribute) and sub.attr == "Fraction")
    ]


def test_integer_kernel_names_no_fraction():
    """Denominators are cleared once, by `scalar.clear_denominators`, on
    the way in; past that the determinant, the elimination, the inverse,
    the p-adic exponents, the Gram characteristic polynomial, the Krylov
    moments of the power iteration, the kernel of two covectors, the
    sign test of sqrt(a) + sqrt(b) - sqrt(c), the square-root bounds on
    integer pairs, the self-map ladder's bisection and scan, and the
    bisection, rational-root search and refinement of root isolation
    never build or name a `Fraction`."""
    found = []
    for module, names in INTEGER_KERNEL.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        funcs.update({f"{c.name}.{f.name}": f for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body if isinstance(f, ast.FunctionDef)})
        for name in names:
            assert name in funcs, f"{module} has no function {name}"
            found += [f"{module}:{line} {name}" for line in _fraction_lines(funcs[name])]
    assert not found, "Fraction in the integer kernel:\n" + "\n".join(found)


def test_projective_objects_store_only_their_integer_form():
    """No class of `projective` builds or names a `Fraction`: a point,
    hyperplane or matrix keeps its integer form alone, and `certfmt`
    writes the rational text from it.  A point or hyperplane has no
    `__dict__` to cache a second form in."""
    tree = ast.parse((PACKAGE / "projective.py").read_text(encoding="utf-8"))
    found = [f"projective.py:{line} {c.name}" for c in tree.body if isinstance(c, ast.ClassDef) for line in _fraction_lines(c)]
    assert not found, "Fraction in a projective class:\n" + "\n".join(found)
    from freecert.projective import ProjHyperplane, ProjPoint, _IntegerClass

    assert "__dict__" not in _IntegerClass.__slots__
    assert not any(hasattr(x, "__dict__") for x in (ProjPoint((1, 2)), ProjHyperplane((1, 2))))


def _scopes(tree: ast.AST, match, scope: str) -> list[str]:
    """The dotted scopes (classes and functions) under `scope` that hold a
    node `match` accepts, once per node."""
    out = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += _scopes(child, match, f"{scope}.{child.name}")
            continue
        if match(child):
            out.append(scope)
        out += _scopes(child, match, scope)
    return out


def _calls(name: str):
    """A match of a call of `name`, by bare or attribute name."""
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _callers(tree: ast.AST, name: str, scope: str) -> list[str]:
    """The dotted scopes (classes and functions) under `scope` that call
    `name`, by bare or attribute name, once per call."""
    return _scopes(tree, _calls(name), scope)


def test_denominators_are_cleared_only_where_input_enters():
    """`clear_denominators` is called in two places in the package: a
    matrix's construction from input and `class_rep`, which stores a
    point or hyperplane from input.  A point or hyperplane is built from
    input only by the certificate decoders and the problem-file set
    parser; the package builds its own with `_of`, from a vector that is
    primitive already.  The kernels take their integers.  A certificate's
    numbers enter as integer pairs, read by `certfmt.pair_from` alone: its
    callers are the decoders of coordinates, matrices and scalars."""

    def callers(name: str) -> list[str]:
        return sorted(c for path, tree in _trees(PACKAGE) for c in _callers(tree, name, path.stem))

    assert callers("clear_denominators") == ["projective.ProjMat.__init__", "projective.class_rep"]
    assert callers("class_rep") == ["projective._IntegerClass.__init__"]
    assert callers("ProjPoint") == ["certfmt.point_from", "cli._parse_set"]
    assert callers("ProjHyperplane") == ["certfmt.plane_from", "cli._parse_set"]
    assert callers("pair_from") == ["certfmt._coords", "certfmt.mat_from", "certfmt.rat_from"]


def test_one_function_bounds_a_word():
    """`certfmt.bounded_word` alone compares a word with MAX_WORD_LEN and
    MAX_WORD_HEIGHT: the problem reader parses every matrix and tree word
    with it, and `verify` bounds every word a certificate's task holds in
    one walk, `_bound_task_words`, which `CertContext` runs once, when it
    reads the header."""

    def compares_a_bound(node: ast.AST) -> bool:
        return isinstance(node, ast.Compare) and any(getattr(n, "id", None) in ("MAX_WORD_LEN", "MAX_WORD_HEIGHT") for n in ast.walk(node))

    bounds = sorted({c for path, tree in _trees(PACKAGE) for c in _scopes(tree, compares_a_bound, path.stem)})
    assert bounds == ["certfmt.bounded_word"]
    users = sorted(c for path, tree in _trees(PACKAGE) for c in _scopes(tree, lambda n: getattr(n, "id", None) == "bounded_word", path.stem))
    assert users == ["certfmt._bound_task_words", "cli.cmd_analyze", "cli.cmd_pingpong", "cli.cmd_synthesize", "cli.cmd_tree.word"]
    walks = sorted(c for path, tree in _trees(PACKAGE) for c in _callers(tree, "_bound_task_words", path.stem))
    assert walks == ["certfmt.CertContext.__init__"]


def test_one_reader_parses_the_words_of_a_certificate():
    """Inside `certfmt` only the reader of a word's backend refers to a
    `parse_word`: `CertContext.word` in the generator group and
    `CertContext.tree_word` in the amalgam, and `bounded_word`, whose parse
    of a task word the reader keeps.  The one exception is `_relation`,
    which parses the oracle's relation in a group of its own, over the
    players' matrices."""

    def refers(node: ast.AST) -> bool:
        return isinstance(node, (ast.Name, ast.Attribute)) and getattr(node, "id", getattr(node, "attr", None)) == "parse_word"

    tree = ast.parse((PACKAGE / "certfmt.py").read_text(encoding="utf-8"))
    parsers = sorted(_scopes(tree, refers, "certfmt"))
    assert parsers == ["certfmt.CertContext.tree_word", "certfmt.CertContext.word", "certfmt._relation", "certfmt.bounded_word"]


def test_binders_derive_every_matrix_but_the_refuted_one():
    """A binder (a `certfmt` function whose first parameter is a
    `Binding`) derives each matrix its claims hold from the header and
    reads no claim's "matrix", except `_refuted`, which learns from it
    whether the element or its inverse is refuted."""
    tree = ast.parse((PACKAGE / "certfmt.py").read_text(encoding="utf-8"))
    binders = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.args.args and getattr(f.args.args[0].annotation, "id", None) == "Binding"]
    assert len(binders) > 10
    readers = [f.name for f in binders if any(isinstance(n, ast.Constant) and n.value == "matrix" for n in ast.walk(f))]
    assert readers == ["_refuted"]


def test_cli_writes_few_matrix_texts():
    """`cli` writes a matrix's text only for the header and an `analyze`
    element's word-eval claim: every other claim matrix, a refuted one
    among them, is written by the `certfmt` builder that takes the `ProjMat`."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert len([n for n in ast.walk(tree) if _calls("mat_json")(n)]) <= 2


def test_root_isolation_sees_only_gram_polynomials():
    """`rootiso` counts roots by Descartes' rule of signs, which is exact
    only on a real-rooted polynomial.  The characteristic polynomial of a
    Gram matrix g^T g is one, so `isolate_positive_roots` has one caller,
    which passes `_charpoly_gram`; any other polynomial would get wrong
    counts without an error.  No other reference passes the function on."""
    name = "isolate_positive_roots"
    assert sorted(c for path, tree in _trees(PACKAGE) for c in _callers(tree, name, path.stem)) == ["dynamics.singular_profile"]
    nodes = [node for _, tree in _trees(PACKAGE) for node in ast.walk(tree)]
    (call,) = [n for n in nodes if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == name]
    refs = [n for n in nodes if (isinstance(n, ast.Name) and n.id == name) or (isinstance(n, ast.Attribute) and n.attr == name)]
    assert refs == [call.func]
    (arg,) = call.args
    assert not call.keywords and isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_charpoly_gram"


def _takes_a_trace(node: ast.AST) -> bool:
    """Whether node sums a diagonal, sum(m[i][i] for i in ...)."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum" and node.args):
        return False
    gen = node.args[0]
    if not isinstance(gen, (ast.GeneratorExp, ast.ListComp)) or len(gen.generators) != 1:
        return False
    elt, target = gen.elt, gen.generators[0].target
    return (
        isinstance(elt, ast.Subscript)
        and isinstance(elt.value, ast.Subscript)
        and isinstance(target, ast.Name)
        and getattr(elt.slice, "id", None) == getattr(elt.value.slice, "id", None) == target.id
    )


def test_one_characteristic_polynomial_loop():
    """Faddeev-LeVerrier, a loop that takes the trace of a matrix product
    each step, runs in one function, `dynamics._faddeev_leverrier`, which
    `dynamics.gram_charpoly` calls beyond dimension 2.  The singular
    profile's root-isolation key and the Krylov recurrence of the power
    iteration are both read from `gram_charpoly`'s coefficients, so a
    matrix has one characteristic polynomial and both consumers call it."""
    loops = sorted(
        f"{path.stem}.{func.name}"
        for path, tree in _trees(PACKAGE)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(loop, (ast.For, ast.While)) and any(map(_takes_a_trace, ast.walk(loop))) for loop in ast.walk(func))
    )
    assert loops == ["dynamics._faddeev_leverrier"]
    assert sorted(c for path, tree in _trees(PACKAGE) for c in _callers(tree, "_faddeev_leverrier", path.stem)) == ["dynamics.gram_charpoly"]
    readers = sorted(c for path, tree in _trees(PACKAGE) for c in _callers(tree, "gram_charpoly", path.stem))
    assert readers == ["dynamics._charpoly_gram", "dynamics.direction_candidates"]


def _json_calls(tree: ast.AST, names: tuple[str, ...]) -> list[int]:
    """Lines that reference `json.<name>` or import it from `json`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names and getattr(node.value, "id", None) == "json")
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json") and any(a.name in names for a in node.names))
    ]


def test_certfmt_dumps_is_the_only_certificate_writer():
    """`certfmt.dumps` is the one writer of certificate text: the package
    builds one `json.JSONEncoder`, certfmt's `_ENCODER`, which only that
    function reads, and references `json.dumps` and `json.dump` never.
    `certfmt.loads` reads with the one `json.JSONDecoder`, certfmt's
    `_DECODER`, which only that function reads, and `json.loads` is
    referenced never."""
    assert [path.name for path, tree in _trees(PACKAGE) for _ in _json_calls(tree, ("dump", "dumps"))] == []
    assert [path.name for path, tree in _trees(PACKAGE) for _ in _json_calls(tree, ("JSONEncoder",))] == ["certfmt.py"]
    (certfmt,) = [tree for path, tree in _trees(PACKAGE) if path.name == "certfmt.py"]
    writer = next(n for n in ast.walk(certfmt) if isinstance(n, ast.FunctionDef) and n.name == "dumps")
    reads = [n.lineno for n in ast.walk(certfmt) if isinstance(n, ast.Name) and n.id == "_ENCODER" and isinstance(n.ctx, ast.Load)]
    assert reads and all(writer.lineno <= line <= writer.end_lineno for line in reads)
    assert [path.name for path, tree in _trees(PACKAGE) for _ in _json_calls(tree, ("loads", "load"))] == []
    assert [path.name for path, tree in _trees(PACKAGE) for _ in _json_calls(tree, ("JSONDecoder",))] == ["certfmt.py"]
    reader = next(n for n in ast.walk(certfmt) if isinstance(n, ast.FunctionDef) and n.name == "loads")
    reads = [n.lineno for n in ast.walk(certfmt) if isinstance(n, ast.Name) and n.id == "_DECODER" and isinstance(n.ctx, ast.Load)]
    assert reads and all(reader.lineno <= line <= reader.end_lineno for line in reads)


def test_a_large_certificate_skips_the_pure_python_json_encoder(tmp_path, monkeypatch):
    """The radius-11 ball of S3 *_{C2} S3, 6142 rows, is written with
    `json`'s pure-Python encoder unusable."""
    from test_cli import run, s3_amalgam_header

    def unusable(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", unusable)
    code, cert, out = run(tmp_path, "tree", s3_amalgam_header("c2") + "\n[task]\nop tree\nsubop expand\nradius 11\n")
    assert code == 0 and cert["result"]["count"] == 6142
    assert out.stat().st_size > 50_000
