"""src/apgaps holds what the commands reach, and the names used from outside it resolve.

The walk starts at cli.main and at every module's import-time statements, and
follows each name a reached definition reads (a top-level name of its module,
a name imported from a sibling module, an attribute of an imported module) to
a fixpoint. A class's methods, properties and cached properties are
definitions of their own, named Class.member: one counts as reached when a
reached definition reads .member off anything, as types are not tracked.
Dunder methods stay with their class, which is what calls them. A definition
the walk misses, unless ALLOWED names it, belongs in the test file that uses
it.
"""

import ast
import copy
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions that no command reaches, kept because code outside src/ names them.
ALLOWED = {
    ("bv_sums", "smoothed_R"),  # tests/test_acceptance.py, criterion 7
    ("gaps", "abstract_B_consistency"),  # tests/test_acceptance.py, criterion 10
    ("gaps", "exponent_rate_exact"),  # tests/test_acceptance.py, criterion 10
    ("comb_lemmas", "verify_trichotomy"),  # tests/test_acceptance.py, criterion 4; perfbench/tracer.py
    ("comb_lemmas", "verify_comblem"),  # tests/test_acceptance.py, criterion 4; perfbench/tracer.py
    ("comb_lemmas", "random_trichotomy_sweep"),  # tests/test_acceptance.py, criterion 4; perfbench/tracer.py
    ("comb_lemmas", "random_comblem_sweep"),  # tests/test_acceptance.py, criterion 4; perfbench/tracer.py
    ("arith", "primes_in_ap"),  # perfbench/tracer.py
    ("arith", "prime_power_arrays"),  # perfbench/tracer.py; bv_sums.smoothed_R and the tests' oracles
    ("cli", "_Parser.error"),  # argparse calls it on a bad command line
}


def _is_member(stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")


def package() -> dict:
    """module -> (name -> its defining statements, other top-level statements, imported modules, imported names)."""
    out = {}
    for path in (ROOT / "src" / "apgaps").glob("*.py"):
        tree = ast.parse(path.read_text())
        defs, other, modules, names = {}, [], {}, {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                defined = [stmt.name]
                for member in filter(_is_member, stmt.body):
                    defs.setdefault(f"{stmt.name}.{member.name}", []).append(member)
                stmt = copy.copy(stmt)  # the class alone: its members are reached by name
                stmt.body = [s for s in stmt.body if not _is_member(s)]
            elif isinstance(stmt, ast.FunctionDef):
                defined = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in defined:
                defs.setdefault(name, []).append(stmt)
            if not defined:
                other.append(stmt)
        for node in ast.walk(tree):  # imports inside functions count: a command may import lazily
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        names[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        modules[alias.asname or alias.name] = alias.name
        out[path.stem] = defs, other, modules, names
    return out


def unreached(pkg: dict) -> list:
    members: dict = {}  # attribute name -> the (module, "Class.member") it may read
    for m, (defs, *_) in pkg.items():
        for name in defs:
            if "." in name:
                members.setdefault(name.split(".")[1], []).append((m, name))
    seen = {("cli", "main")}
    todo = [("cli", s) for s in pkg["cli"][0]["main"]] + [(m, s) for m, (_, other, *_) in pkg.items() for s in other]
    while todo:
        mod, stmt = todo.pop()
        defs, _, modules, names = pkg[mod]
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                keys = [(mod, node.id) if node.id in defs else names.get(node.id)]
            elif isinstance(node, ast.Attribute):
                keys = members.get(node.attr, [])
                if getattr(node.value, "id", None) in modules:
                    keys = keys + [(modules[node.value.id], node.attr)]
            else:
                continue
            for key in keys:
                if key and key not in seen and key[1] in pkg.get(key[0], ({},))[0]:
                    seen.add(key)
                    todo += [(key[0], s) for s in pkg[key[0]][0][key[1]]]
    assert not seen & ALLOWED, f"cli.main reaches {seen & ALLOWED}: drop them from ALLOWED"
    defined = {(m, n) for m, (defs, *_) in pkg.items() for n in defs if not n.startswith("__")}
    assert ALLOWED <= defined, f"ALLOWED names {ALLOWED - defined}, which src/ does not define"
    return sorted(defined - seen - ALLOWED)


def test_src_holds_only_what_main_reaches():
    assert unreached(package()) == []


def test_walk_flags_unreferenced_definitions():
    pkg = package()
    for name in ("orphan", "_orphan"):
        pkg["arith"][0][name] = ast.parse(f"def {name}():\n    return primes_in_range(0, 10)\n").body
    # a method of a reached class that nothing reads
    pkg["arith"][0]["Factorization.orphan_method"] = ast.parse("def orphan_method(self):\n    return 1\n").body
    assert unreached(pkg) == [("arith", "Factorization.orphan_method"), ("arith", "_orphan"), ("arith", "orphan")]


def test_benchmark_and_gate_hooks_resolve():
    # perfbench/tracer.py's install looks its TARGETS up with a bare getattr, and
    # tests/test_acceptance.py reads names off the modules it imports
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    assigns = [s for s in tracer.body if isinstance(s, ast.Assign)]
    (rows,) = [s.value.elts for s in assigns if ast.unparse(s.targets[0]) == "TARGETS"]
    used = [(row.elts[0].value, row.elts[1].value) for row in rows]
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imports = [a for n in gate.body if isinstance(n, ast.Import) for a in n.names if a.name.startswith("apgaps.")]
    aliases = {a.asname: a.name.split(".")[1] for a in imports}
    for node in ast.walk(gate):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("apgaps."):
            used += [(node.module.split(".")[1], a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            used.append((aliases[node.value.id], node.attr))
    assert len(used) > 50  # both files were read
    assert [(m, n) for m, n in used if not hasattr(importlib.import_module(f"apgaps.{m}"), n)] == []
