"""Source layout guards over src/opscan, read with ast and never imported,
and one guard over the names the traced benchmark run wraps."""

import ast
import time
from pathlib import Path

import opscan
import opscan.cli  # noqa: F401  (loads every module the traced run wraps)

SRC = Path(__file__).resolve().parent.parent / "src" / "opscan"
PERFBENCH = SRC.parent.parent / "perfbench"

# Public module-level names that no src module uses, each with the reason
# it stays.
ALLOWED_UNUSED = {
    ("checkpoint", "read_header"): "perfbench reads it (cli binds it for the traced run)",
    ("kernels", "active_backend"): "perfbench reads it",
}


def _definitions_and_uses():
    """({(module, name): lineno} of public module-level functions and
    classes, {identifier: {(module, top-level definition or None)}} of every
    Name and attribute read in src)."""
    defs, uses = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not stmt.name.startswith("_"):
                    defs[(module, stmt.name)] = stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add((module, owner))
    return defs, uses


def test_every_public_function_and_class_has_a_src_caller():
    """A public name counts as used when some src module names it, as a name
    or an attribute, outside its own definition. Identifiers are matched
    without resolving them, so a dead name that shares its identifier with a
    used one goes unseen; an import alone is no use."""
    t0 = time.perf_counter()
    defs, uses = _definitions_and_uses()
    unused = sorted(
        f"{module}.{name} (line {lineno})"
        for (module, name), lineno in defs.items()
        if (module, name) not in ALLOWED_UNUSED
        and not uses.get(name, set()) - {(module, name)}
    )
    assert not unused, f"public names only tests reach: {', '.join(unused)}"
    stale = sorted(f"{m}.{n}" for m, n in ALLOWED_UNUSED if (m, n) not in defs)
    assert not stale, f"allowlisted names no src module defines: {', '.join(stale)}"
    assert time.perf_counter() - t0 < 1.0


def _fields(tree: ast.Module, cls: str) -> set[str]:
    """The annotated field names of class ``cls`` in a parsed module."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}


def _defaulted(node) -> list[ast.arg]:
    """The parameters of a function node that carry a default."""
    a = node.args
    positional = a.posonlyargs + a.args
    return (positional[len(positional) - len(a.defaults):]
            + [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def test_no_default_outside_config_copies_a_config_value():
    """RunConfig is the one home of every model, corpus and training default
    (argparse is, of a synth flag's): outside config.py no function
    parameter and no dataclass field named after a RunConfig key, named
    ``dropouts`` or named after a Dropouts rate has a default."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    names = (_fields(trees["config"], "RunConfig") | _fields(trees["model"], "Dropouts")
             | {"dropouts"})
    assert {"seed", "emb_size", "warmup_frac", "emb", "head"} <= names
    copies = []
    for module, tree in trees.items():
        if module == "config":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = f"{module}.{getattr(node, 'name', 'lambda')} (line {node.lineno})"
                copies += [f"{where} parameter {arg.arg}"
                           for arg in _defaulted(node) if arg.arg in names]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                copies += [f"{module}.{node.name} field {s.target.id}" for s in node.body
                           if isinstance(s, ast.AnnAssign) and s.value is not None
                           and s.target.id in names]
    assert not copies, f"defaults outside config.py: {', '.join(copies)}"


def _calls(tree: ast.Module):
    """(call, the called name's last part or "os.replace", the mode if it
    is open() or .open()) for each call in a parsed module. The mode is "r"
    when none is given and None when it is not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else name
        mode = None
        if attr == "open":
            args = node.args[1:] if name == "open" else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            mode = mode.value if isinstance(mode, ast.Constant) else None
        yield node, name if name == "os.replace" else attr, mode


def _writes(tree: ast.Module) -> list[str]:
    """Each call in a parsed module that writes or replaces a file by itself:
    open() or .open() with a mode that writes (a mode that is not a literal
    counts as one), .write_text(), .write_bytes() and os.replace()."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node, attr, mode in _calls(tree)
            if attr in ("write_text", "write_bytes", "os.replace")
            or attr == "open" and (mode is None or set("wax+") & set(mode))]


def _unnamed_encodings(tree: ast.Module) -> list[str]:
    """Each .read_text(), and each open() or .open() whose mode has no "b" (a
    mode that is not a literal counts as text), in a parsed module that
    passes no encoding=."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node, attr, mode in _calls(tree)
            if (attr == "read_text" or attr == "open" and "b" not in (mode or ""))
            and not any(k.arg == "encoding" for k in node.keywords)]


def test_every_file_write_goes_through_write_atomic():
    """artifacts.write_atomic is the one place src writes a file: a write
    anywhere else would skip its tmp file, fsync and rename."""
    t0 = time.perf_counter()
    writes = [f"{path.stem}: {w}" for path in sorted(SRC.glob("*.py")) if path.stem != "artifacts"
              for w in _writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert not writes, f"file writes outside artifacts.write_atomic: {'; '.join(writes)}"
    assert _writes(ast.parse((SRC / "artifacts.py").read_text(encoding="utf-8")))
    assert time.perf_counter() - t0 < 1.0


def test_every_text_read_names_its_encoding():
    """Every text read in src passes encoding=: without it Python decodes
    with the locale's encoding, so one input file could read one way on one
    machine and fail or read otherwise on another."""
    t0 = time.perf_counter()
    reads = [f"{path.stem}: {r}" for path in sorted(SRC.glob("*.py"))
             for r in _unnamed_encodings(ast.parse(path.read_text(encoding="utf-8")))]
    assert not reads, f"text reads without encoding=: {'; '.join(reads)}"
    probe = 'open(p)\nopen(p, "rb")\np.open("w")\np.read_text()\np.read_text(encoding="utf-8")'
    assert [r.split(" (")[0] for r in _unnamed_encodings(ast.parse(probe))] == [
        "open(p)", "p.open('w')", "p.read_text()"]
    assert time.perf_counter() - t0 < 1.0


def test_no_src_module_imports_a_private_name_of_another():
    """A leading underscore marks a name as its module's own: no src module
    takes one from a sibling with ``from .<module> import _name``."""
    t0 = time.perf_counter()
    found = [f"{path.stem} (line {node.lineno}): from .{node.module} import {alias.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {'; '.join(found)}"
    assert time.perf_counter() - t0 < 1.0


def test_autodiff_scatters_with_no_add_at():
    """np.add.at is an unbuffered scatter that runs per element: autodiff's
    backward closures gather by sort-and-reduce or by a fancy-index add
    whose targets are distinct, never by it."""
    tree = ast.parse((SRC / "autodiff.py").read_text(encoding="utf-8"))
    found = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and ast.unparse(node.value).endswith("add")]
    assert not found, f"np.add.at in autodiff.py: {'; '.join(found)}"


def _nan_dumps(tree: ast.Module) -> list[str]:
    """Each json.dumps() call in a parsed module that does not pass
    allow_nan=False."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node, attr, _ in _calls(tree)
            if attr == "dumps" and not any(
                k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in node.keywords)]


def test_every_json_dumps_refuses_nan():
    """Every JSON artifact and stdout line is strict JSON: json.dumps writes
    NaN and Infinity, which no JSON reader need accept, unless it is told
    allow_nan=False, and then it raises instead."""
    t0 = time.perf_counter()
    dumps = [f"{path.stem}: {d}" for path in sorted(SRC.glob("*.py"))
             for d in _nan_dumps(ast.parse(path.read_text(encoding="utf-8")))]
    assert not dumps, f"json.dumps without allow_nan=False: {'; '.join(dumps)}"
    probe = "json.dumps(x)\njson.dumps(x, allow_nan=False)\njson.dumps(x, allow_nan=True)"
    assert [d.split(" (")[0] for d in _nan_dumps(ast.parse(probe))] == [
        "json.dumps(x)", "json.dumps(x, allow_nan=True)"]
    assert time.perf_counter() - t0 < 1.0


def test_the_traced_run_finds_and_restores_every_name_it_wraps(monkeypatch):
    """perfbench's traced run (``--trace 1``) wraps opscan's functions by
    name from outside, in perfbench/layers.py, and lies outside Tier-1: a
    rename in src breaks it only there. Its install must find every name,
    and uninstall must put each autodiff attribute back."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    before = dict(vars(opscan.autodiff))
    tracer = tracing.Tracer()
    try:
        layers.install(tracer, opscan)
        assert all(getattr(opscan.autodiff, name) is not before[name]
                   for name in layers.AUTODIFF_OPS)
    finally:
        tracer.uninstall()
    after = vars(opscan.autodiff)
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []
