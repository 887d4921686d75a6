"""Design rules of the package source, checked on its syntax tree without running it."""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import plrlab
from plrlab.cli import _COMMANDS, build_parser

SRC = Path(plrlab.__file__).resolve().parent


def _callees(func: ast.expr) -> list[ast.expr]:
    """What a call may call: each branch of a conditional ``(a if c else b)``, else itself."""
    if isinstance(func, ast.IfExp):
        return _callees(func.body) + _callees(func.orelse)
    return [func]


def _calls(tree: ast.Module, name: str) -> list[int]:
    """Line numbers of every ``name(...)`` or ``<x>.name(...)`` call in a module, counting
    a call of a conditional expression as a call of each branch."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for func in _callees(node.func)
            if (isinstance(func, ast.Name) and func.id == name)
            or (isinstance(func, ast.Attribute) and func.attr == name)]


def _opens(path: Path) -> list[int]:
    """Line numbers of every ``open(...)`` or ``<x>.open(...)`` call in a module."""
    return _calls(ast.parse(path.read_text(encoding="utf-8"), str(path)), "open")


def test_only_core_opens_files():
    # File framing has one home: every reader and writer goes through
    # core.read_ascii and core.write_ascii.
    opening = {path.name: _opens(path) for path in sorted(SRC.glob("*.py"))}
    assert opening["core.py"], "the scan found no open() call in core.py"
    assert {name for name, lines in opening.items() if lines} == {"core.py"}, opening


_COPY_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
               "__deepcopy__"}


def test_only_core_defines_copy_semantics():
    # Copy semantics have one home: core's base class rebuilds every copied
    # or unpickled instance through its constructor. A hook elsewhere would
    # be a second construction path that skips the checks.
    hooks = {name: [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name in _COPY_HOOKS]
             for name, tree in _trees().items()}
    assert hooks["core"], "the scan found no copy hook in core.py"
    assert {name for name, lines in hooks.items() if lines} == {"core"}, hooks


def _call_name(func: ast.AST) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _reads_bits(node: ast.AST) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "bits")
               or (isinstance(n, ast.Attribute) and n.attr == "bits") for n in ast.walk(node))


_PACKING_CALLS = {"flatnonzero", "argwhere", "nonzero"}


def _nonzeros(tree: ast.Module) -> list[int]:
    """Line numbers of every ``<x>.nonzero(...)`` call, ``np.nonzero`` among them, and of
    every ``flatnonzero``, ``argwhere`` or ``nonzero`` call with an argument that reads
    a name or attribute ``bits``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "nonzero")
                or (_call_name(node.func) in _PACKING_CALLS
                    and any(map(_reads_bits, [*node.args, *node.keywords]))))]


# Subtracting from, floor-dividing or taking the remainder of a flat index
# derives its row or column, as operators or as numpy (or builtin) calls.
_SPLIT_OPS = (ast.Sub, ast.FloorDiv, ast.Mod)
_SPLIT_CALLS = {"divmod", "floor_divide", "remainder", "mod", "fmod", "subtract"}


# The names of a packed index's flat positions and of the rows and columns split from it.
_PACKED_NAMES = {"flat", "rows", "cols"}


def _splits_flat(tree: ast.Module) -> list[int]:
    """Line numbers where a name ``flat``, ``rows`` or ``cols``, or a subscript of one, is
    split into rows or columns or re-based by a subtraction."""
    def is_flat(node):
        if isinstance(node, ast.Subscript):
            return is_flat(node.value)
        return isinstance(node, ast.Name) and node.id in _PACKED_NAMES

    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, _SPLIT_OPS)
                and is_flat(node.left))
            or (isinstance(node, ast.AugAssign) and isinstance(node.op, _SPLIT_OPS)
                and is_flat(node.target))
            or (isinstance(node, ast.Call) and _call_name(node.func) in _SPLIT_CALLS
                and node.args and is_flat(node.args[0]))]


def test_only_core_packs_candidates():
    # The packing rule of candidate entries has one home: core._pack, which
    # CandidateMatrix caches and the trainer calls on plain batch bits. It
    # alone finds the entries and derives their rows and columns. Each
    # assert also fails when the scan finds nothing in core.py.
    trees = _trees()
    packing = {name: _nonzeros(tree) for name, tree in trees.items()}
    assert {name for name, lines in packing.items() if lines} == {"core"}, packing
    splitting = {name: _splits_flat(tree) for name, tree in trees.items()}
    assert {name for name, lines in splitting.items() if lines} == {"core"}, splitting


def test_only_packed_weights_become_pseudo_labels():
    # Support containment holds by construction: every PseudoLabelMatrix the
    # package builds comes from kernel weights at the packed candidate
    # entries, which _from_packed scatters into a zero matrix. The dense
    # constructor would keep any mass off the candidate set that it is given.
    trees = _trees()
    assert any(_calls(tree, "_from_packed") for tree in trees.values()), \
        "the scan found no _from_packed call"
    dense = {name: lines for name, tree in trees.items()
             if (lines := _calls(tree, "PseudoLabelMatrix"))}
    assert not dense, dense


def test_kernels_keep_the_packed_index_order():
    # The plr and Sinkhorn kernels work in the row-major order core._pack
    # gives: segment maxima come from np.maximum.at, so no kernel sorts the
    # index, finds segment starts or reduces over them.
    trees = _trees()
    for name in ("solver", "sinkhorn"):
        assert _calls(trees[name], "at"), f"the scan found no maximum.at call in {name}"
        found = {call: lines for call in ("reduceat", "searchsorted", "argsort")
                 if (lines := _calls(trees[name], call))}
        assert not found, (name, found)


def _raising_functions(tree: ast.Module, error: str) -> set[str]:
    """Names of the functions whose body raises ``error`` or ``error(...)``."""
    def raises(node):
        if not isinstance(node, ast.Raise):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == error

    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(map(raises, ast.walk(fn)))}


def test_only_the_forward_pass_checks_predictions():
    # Divergence has one check: every trainer forward pass is _forward_cached,
    # which raises when its probabilities are not finite, and every loss of
    # finite probabilities is finite. train() checks the parameters the last
    # step left, which no forward pass may see.
    raising = _raising_functions(_trees()["trainer"], "NonFiniteLoss")
    assert raising == {"_forward_cached", "train"}, raising


def _imports_time(tree: ast.Module) -> bool:
    return any((isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time")
               for node in ast.walk(tree))


def test_only_report_reads_the_clock():
    # Metrics and model files are functions of the seed. Only the bench
    # command (report.bench_pseudo), which exists to time things, reads
    # the clock.
    clocked = {name for name, tree in _trees().items() if _imports_time(tree)}
    assert "report" in clocked, "the scan found no time import in report.py"
    assert clocked == {"report"}, clocked


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree: ast.Module, modules) -> set[str]:
    """The package's modules that a module imports, at top level or inside a function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (
                node.level == 0 and (node.module or "").split(".")[0] == "plrlab")):
            module = (node.module or "").removeprefix("plrlab").lstrip(".")
            out.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(alias.name.removeprefix("plrlab.") for alias in node.names)
    return out & set(modules)


def test_package_import_graph_is_acyclic():
    trees = _trees()
    graph = {name: _package_imports(tree, trees) for name, tree in trees.items()}
    assert graph["cli"], "the scan found no import in cli.py"
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_kernel_modules_import_only_core():
    # The kernels and the types they share sit one layer above core: a
    # helper two of them need moves to core, not into one of them.
    trees = _trees()
    kernels = ("datagen", "prior", "selection", "sinkhorn", "solver")
    graph = {name: _package_imports(trees[name], trees) for name in kernels}
    assert graph == {name: {"core"} for name in kernels}, graph


def _referenced(node: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute, under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in its ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_definition_is_used_or_exported():
    # No dead code: each top-level function and class is referenced in the
    # package outside its own definition, or listed in its module's __all__.
    trees = _trees()
    total = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused, scanned = [], 0
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scanned += 1
                if node.name not in exported and total[node.name] <= _referenced(node)[node.name]:
                    unused.append(f"{module}.{node.name}")
    assert scanned > 50, f"the scan found only {scanned} definitions"
    assert not unused, unused


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, anywhere in it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return out


def test_every_import_is_read_or_exported():
    # No dead imports: each name a module imports is read in that module,
    # or re-exported through its __all__. The package root is skipped:
    # what it imports is what it exports.
    unused, scanned = [], 0
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        imported = _imported(tree)
        scanned += len(imported)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{module}: {name}" for name in sorted(imported - read - _exported(tree))]
    assert scanned > 50, f"the scan found only {scanned} imported names"
    assert not unused, unused


def test_the_package_has_no_assert():
    # No check may vanish under python -O: the package raises typed errors.
    asserts, raises = [], 0
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            raises += isinstance(node, ast.Raise)
            if isinstance(node, ast.Assert):
                asserts.append(f"{module}:{node.lineno}")
    assert raises > 50, f"the scan found only {raises} raise statements"
    assert not asserts, asserts


_CONFIGS = {"TrainConfig", "SinkhornConfig", "PlrHyperparams", "DatasetSpec"}
# TrainConfig.timing is inert; it stays while the benchmark passes it (ROADMAP item 8).
_UNREAD_FIELDS = {("TrainConfig", "timing")}


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute, ``<x>.name``, under ``node``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_config_field_is_read():
    # No inert setting: the package reads each config field outside its own
    # class body. cli.py does not count, because it reads every default to
    # show it in the help text.
    trees = _trees()
    classes = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in _CONFIGS}
    assert set(classes) == _CONFIGS, f"the scan found only {sorted(classes)}"
    fields = {(name, stmt.target.id) for name, node in classes.items() for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    declared = {(name, f.name) for name in _CONFIGS
                for f in dataclasses.fields(getattr(plrlab, name))}
    assert fields == declared, f"scanned {sorted(fields ^ declared)} differently"
    assert _UNREAD_FIELDS <= fields, f"no longer a field: {sorted(_UNREAD_FIELDS - fields)}"
    reads = sum((_attribute_reads(tree) for module, tree in trees.items() if module != "cli"),
                Counter())
    unread = sorted(f"{name}.{field}" for name, field in fields - _UNREAD_FIELDS
                    if reads[field] <= _attribute_reads(classes[name])[field])
    assert not unread, unread


def _values_keys(node: ast.AST) -> set[str]:
    """The constant keys read as ``values["<key>"]`` under ``node``."""
    return {n.slice.value for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == "values" and isinstance(n.slice, ast.Constant)
            and isinstance(n.ctx, ast.Load)}


def test_every_cli_option_is_read():
    # No inert option: each subcommand's function reads every option it
    # declares, as values["<dest>"]. An option it never reads would be
    # accepted, echoed into the output files and ignored. Each parser takes
    # the table's flags and no others, so no option bypasses the table.
    functions = {node.name: node for node in _trees()["cli"].body
                 if isinstance(node, ast.FunctionDef)}
    unread = [f"{command}: {opt['dest']}" for command, (run, opts, _) in _COMMANDS.items()
              for opt in opts if opt["dest"] not in _values_keys(functions[run.__name__])]
    counts = {command: len(opts) for command, (_, opts, _) in _COMMANDS.items()}
    assert counts == {"gen": 10, "train": 17, "eval": 4, "bench": 6}, counts
    assert not unread, unread
    parsers = build_parser()[1]
    for command, (_, opts, _) in _COMMANDS.items():
        parsed = {flag for action in parsers[command]._actions for flag in action.option_strings}
        assert parsed == {"-h", "--help", *(f for opt in opts for f in opt["flags"])}, command
