"""Every public name is declared once, in the ``__all__`` of the module that
defines it, the package exports their union, and each module of the
document layer has one home."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import qcheat
from qcheat import document, protocol

PACKAGE = Path(qcheat.__file__).parent
MODULES = ("qcore", "fidelity", "schmidt", "document", "protocol", "attack", "cointoss")
# bound only because perfbench/spans.py looks them up at these modules
TRACER_BINDINGS = {"protocol.yaml", "protocol.Projector", "protocol.parse_protocol",
                   "protocol.purify_protocol", "protocol.resolve_document",
                   "cointoss.parse_coin_protocol"}


def _public(name) -> list:
    return importlib.import_module(f"qcheat.{name}").__all__


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_export_resolves_and_appears_once():
    names = qcheat.__all__
    assert [name for name in names if not hasattr(qcheat, name)] == []
    assert sorted(set(names)) == sorted(names)


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    # the package binds nothing public beyond what the modules declare;
    # submodules bound as attributes are not exports
    bound = {name for name, value in vars(qcheat).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(qcheat.__all__) == bound | {"__version__"}


def test_the_package_exports_the_module_lists_and_its_version():
    names = [name for module in MODULES for name in _public(module)] + ["__version__"]
    assert qcheat.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_defined_at_its_module_top_level(module):
    defined = set()
    for node in _tree(PACKAGE / f"{module}.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    assert sorted(set(_public(module)) - defined) == []


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_exactly_the_module_list(module):
    namespace = {}
    exec(f"from qcheat.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(_public(module))


def test_no_tracer_binding_is_public():
    for binding in sorted(TRACER_BINDINGS):
        module, _, name = binding.partition(".")
        assert hasattr(importlib.import_module(f"qcheat.{module}"), name), binding
    assert sorted(f"{module}.{name}" for module in MODULES for name in _public(module)
                  if f"{module}.{name}" in TRACER_BINDINGS) == []


def test_every_imported_name_is_used():
    # no linter runs here, so dead imports are caught by this walk; the
    # tracer's bindings are the only names imported and left unread
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = _tree(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}.{name}" for alias in node.names
                           if (name := alias.asname or alias.name.partition(".")[0]) not in read]
    assert sorted(set(unused) - TRACER_BINDINGS) == []


def test_protocol_binds_no_private_name_of_document():
    # document's internals have one home; protocol imports only public names
    private = {name for name in vars(document)
               if name.startswith("_") and not name.startswith("__")}
    assert sorted(private & set(vars(protocol))) == []


def test_document_does_not_import_protocol():
    # protocol runs what document parses; the reverse import would be a cycle
    for node in ast.walk(ast.parse(inspect.getsource(document))):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "protocol"
            assert "protocol" not in [alias.name for alias in node.names]


def test_only_document_reads_or_writes_yaml():
    # protocol binds yaml only for the benchmark's tracer and calls nothing on it
    calls = [node for node in ast.walk(ast.parse(inspect.getsource(protocol)))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "yaml"]
    assert calls == []


class _HandlerSites(ast.NodeVisitor):
    """The innermost enclosing function of every ``except`` handler that
    names ``InvariantViolation``."""

    def __init__(self, module):
        self.scope, self.sites = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ExceptHandler(self, node):
        if node.type is not None and "InvariantViolation" in ast.unparse(node.type):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_cli_main_maps_a_broken_invariant_to_an_outcome():
    # document._parse_op re-raises a GateOp's refusal as a located input
    # error; any other handler would turn a broken invariant into a result
    sites = []
    for path in sorted(Path(qcheat.__file__).parent.glob("*.py")):
        finder = _HandlerSites(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += finder.sites
    assert "cli.main" in sites
    assert sorted(set(sites) - {"cli.main", "document._parse_op"}) == []
