"""Every public name the package exports exists, once, and each module of
the document layer has one home."""

import ast
import inspect
import types
from pathlib import Path

import qcheat
from qcheat import document, protocol


def test_every_export_resolves_and_appears_once():
    names = qcheat.__all__
    assert [name for name in names if not hasattr(qcheat, name)] == []
    assert sorted(set(names)) == sorted(names)


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    # a name imported into the package but left out of __all__, or the
    # reverse, fails here; submodules bound as attributes are not exports
    bound = {name for name, value in vars(qcheat).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(qcheat.__all__) == bound | {"__version__"}


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
