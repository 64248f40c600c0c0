"""Every public name the package exports exists, once."""

import types

import qcheat


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
