"""Every public name the package exports exists, once."""

import qcheat


def test_every_export_resolves_and_appears_once():
    names = qcheat.__all__
    assert [name for name in names if not hasattr(qcheat, name)] == []
    assert sorted(set(names)) == sorted(names)

