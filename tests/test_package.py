"""The package namespace: public names resolve from their modules on first use."""

import pytest

import packlat


def test_every_public_name_resolves_through_getattr_and_from_import():
    from packlat import coloring, errors, grid, oracle, search

    for name in packlat.__all__:
        namespace: dict = {}
        exec(f"from packlat import {name}", namespace)
        assert namespace[name] is getattr(packlat, name)
    assert (packlat.verify, packlat.TooLarge, packlat.GridSpec, packlat.OracleResult,
            packlat.solve) == (coloring.verify, errors.TooLarge, grid.GridSpec,
                               oracle.OracleResult, search.solve)
    assert {"solve", "GridSpec", "search"} <= set(dir(packlat))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'packlat' has no attribute 'solver'"):
        packlat.solver
    with pytest.raises(ImportError):
        exec("from packlat import solver", {})
