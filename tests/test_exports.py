"""The package's exported names: each resolves, and the public surface is pinned.

A stale ``__all__`` entry breaks ``from polya_urn.<module> import *`` and
anything that walks ``__all__`` with ``getattr``.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import polya_urn
from polya_urn.output import OutputRecord

_MODULES = [polya_urn] + [
    importlib.import_module(f"polya_urn.{info.name}")
    for info in pkgutil.iter_modules(polya_urn.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in _MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


_PUBLIC_NAMES = [
    "ApproxResult", "DPTable", "DomainError", "EstimateWithCI", "ExactProbability",
    "PolyaUrnError", "ResourceLimitError", "RngSeed", "UrnConfig", "__version__",
    "beta_cdf_rational", "chernoff_bound", "definetti_estimator",
    "equalization_probability", "equalization_probability_binomial",
    "equalization_probability_complement", "estimate_equalization",
    "first_passage_dp", "normal_approximation",
]
_FIELDS = {
    polya_urn.UrnConfig: ("black", "white"),
    polya_urn.ExactProbability: ("value",),
    polya_urn.DPTable: ("config", "target_diff", "hit_pmf", "cumulative"),
    polya_urn.EstimateWithCI: ("n_samples", "total", "total_sq"),
    polya_urn.ApproxResult: ("value", "kind", "exact_ref"),
    polya_urn.RngSeed: ("seed",),
    OutputRecord: (
        "b", "w", "method", "value", "exact", "target", "horizon", "samples", "seed",
        "streams", "std_err", "ci_lo", "ci_hi", "reference", "z_score", "note",
    ),
}
# values derived from the fields above: read-only properties, never stored
_PROPERTIES = {
    polya_urn.DPTable: ("horizon",),
    polya_urn.EstimateWithCI: ("p_hat", "std_err", "effective_samples", "ci95", "degenerate"),
    polya_urn.ApproxResult: ("abs_error", "rel_error"),
}


def test_public_surface_is_pinned():
    """``polya_urn.__all__``, the result types' fields and their derived properties.

    A public-API change edits this pin and lists the change in CHANGES.md in
    the same commit, so neither happens by accident.
    """
    assert sorted(polya_urn.__all__) == _PUBLIC_NAMES
    for cls, names in _FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__
    for cls, names in _PROPERTIES.items():
        for name in names:
            prop = inspect.getattr_static(cls, name)
            assert isinstance(prop, property) and prop.fset is None, f"{cls.__name__}.{name}"
