"""The package root re-exports each library module's ``__all__``, and only
that: its public surface is declared once, in the modules."""

import splinequant as sq
from splinequant import gauss_analytics, quantizer_design, reference_oracles, spline_fit, threshold_optimizer

MODULES = (gauss_analytics, spline_fit, quantizer_design, threshold_optimizer, reference_oracles)


def test_root_all_is_the_version_and_the_module_lists():
    declared = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(sq.__all__) == sorted(declared)


def test_no_name_is_declared_twice():
    assert len(set(sq.__all__)) == len(sq.__all__)


def test_every_name_resolves_on_the_root():
    assert isinstance(sq.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sq, name) is getattr(module, name), (module.__name__, name)
