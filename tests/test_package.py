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


# off the public surface but still defined: the benchmark's tracer binds the
# report shims and the checked inverse, and target_moments uses integrate
DEMOTED = {
    gauss_analytics: ("integrate",),
    spline_fit: ("invert_segment", "InversionError"),
    quantizer_design: ("sqnr", "granular_distortion", "overload_distortion_exact"),
}


def test_demoted_names_leave_the_root_but_stay_in_their_modules():
    for module, names in DEMOTED.items():
        for name in names:
            assert name not in module.__all__ and name not in sq.__all__, name
            assert not hasattr(sq, name), name
            assert callable(getattr(module, name)), name


def test_report_shims_read_the_quantizer_report():
    q = sq.evaluate_candidate(16, 2.0)
    assert quantizer_design.sqnr(q) is q.report
    assert quantizer_design.granular_distortion(q) is q.report.granular
    assert quantizer_design.overload_distortion_exact(q) is q.report.overload_exact
