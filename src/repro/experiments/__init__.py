"""Experiment drivers.

One function per paper table/figure (:mod:`repro.experiments.tables`), all
sharing a cached measurement run (:mod:`repro.experiments.runner`).  The
benchmark harness and the EXPERIMENTS.md generator both consume these, so
the numbers in the docs and in ``pytest benchmarks/`` always agree.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.drift_study": ("drift_study",),
    "repro.experiments.robustness": ("expected_noise_floor", "seed_sweep"),
    "repro.experiments.runner": ("ExperimentContext", "run_measurement"),
    "repro.experiments.tables": ("ALL_EXPERIMENTS", "ExperimentResult"),
})

# ``drift_study`` is also the name of its defining submodule, and importing
# a submodule binds it on the package, over a lazily resolved name.  The
# function is therefore bound here, at package import.
from repro.experiments.drift_study import drift_study  # noqa: E402
