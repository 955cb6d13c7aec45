"""The benchmark's span tracer still finds, counts and passes through every wrap point.

``perfbench/tracer.py`` patches package functions by name and derives its
counters from their arguments (``ite.build_basis`` cells come from
``spec.dimension(d)``), so renaming a function or changing what it is passed
breaks traced benchmark runs.  This runs a tiny pipeline under the tracer, loaded
by path from the unedited benchmark directory.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import threshmatch.cli  # noqa: F401  (the tracer wraps cli.main, so the module must be loaded)
from threshmatch import (
    DgpConfig,
    SplineBasisSpec,
    bootstrap_att,
    estimate_att_crossfit,
    generate,
    monte_carlo_ite,
)
from threshmatch.simulate import X_AND_ETA

from conftest import set_cpus

TRACER_PY = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through the module's sys.modules entry
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run_pipeline():
    obs = generate(DgpConfig(n=1200, seed=3))
    crossfit = estimate_att_crossfit(obs, seed=4)
    boot = bootstrap_att(obs, b=5, seed=5)
    mses = monte_carlo_ite(
        DgpConfig(n=1200, seed=0, ite_kind=X_AND_ETA), SplineBasisSpec(include_eta=True), [6]
    )
    return [crossfit.theta_cf, *boot.replicates, boot.sigma2_hat, boot.b_failed, *mses]


def _traced_and_untraced(monkeypatch):
    untraced = _run_pipeline()
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced = _run_pipeline()
    finally:
        tracer.restore()
    return tracer, traced, untraced


def test_traced_run_finds_every_wrap_point_and_matches_untraced(monkeypatch):
    # one CPU: spans recorded in forked children are lost with the child, so
    # exact counts hold only for a run that never forks
    set_cpus(monkeypatch, 1)
    tracer, traced, untraced = _traced_and_untraced(monkeypatch)
    assert tracer.missing == []
    assert np.array_equal(np.array(traced), np.array(untraced))

    basis = [span for span in tracer.spans if span.name == "ite.build_basis"]
    # one fit: 6 grid dfs x 4 CV folds, each built on its training and its
    # held-out rows, the refit built twice (factored, then multiplied), and
    # one prediction for the MSE
    assert len(basis) == 51
    assert all(span.counts["cells"] > 0 for span in basis)
    metrics, _ = tracer.layer_metrics()
    assert metrics["ite.build_basis.calls"]["value"] == 51


def test_traced_run_on_two_cpus_matches_untraced(monkeypatch):
    set_cpus(monkeypatch, 2)
    tracer, traced, untraced = _traced_and_untraced(monkeypatch)
    assert tracer.missing == []
    assert np.array_equal(np.array(traced), np.array(untraced))
