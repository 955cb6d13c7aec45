import ast
import copy
import inspect
from pathlib import Path

import numpy as np

import threshmatch
import threshmatch.att
from threshmatch import (
    BootstrapResult,
    McReport,
    SplineBasisSpec,
    estimate_att,
    estimate_att_crossfit,
    fit_ite,
    split_three_way,
)

from conftest import make_null_obs


def test_all_is_unique_resolvable_and_star_importable():
    # a public type removed from a module but left in __all__ breaks star imports
    names = threshmatch.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(threshmatch, name)] == []
    namespace: dict = {}
    exec("from threshmatch import *", namespace)
    assert set(names) <= set(namespace)


def test_matched_differences_stays_in_att_only():
    # the run's record, AttEstimate.differences, is the exported form of the
    # matched gaps; the step itself stays reachable where it is defined
    assert "matched_differences" not in threshmatch.__all__
    assert not hasattr(threshmatch, "matched_differences")
    assert callable(threshmatch.att.matched_differences)


def _private_cross_module_imports(source: str) -> list[str]:
    """Names like ``_x`` (not dunders) taken by ``from .module import _x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("threshmatch")
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{node.module}.{alias.name}")
    return found


def test_private_import_scan_flags_underscore_names():
    assert _private_cross_module_imports("from .data_model import _read_columns, load_csv") == [
        "data_model._read_columns"
    ]
    assert _private_cross_module_imports("from . import __version__") == []


def test_no_module_imports_another_modules_private_names():
    # a private helper used across modules is part of the API in all but name
    package = Path(threshmatch.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _private_cross_module_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_no_stage_takes_a_row_map():
    # stages take data rows; a bootstrap run turns its positions into rows
    stages = [
        threshmatch.fit_gamma,
        threshmatch.residuals_eta,
        threshmatch.fit_beta,
        threshmatch.order_by_eta,
        threshmatch.first_differences,
        threshmatch.match_controls,
        threshmatch.att.matched_differences,
    ]
    assert [f.__name__ for f in stages if "rows" in inspect.signature(f).parameters] == []


def test_only_estimate_theta_takes_a_row_map():
    # the row map stops at the run: estimate_theta turns the parts into data
    # rows, so no other function of att, private or nested, sees a map
    tree = ast.parse(Path(threshmatch.att.__file__).read_text(encoding="utf-8"))
    takers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "rows" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert takers == ["estimate_theta"]


def _split_assignments(source: str) -> list[int]:
    """Line numbers of assignments to an attribute named ``split``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "split" and isinstance(node.ctx, ast.Store)
    )


def test_split_assignment_scan_flags_attribute_writes():
    source = "exc.split = 'I1'\nx = exc.split\na, b.split = 1, 2\nself.split: str = 'x'\ne.split += 'y'\n"
    assert _split_assignments(source) == [1, 3, 4, 5]


def test_only_errors_module_sets_the_split_label():
    # one rule records where a failure happened: errors.labelled
    package = Path(threshmatch.__file__).parent
    offenders = {
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for line in _split_assignments(path.read_text(encoding="utf-8"))
    }
    assert offenders == set()


def _concurrency_uses(source: str) -> list[tuple[int, str]]:
    """Imports of ``threading``, ``queue`` or ``concurrent`` and uses of ``os.fork``, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
            if node.module == "os" and any(alias.name == "fork" for alias in node.names):
                modules.append("os.fork")
        elif isinstance(node, ast.Attribute) and node.attr == "fork" and (
            isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            modules = ["os.fork"]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in modules
            if name == "os.fork" or name.split(".")[0] in ("threading", "queue", "concurrent")
        ]
    return sorted(found)


def test_concurrency_scan_flags_threads_executors_and_forks():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import os, concurrent.futures as cf\n"
        "pid = os.fork()\n"
        "from os import fork, getpid\n"
        "from . import threading_notes\n"
        "ok = hasattr(os, 'fork') and os.getpid()\n"
        "def f():\n"
        "    from threading import Event\n"
        "    from queue import SimpleQueue\n"
        "import queue_notes\n"
    )
    assert _concurrency_uses(source) == [
        (1, "threading"), (2, "concurrent.futures"), (3, "concurrent.futures"), (4, "os.fork"),
        (5, "os.fork"), (9, "threading"), (10, "queue"),
    ]


def test_only_the_parallel_module_starts_threads_or_processes():
    # when to use a second thread or process, and how, is decided in one place
    package = Path(threshmatch.__file__).parent
    offenders = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if path.name != "parallel.py" and (uses := _concurrency_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def _ols_calls_that_copy(source: str) -> list[int]:
    """Line numbers of calls to ``ols`` (by name or attribute) without ``overwrite_a=True``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "ols" or getattr(node.func, "attr", None) == "ols")
        and not any(
            kw.arg == "overwrite_a" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in node.keywords
        )
    )


def test_ols_call_scan_flags_calls_that_copy():
    source = (
        "coef = ols(a, b)\n"
        "coef = ols(a, b, overwrite_a=True)\n"
        "coef = linreg.ols(a, b)\n"
        "coef = ols(a, b, overwrite_a=False)\n"
        "coef = ols(a, b, overwrite_a=flag)\n"
        "def ols(a, b): pass\n"
        "coef = lstsq(a, b)\n"
        "coef = linreg.ols(\n    a, b, overwrite_a=True\n)\n"
    )
    assert _ols_calls_that_copy(source) == [1, 3, 4, 5]


def test_every_fit_factors_its_design_in_place():
    # one copy per design: each caller builds its design column-major for ols
    # to factor where it lies, rather than having ols copy it
    package = Path(threshmatch.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _ols_calls_that_copy(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


ESTIMATOR_MODULES = ("att", "bootstrap", "data_model", "diff_beta", "ite", "linreg", "matching",
                     "parallel", "residualize", "rng")
MA_LOADERS = ("quantile", "percentile", "unique", "median")


def _numpy_ma_loaders(source: str) -> list[int]:
    """Line numbers of ``np.quantile``, ``np.percentile``, ``np.unique`` or ``np.median`` calls."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MA_LOADERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    )


def test_numpy_ma_scan_flags_quantile_percentile_unique_and_median():
    source = (
        "lo, hi = np.quantile(r, [0.025, 0.975])\n"
        "k = linear_quantiles(r, [0.5])\n"
        "p = numpy.percentile(r, 50)\n"
        "u = np.unique(idx, return_counts=True)\n"
        "m = np.median(\n    r\n)\n"
        "s = np.sort(r)\n"
        "q = self.quantile(r)\n"
    )
    assert _numpy_ma_loaders(source) == [1, 3, 4, 5]


def test_estimator_modules_never_call_what_loads_numpy_ma():
    # in numpy 2.4 these reach np.unique, whose first call imports numpy.ma;
    # data_model.linear_quantiles and a sort give the same bits without it
    package = Path(threshmatch.__file__).parent
    offenders = {
        name: lines
        for name in ESTIMATOR_MODULES
        if (lines := _numpy_ma_loaders((package / f"{name}.py").read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_array_records_compare_and_hash_by_identity():
    # a generated __eq__ compares array fields with ==, which raises
    obs = make_null_obs(seed=1)
    splits = split_three_way(obs.n, seed=0)
    est = estimate_att(obs, splits)
    crossfit = estimate_att_crossfit(obs, seed=0)
    model = fit_ite(obs, est, SplineBasisSpec(df_grid=(3,)), cv_seed=0)
    boot = BootstrapResult(np.arange(3.0), 1.0, 0.0, 2.0, 0)
    records = [obs, splits, est.matches, est, crossfit, boot, model, McReport(np.arange(3.0))]
    for record in records:
        twin = copy.copy(record)
        assert record == record and record != twin
        assert len({record, twin, record}) == 2
