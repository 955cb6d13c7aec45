"""Command-line front end.

Four subcommands -- ``estimate``, ``bootstrap``, ``ite``, ``simulate`` --
wrap the library with CSV input and JSON output on stdout.  Every run
embeds a manifest (subcommand, flags, seed, version, input digest, wall
time) and is bit-reproducible from the manifest's flags; only the recorded
duration varies between identical runs.

Exit codes: 0 success; 2 input validation; 3 numeric or structural
failure (a singular fit, or a split left without treated or control
rows); 4 bootstrap failure budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .att import estimate_att, estimate_att_crossfit, estimate_theta
from .bootstrap import bootstrap_att, check_settings
from .data_model import (
    ColumnSpec,
    ObservationSet,
    load_csv,
    read_columns,
    split_three_way,
    treatment_mask,
    write_columns,
    write_csv,
)
from .errors import InputError, ThreshmatchError, TooManyFailures
from .ite import DEFAULT_DF_GRID, SplineBasisSpec, fit_ite, predict_ite_batch, save_ite_model
from .rng import derive_seed
from .simulate import (
    X_AND_ETA,
    X_ONLY,
    DgpConfig,
    generate,
    monte_carlo_att,
    monte_carlo_ite,
)

GEN_COLUMNS = ColumnSpec(
    y_col="y", q_col="q", x_cols=["x1", "x2", "x3"], z_cols=["x1", "x2", "x3", "x4"], tau0=0.0
)

_KIND_BY_FLAG = {"x-only": X_ONLY, "x-and-eta": X_AND_ETA}

# simulate flags a mode would drop without using them; each defaults to None,
# so a flag given is one that is not None
_UNUSED_BY_MODE = {
    "gen": ("crossfit", "reps", "df_grid", "include_eta"),
    "mc-att": ("df_grid", "include_eta"),
    "mc-ite": ("crossfit", "out"),
}

# the exit code of a failure: the first row whose class it is an instance of
_EXIT_CODES = ((TooManyFailures, 4), ((InputError, OSError), 2), (ThreshmatchError, 3))


def _comma_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in _comma_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")


def _bool_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _manifest(args: argparse.Namespace, started: float, input_digest: str | None) -> dict:
    # json.dumps writes the tuple flags (--df-grid) as arrays
    return {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": args.seed,
        "version": __version__,
        "input_digest": input_digest,
        "duration_s": time.perf_counter() - started,
    }


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load(args: argparse.Namespace) -> tuple[ObservationSet, str]:
    """The ``--data`` sample and the SHA-256 of the bytes it was parsed from.

    The digest is fed by the chunked read that parses the file
    (:func:`~threshmatch.data_model.load_csv`), so it is that of the
    parsed bytes even if the file changes while the command runs.
    """
    spec = ColumnSpec(
        y_col=args.y, q_col=args.q, x_cols=args.x, z_cols=args.z, tau0=args.tau
    )
    derive_seed(args.seed)  # raises InputError unless rng takes it as a seed
    sha256 = hashlib.sha256()
    obs = load_csv(args.data, spec, sha256)
    if args.add_intercept_z:
        obs = obs.with_z_intercept()
    return obs, sha256.hexdigest()


def _add_estimate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--y", required=True, help="outcome column")
    parser.add_argument("--q", required=True, help="score column")
    parser.add_argument("--x", required=True, type=_comma_list, help="outcome covariate columns (comma-separated)")
    parser.add_argument("--z", required=True, type=_comma_list, help="score covariate columns (comma-separated; may overlap --x)")
    parser.add_argument("--tau", required=True, type=float, help="treatment threshold (score >= tau is treated)")
    parser.add_argument("--seed", type=int, default=0, help="master seed for the split shuffle and all derived streams")
    parser.add_argument("--add-intercept-z", action="store_true", help="append a constant column to the score covariates")


def cmd_estimate(args: argparse.Namespace) -> dict:
    obs, digest = _load(args)
    mask = treatment_mask(obs)
    if args.crossfit:
        cf = estimate_att_crossfit(obs, seed=args.seed)
        first = cf.rotations[0]
        theta = cf.theta_cf
        extra = {"theta_rotations": [r.theta_hat for r in cf.rotations]}
    else:
        first = estimate_att(obs, split_three_way(obs.n, seed=args.seed))
        theta = first.theta_hat
        extra = {}
    return {
        "theta_hat": theta,
        "beta_hat": [float(v) for v in first.beta_hat],
        "gamma_hat": [float(v) for v in first.gamma_hat],
        "n": obs.n,
        "n_treated": int(mask.sum()),
        "n_control": int((~mask).sum()),
        **extra,
        "input_digest": digest,
    }


def cmd_bootstrap(args: argparse.Namespace) -> dict:
    check_settings(args.b, args.level)
    obs, digest = _load(args)
    theta = estimate_theta(obs, args.seed, args.crossfit)
    result = bootstrap_att(obs, b=args.b, level=args.level, seed=args.seed, crossfit=args.crossfit)
    return {
        "theta_hat": theta,
        "sigma2_hat": result.sigma2_hat,
        "ci": [result.ci_low, result.ci_high],
        "level": args.level,
        "b": args.b,
        "b_failed": result.b_failed,
        "input_digest": digest,
    }


def cmd_ite(args: argparse.Namespace) -> dict:
    if args.predictions_out and not args.predict_grid:
        raise InputError("--predictions-out requires --predict-grid PATH")
    spec = SplineBasisSpec(df_grid=args.df_grid, include_eta=args.include_eta)
    # the model's covariate layout: the x columns, then eta_hat if fitted on it
    names = [*args.x, "eta_hat"] if args.include_eta else [*args.x]
    if args.predict_grid and args.include_eta and "eta_hat" in args.x:
        raise InputError("--x column 'eta_hat' clashes with the grid's score residual column "
                         "under --include-eta true")
    obs, digest = _load(args)
    grid = read_columns(args.predict_grid, names, min_rows=1) if args.predict_grid else None
    est = estimate_att(obs, split_three_way(obs.n, seed=args.seed))
    model = fit_ite(obs, est, spec, cv_seed=derive_seed(args.seed, 1))
    save_ite_model(model, args.model_out)

    predictions_path = None
    if grid is not None:
        preds = predict_ite_batch(model, grid)
        predictions_path = args.predictions_out or args.model_out + ".predictions.csv"
        write_columns(predictions_path, [*names, "alpha_hat"], [*grid.T, preds])

    return {
        "theta_hat": est.theta_hat,
        "chosen_df": model.basis.df,
        "training_mse": model.training_mse,
        "n_train": est.matches.treated_idx.size,
        "model_out": args.model_out,
        "predictions_out": predictions_path,
        "input_digest": digest,
    }


def cmd_simulate(args: argparse.Namespace) -> dict:
    for flag in _UNUSED_BY_MODE[args.mode]:
        if getattr(args, flag) is not None:
            raise InputError(f"--{flag.replace('_', '-')} does not apply to --mode {args.mode}")
    # resolved in args, so the manifest's flags record the value used
    defaults = {
        "crossfit": False,
        "reps": 100,
        "df_grid": DEFAULT_DF_GRID,
        "include_eta": args.ite_kind == "x-and-eta",
    }
    for flag, value in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    if args.mode == "gen" and not args.out:
        raise InputError("--mode gen requires --out PATH")
    config = DgpConfig(n=args.n, seed=args.seed, ite_kind=_KIND_BY_FLAG[args.ite_kind])
    if args.mode == "gen":
        obs = generate(config)
        columns = write_csv(args.out, obs, GEN_COLUMNS)
        return {"written": args.out, "n": obs.n, "columns": columns}
    if args.mode == "mc-att":
        report = monte_carlo_att(config, reps=args.reps, crossfit=args.crossfit)
        if args.out:
            report.write_histogram_csv(args.out)
        return {"report": report.to_json_dict(), "histogram_out": args.out}
    # mc-ite
    spec = SplineBasisSpec(df_grid=args.df_grid, include_eta=args.include_eta)
    seeds = [derive_seed(args.seed, k) for k in range(args.reps)]
    mses = monte_carlo_ite(config, spec, seeds)
    return {"mses": mses, "median_mse": float(np.median(mses))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshmatch",
        description="ATT/ITE estimation for threshold-allocated treatments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="point estimate of the ATT")
    _add_estimate_flags(p_est)
    p_est.add_argument("--crossfit", action="store_true", help="average the three role rotations")
    p_est.set_defaults(func=cmd_estimate)

    p_boot = sub.add_parser("bootstrap", help="bootstrap variance and confidence interval")
    _add_estimate_flags(p_boot)
    p_boot.add_argument("--crossfit", action="store_true")
    p_boot.add_argument("--b", required=True, type=int, help="number of bootstrap replicates")
    p_boot.add_argument("--level", type=float, default=0.95, help="confidence level in (0,1)")
    p_boot.set_defaults(func=cmd_bootstrap)

    p_ite = sub.add_parser("ite", help="fit the individual-effect surface")
    _add_estimate_flags(p_ite)
    p_ite.add_argument("--df-grid", type=_comma_ints, default=DEFAULT_DF_GRID, help="candidate degrees of freedom (comma-separated)")
    p_ite.add_argument("--include-eta", type=_bool_flag, default=False, help="regress on the score residual as well as x")
    p_ite.add_argument("--model-out", required=True, help="path for the serialized model")
    p_ite.add_argument("--predict-grid", default=None, help="CSV of covariate points to evaluate (x columns, plus eta_hat when --include-eta true)")
    p_ite.add_argument("--predictions-out", default=None, help="path for grid predictions (default: MODEL_OUT.predictions.csv)")
    p_ite.set_defaults(func=cmd_ite)

    p_sim = sub.add_parser("simulate", help="synthetic generation and Monte-Carlo checks")
    p_sim.add_argument("--mode", required=True, choices=["mc-att", "mc-ite", "gen"])
    p_sim.add_argument("--n", required=True, type=int, help="rows per dataset")
    p_sim.add_argument("--reps", type=int, default=None, help="mc-att, mc-ite: Monte-Carlo replicates (default: 100)")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--crossfit", action="store_true", default=None, help="mc-att: cross-fit every replicate")
    p_sim.add_argument("--ite-kind", choices=sorted(_KIND_BY_FLAG), default="x-and-eta", help="effect surface of the generator")
    p_sim.add_argument("--include-eta", type=_bool_flag, default=None, help="mc-ite: regress on the score residual (default: matches --ite-kind)")
    p_sim.add_argument("--df-grid", type=_comma_ints, default=None, help=f"mc-ite: candidate degrees of freedom (comma-separated; default {','.join(map(str, DEFAULT_DF_GRID))})")
    p_sim.add_argument("--out", default=None, help="gen: CSV path; mc-att: histogram CSV path")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # every command returns its payload, with the digest of the data it
        # parsed, if any, for the manifest; the manifest and output are shared
        payload = args.func(args)
        payload["manifest"] = _manifest(args, started, payload.pop("input_digest", None))
        _emit(payload)
        return 0
    except (ThreshmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
