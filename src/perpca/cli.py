"""Command-line interface.

Subcommands: ``synth`` (planted datasets), ``fit`` (federated solver),
``baseline`` (one-shot methods), ``bench`` (experiment grids), ``eval``
(errors of saved components), ``cluster`` (client clustering from local
frames), ``check`` (numerical verification suites).

Flag precedence: explicit flag > JSON config file (``--config``) >
built-in default. Every data-producing command writes a manifest.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, bench, checks, fileio, metrics, model, solver, synth


def _merged(args, defaults):
    """Resolve flag > config-file > default for every known option."""
    config = {}
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text())
        unknown = set(config) - set(defaults)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else config.get(key, default)
    return out


def _parse_r2(text):
    parts = str(text).split(",")
    return int(parts[0]) if len(parts) == 1 else [int(p) for p in parts]


def _add_common(p):
    p.add_argument("--config", help="JSON file with defaults for this command")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="root seed for all randomness")
    p.add_argument("--format", choices=["csv", "bin"], dest="fmt",
                   help="matrix file format (default csv)")


SYNTH_DEFAULTS = dict(
    d=10, N=4, r1=2, r2=2, n=200, global_std=1.0, local_std=10.0, noise_std=0.0,
    theta=None, groups=None, score_dist="gaussian", seed=0, fmt="csv",
    header=False, out="synth-out",
)


def cmd_synth(args):
    t0 = time.time()
    opt = _merged(args, SYNTH_DEFAULTS)
    n = _parse_r2(opt["n"])
    spec = synth.GenerativeSpec(
        d=opt["d"], N=opt["N"], r1=opt["r1"], r2=opt["r2"],
        n_per_client=n if isinstance(n, list) else int(n),
        global_score_std=opt["global_std"], local_score_std=opt["local_std"],
        noise_std=opt["noise_std"], theta_target=opt["theta"],
        score_dist=opt["score_dist"], seed=opt["seed"],
        groups=_spread_groups(opt["groups"], opt["N"]),
    )
    truth = synth.generate_components(spec)
    datasets = synth.generate_observations(truth, spec)
    out = Path(opt["out"])
    outputs = fileio.save_datasets(out, datasets, fmt=opt["fmt"], header=opt["header"])
    outputs += fileio.save_components(out, truth.U_true, truth.V_true,
                                      fmt=opt["fmt"], prefix="truth_")
    manifest = fileio.write_manifest(
        out, "synth", _public_flags(opt), outputs=outputs,
        metrics={"theta_actual": truth.theta_actual, "eigengap": truth.eigengap,
                 "groups": truth.groups},
        wall_time_s=time.time() - t0,
    )
    print(f"wrote {len(outputs)} files and {manifest}")
    return 0


def _spread_groups(groups, n_clients):
    if groups is None:
        return None
    g = int(groups)
    return [i * g // n_clients for i in range(n_clients)]


def _public_flags(opt):
    return {k: v for k, v in opt.items() if not k.startswith("_")}


FIT_DEFAULTS = dict(
    rounds=200, eta="auto", choice=1, retraction="polar", init="distpca",
    r1=2, r2=2, seed=0, truth=None, center=False, stepsize_scale=0.5,
    stop_tol=None, fmt="csv", header=False, out="fit-out",
)


def _load_datasets(paths, opt):
    data_paths = fileio.resolve_data_paths(paths)
    return data_paths, fileio.load_datasets(data_paths, header=opt["header"],
                                            center=opt["center"])


def _load_inputs(paths, opt):
    data_paths, datasets = _load_datasets(paths, opt)
    return data_paths, datasets, [model.covariance(Y) for Y in datasets]


def cmd_fit(args):
    t0 = time.time()
    opt = _merged(args, FIT_DEFAULTS)
    data_paths, datasets, covs = _load_inputs(args.data, opt)
    eta = opt["eta"]
    config = solver.SolverConfig(
        r1=opt["r1"], r2=_parse_r2(opt["r2"]), rounds=opt["rounds"],
        stepsize="auto" if eta == "auto" else float(eta),
        choice=int(opt["choice"]), retraction=opt["retraction"], init=opt["init"],
        seed=opt["seed"], stepsize_scale=opt["stepsize_scale"],
        stop_subspace_tol=opt["stop_tol"],
    )
    truth = None
    if opt["truth"]:
        U_true, V_true = fileio.load_components(opt["truth"], prefix="truth_")
        truth = (U_true, V_true)
    state, trace = solver.run_perpca(covs, config, truth=truth)
    out = Path(opt["out"])
    outputs = fileio.save_components(out, state.U, state.V, fmt=opt["fmt"])
    outputs.append(fileio.save_trace(out / "trace.csv", trace))
    final = {}
    if trace:
        final = {
            "objective": trace[-1].objective,
            "kkt_global": trace[-1].kkt_global,
            "kkt_local": trace[-1].kkt_local,
            "recon_error_mean": trace[-1].recon_error_mean,
            "subspace_error": trace[-1].subspace_error,
            "rounds_run": trace[-1].round,
            # rounds whose objective fell below the previous round's, beyond rounding
            "objective_decreases": sum(b.objective < a.objective - 1e-12
                                       for a, b in zip(trace, trace[1:])),
        }
    manifest = fileio.write_manifest(
        out, "fit", _public_flags(opt), inputs=data_paths, outputs=outputs,
        metrics=final, wall_time_s=time.time() - t0,
    )
    print(f"fit finished in {len(trace)} recorded rounds; wrote {manifest}")
    return 0


BASELINE_DEFAULTS = dict(
    method="distpca", r1=2, r2=2, seed=0, center=False, fmt="csv",
    header=False, out="baseline-out",
)


def cmd_baseline(args):
    t0 = time.time()
    opt = _merged(args, BASELINE_DEFAULTS)
    data_paths, datasets, covs = _load_inputs(args.data, opt)
    r2 = _parse_r2(opt["r2"])
    r2_list = r2 if isinstance(r2, list) else [r2] * len(covs)
    out = Path(opt["out"])
    if opt["method"] == "distpca":
        state = baselines.distpca(covs, opt["r1"], r2_list)
        outputs = fileio.save_components(out, state.U, state.V, fmt=opt["fmt"])
    elif opt["method"] == "indiv":
        frames = baselines.indiv_pca(covs, opt["r1"] + max(r2_list))
        outputs = fileio.save_components(out, None, frames, fmt=opt["fmt"])
    elif opt["method"] == "cpca":
        counts = [Y.shape[1] for Y in datasets]
        frame = baselines.central_pca(covs, counts, opt["r1"] + max(r2_list))
        outputs = fileio.save_components(out, frame, None, fmt=opt["fmt"])
    else:
        raise SystemExit(f"unknown baseline method {opt['method']!r}")
    manifest = fileio.write_manifest(
        out, "baseline", _public_flags(opt), inputs=data_paths, outputs=outputs,
        wall_time_s=time.time() - t0,
    )
    print(f"baseline {opt['method']} wrote {len(outputs)} files and {manifest}")
    return 0


BENCH_DEFAULTS = dict(scenario="error-vs-n", repeats=None, seed=0, out="bench-out")


def cmd_bench(args):
    t0 = time.time()
    opt = _merged(args, BENCH_DEFAULTS)
    name = opt["scenario"]
    if name not in bench.SCENARIOS:
        raise SystemExit(f"unknown scenario {name!r}; choose from {sorted(bench.SCENARIOS)}")
    kwargs = {"seed0": opt["seed"]}
    if opt["repeats"] is not None:
        kwargs["repeats"] = opt["repeats"]
    rows = bench.SCENARIOS[name](**kwargs)
    out = Path(opt["out"])
    out.mkdir(parents=True, exist_ok=True)
    report = out / f"{name}.csv"
    report.write_text(bench.format_csv(rows))
    fileio.write_manifest(out, "bench", _public_flags(opt), outputs=[report],
                          wall_time_s=time.time() - t0)
    print(f"wrote {report} ({len(rows)} rows, {time.time() - t0:.1f}s)")
    return 0


EVAL_DEFAULTS = dict(
    components="fit-out", truth=None, center=False, header=False, fmt="csv", out=None,
)


def cmd_eval(args):
    opt = _merged(args, EVAL_DEFAULTS)
    _, datasets = _load_datasets(args.data, opt)
    U, V = fileio.load_components(opt["components"])
    per_client = []
    for i, Y in enumerate(datasets):
        Vi = V[i] if i < len(V) else None
        if U is not None:
            per_client.append(model.reconstruction_error(Y, U, Vi))
        elif Vi is not None:
            per_client.append(model.reconstruction_error(Y, Vi))
        else:
            raise SystemExit(f"no components available for client {i}")
    result = {
        "recon_error_per_client": per_client,
        "recon_error_mean": float(np.mean(per_client)),
    }
    if opt["truth"]:
        U_true, V_true = fileio.load_components(opt["truth"], prefix="truth_")
        if U is None or not V:
            raise SystemExit("subspace error needs both shared and local components")
        state = model.ComponentState(U, V)
        result["subspace_error"] = metrics.subspace_error(state, (U_true, V_true))
    text = json.dumps(result, indent=2, sort_keys=True)
    if opt["out"]:
        Path(opt["out"]).parent.mkdir(parents=True, exist_ok=True)
        Path(opt["out"]).write_text(text + "\n")
    print(text)
    return 0


CLUSTER_DEFAULTS = dict(components="fit-out", k=2, seed=0, out="cluster-out")


def cmd_cluster(args):
    t0 = time.time()
    opt = _merged(args, CLUSTER_DEFAULTS)
    _, V = fileio.load_components(opt["components"])
    if len(V) < 2:
        raise SystemExit(f"need at least two local frames in {opt['components']}")
    rho = metrics.rho_matrix(V)
    labels = metrics.spectral_cluster(rho, opt["k"], seed=opt["seed"])
    out = Path(opt["out"])
    out.mkdir(parents=True, exist_ok=True)
    rho_path = fileio.save_matrix(out / "rho.csv", rho)
    labels_path = out / "labels.csv"
    labels_path.write_text(
        "client,label\n" + "\n".join(f"{i},{int(l)}" for i, l in enumerate(labels)) + "\n"
    )
    fileio.write_manifest(out, "cluster", _public_flags(opt),
                          outputs=[rho_path, labels_path],
                          metrics={"labels": [int(l) for l in labels]},
                          wall_time_s=time.time() - t0)
    print(f"wrote {rho_path} and {labels_path}")
    return 0


CHECK_DEFAULTS = dict(seed=0, suite=None)


def cmd_check(args):
    opt = _merged(args, CHECK_DEFAULTS)
    names = opt["suite"] if opt["suite"] else None
    reports = checks.run_suites(names, seed=opt["seed"])
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perpca",
        description="shared and client-specific principal components from "
                    "heterogeneous datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate planted-truth client datasets")
    _add_common(p)
    p.add_argument("--d", type=int, help="ambient dimension")
    p.add_argument("--N", type=int, help="number of clients")
    p.add_argument("--r1", type=int, help="shared components")
    p.add_argument("--r2", type=int, help="local components per client")
    p.add_argument("--n", help="observations per client (int or comma list)")
    p.add_argument("--global-std", type=float, dest="global_std")
    p.add_argument("--local-std", type=float, dest="local_std")
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--theta", type=float, help="target heterogeneity (N=2, r2=1)")
    p.add_argument("--groups", type=int, help="number of client groups sharing locals")
    p.add_argument("--score-dist", choices=["gaussian", "rademacher"], dest="score_dist")
    p.add_argument("--header", action="store_const", const=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="run the federated solver on client data files")
    _add_common(p)
    p.add_argument("data", nargs="+", help="client data files or directories")
    p.add_argument("--rounds", type=int)
    p.add_argument("--eta", help="stepsize: positive float or 'auto'")
    p.add_argument("--choice", type=int, choices=[1, 2])
    p.add_argument("--retraction", choices=["polar", "qr"])
    p.add_argument("--init", choices=["distpca", "random"])
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", help="local rank (int or comma list per client)")
    p.add_argument("--truth", help="directory with truth_U / truth_V_<i> files")
    p.add_argument("--center", action="store_const", const=True,
                   help="subtract per-client mean observation")
    p.add_argument("--stepsize-scale", type=float, dest="stepsize_scale")
    p.add_argument("--stop-tol", type=float, dest="stop_tol",
                   help="early stop on subspace error (needs --truth)")
    p.add_argument("--header", action="store_const", const=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", help="one-shot baselines on client data files")
    _add_common(p)
    p.add_argument("data", nargs="+")
    p.add_argument("--method", choices=["distpca", "indiv", "cpca"])
    p.add_argument("--r1", type=int)
    p.add_argument("--r2")
    p.add_argument("--center", action="store_const", const=True)
    p.add_argument("--header", action="store_const", const=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="run a benchmark scenario grid")
    _add_common(p)
    p.add_argument("--scenario", choices=sorted(bench.SCENARIOS))
    p.add_argument("--repeats", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="evaluate saved components on data files")
    _add_common(p)
    p.add_argument("data", nargs="+")
    p.add_argument("--components", help="directory with U / V_<i> files")
    p.add_argument("--truth", help="directory with truth components")
    p.add_argument("--center", action="store_const", const=True)
    p.add_argument("--header", action="store_const", const=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cluster", help="cluster clients from saved local frames")
    _add_common(p)
    p.add_argument("--components")
    p.add_argument("--k", type=int, help="number of clusters")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("check", help="run the numerical verification suites")
    _add_common(p)
    p.add_argument("--suite", action="append", choices=sorted(checks.ALL_SUITES),
                   help="run only this suite (repeatable)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
