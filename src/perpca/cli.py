"""Command-line interface.

Subcommands: ``synth`` (planted datasets), ``fit`` (federated solver),
``baseline`` (one-shot methods), ``bench`` (experiment grids), ``eval``
(errors of saved components), ``cluster`` (client clustering from local
frames), ``check`` (numerical verification suites).

Each option is one entry of :data:`OPTIONS`, naming the commands that read
it; the parser, the config-file check and the manifest ``flags`` all come
from that table. Precedence: explicit flag > JSON config file
(``--config``) > built-in default.

:func:`main` owns each command's run: it resolves the options, starts the
clock, calls the command with them, writes the manifest and then prints the
command's closing line. ``eval`` and ``check`` return their exit code and
write no manifest; every other command returns a :class:`Run`.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, bench, checks, fileio, metrics, model, solver, stiefel, synth
from .errors import DimensionError, InvariantError


def _int_list(value):
    """An int, or a list of ints from comma-separated text or a JSON list."""
    if isinstance(value, list):
        return [int(str(v)) for v in value]
    parts = str(value).split(",")
    return int(parts[0]) if len(parts) == 1 else [int(p) for p in parts]


def _stepsize(value):
    """``"auto"`` or a float."""
    return value if value == "auto" else float(str(value))


def _as_given(parse):
    """Option type that rejects what ``parse`` rejects but keeps the value as
    written, which the manifest records; the command parses it."""
    def check(value):
        parse(value)
        return value
    check.__name__ = parse.__name__.strip("_").replace("_", " ")  # for error messages
    return check


@dataclass(frozen=True)
class Option:
    """One option: the flag's value, else the config file's, else ``default``."""

    dest: str
    commands: str  # the commands that read it, space-separated
    default: object = None  # a dict holds one default per command
    type: object = str  # converts flag text, and config strings, to the value
    choices: tuple = None
    help: str = None
    flag: str = None  # "--" + dest with "-" for "_" unless given
    action: str = "store"  # or "switch" (a bare flag meaning true) or "append"

    def add_to(self, parser):
        kwargs = dict(action="store_const", const=True) if self.action == "switch" else dict(
            action=self.action, type=self.type, choices=self.choices)
        parser.add_argument(self.flag or "--" + self.dest.replace("_", "-"),
                            dest=self.dest, help=self.help, **kwargs)

    def from_config(self, value):
        """A config-file value, checked as the flag's would be."""
        if self.action == "switch":
            if not isinstance(value, bool):
                raise ValueError(f"expected true or false, got {value!r}")
            return value
        if self.action == "append":
            return [self._convert(v) for v in (value if isinstance(value, list) else [value])]
        return self._convert(value)

    def _convert(self, value):
        # a string is read as flag text; any other JSON value must be one the
        # conversion keeps: 7 for an int, not 7.5 or true
        converted = self.type(value)
        if not isinstance(value, str) and (
                converted != value or isinstance(converted, bool) != isinstance(value, bool)):
            raise ValueError(f"invalid {self.type.__name__} value: {value!r}")
        if self.choices is not None and converted not in self.choices:
            raise ValueError(f"invalid choice: {converted!r} (choose from "
                             f"{', '.join(map(repr, self.choices))})")
        return converted


COMMANDS = {
    "synth": "generate planted-truth client datasets",
    "fit": "run the federated solver on client data files",
    "baseline": "one-shot baselines on client data files",
    "bench": "run a benchmark scenario grid",
    "eval": "evaluate saved components on data files",
    "cluster": "cluster clients from saved local frames",
    "check": "run the numerical verification suites",
}
TAKES_DATA = ("fit", "baseline", "eval")  # commands with positional data files

OPTIONS = (
    Option("seed", "synth fit bench cluster check", 0, int, help="root seed"),
    Option("out", "synth fit baseline bench eval cluster",
           {"synth": "synth-out", "fit": "fit-out", "baseline": "baseline-out",
            "bench": "bench-out", "eval": None, "cluster": "cluster-out"},
           help="output directory (eval: JSON report file; the report is always printed)"),
    Option("fmt", "synth fit baseline", "csv", choices=("csv", "bin"), flag="--format"),
    Option("header", "synth fit baseline eval", False, action="switch",
           help="files have a header line"),
    Option("center", "fit baseline eval", False, action="switch", help="subtract client means"),
    Option("d", "synth", 10, int, help="ambient dimension"),
    Option("N", "synth", 4, int, help="number of clients"),
    Option("r1", "synth fit baseline", 2, int, help="shared components"),
    Option("r2", "synth", 2, int, help="local components per client"),
    Option("r2", "fit baseline", 2, _as_given(_int_list),
           help="local rank (int or comma list per client)"),
    Option("n", "synth", 200, _as_given(_int_list), help="observations per client (int or list)"),
    Option("global_std", "synth", 1.0, float, help="score std of the shared components"),
    Option("local_std", "synth", 10.0, float, help="score std of the local components"),
    Option("noise_std", "synth", 0.0, float, help="std of the isotropic noise"),
    Option("theta", "synth", None, float, help="target heterogeneity (N=2, r2=1)"),
    Option("groups", "synth", None, int, help="number of client groups sharing locals"),
    Option("score_dist", "synth", "gaussian", choices=synth.SCORE_DISTS),
    Option("rounds", "fit", 200, int, help="communication rounds"),
    Option("eta", "fit", "auto", _as_given(_stepsize), help="stepsize: positive float or 'auto'"),
    Option("choice", "fit", 1, int, choices=solver.CHOICES,
           help="1: tangent step, 2: joint polar step"),
    Option("retraction", "fit", "polar", choices=tuple(stiefel.RETRACTIONS)),
    Option("init", "fit", "distpca", choices=solver.INITS),
    Option("stepsize_scale", "fit", 0.5, float, help="c of the automatic stepsize"),
    Option("stop_tol", "fit", None, float, help="early stop on subspace error (needs --truth)"),
    Option("truth", "fit eval", None, help="directory with truth_U / truth_V_<i> files"),
    Option("method", "baseline", "distpca", choices=("distpca", "indiv", "cpca")),
    Option("scenario", "bench", "error-vs-n", choices=tuple(sorted(bench.SCENARIOS))),
    Option("repeats", "bench", None, int, help="seeds per grid point (default: the scenario's)"),
    Option("components", "eval cluster", "fit-out", help="directory with U / V_<i> files"),
    Option("k", "cluster", 2, int, help="number of clusters"),
    Option("suite", "check", None, choices=tuple(sorted(checks.ALL_SUITES)), action="append"),
)


def _options_of(command):
    return [option for option in OPTIONS if command in option.commands.split()]


def _read_config(path, options):
    """The config file's values, each checked as its flag would be; null means the default."""
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
        if not isinstance(config, dict):
            raise ValueError("expected a JSON object")
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise SystemExit(f"config file {path}: {exc}") from None
    by_dest = {option.dest: option for option in options}
    unknown = set(config) - set(by_dest)
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    checked = {}
    for key, value in config.items():
        try:
            if value is not None:
                checked[key] = by_dest[key].from_config(value)
        except (TypeError, ValueError, OverflowError) as exc:  # int(1e400) overflows
            raise SystemExit(f"config key {key!r}: {exc}") from None
    return checked


def _resolve(args):
    """Each option of ``args.command``: its flag, else the config file, else its default."""
    options = _options_of(args.command)
    config = _read_config(args.config, options)
    opt = {}
    for option in options:
        default = option.default
        if isinstance(default, dict):
            default = default[args.command]
        flag = getattr(args, option.dest)
        opt[option.dest] = flag if flag is not None else config.get(option.dest, default)
    return opt


class Run(NamedTuple):
    """What a command wrote, for :func:`main` to record in its manifest."""

    outputs: list
    line: Callable  # the closing line, given the manifest path
    inputs: dict = None  # data file -> sha256 of the bytes read from it
    metrics: dict = None


def cmd_synth(args, opt):
    if opt["groups"] is not None and not 1 <= opt["groups"] <= opt["N"]:
        raise ValueError(f"--groups must lie in [1, N={opt['N']}], got {opt['groups']}")
    spec = synth.GenerativeSpec(
        d=opt["d"], N=opt["N"], r1=opt["r1"], r2=opt["r2"],
        n_per_client=_int_list(opt["n"]),
        global_score_std=opt["global_std"], local_score_std=opt["local_std"],
        noise_std=opt["noise_std"], theta_target=opt["theta"],
        score_dist=opt["score_dist"], seed=opt["seed"],
        groups=None if opt["groups"] is None else [
            i * opt["groups"] // opt["N"] for i in range(opt["N"])],
    )
    truth = synth.generate_components(spec)
    outputs = fileio.write_clients(opt["out"], lambda i: synth.client_observations(truth, spec, i),
                                   [(spec.d, n) for n in spec.n_per_client],
                                   fmt=opt["fmt"], header=opt["header"])
    outputs += fileio.save_components(opt["out"], truth.U_true, truth.V_true,
                                      fmt=opt["fmt"], prefix="truth_")
    return Run(outputs, lambda manifest: f"wrote {len(outputs)} files and {manifest}",
               metrics={"theta_actual": truth.theta_actual, "eigengap": truth.eigengap,
                        "groups": truth.groups})


def _read_covariances(paths, opt):
    """The sha256 of each data file's bytes by path, and the clients' covariances and
    sample counts, each computed where its file was read."""
    replies = fileio.read_clients(paths, lambda i, Y: model.covariance(Y), opt["header"],
                                  opt["center"], digest=True)
    digests = {path: digest for path, (digest, _, _) in zip(paths, replies)}
    return digests, [S for _, _, S in replies], [shape[1] for _, shape, _ in replies]


def _require_frame_per_file(V, paths, directory, prefix=""):
    """One local frame per data file; else a DimensionError naming ``directory`` and
    the first frame or file without its pair."""
    if len(V) != len(paths):
        first = (f"no {prefix}V_{len(V)} for {paths[len(V)]}" if len(V) < len(paths)
                 else f"{prefix}V_{len(paths)} has no data file")
        raise DimensionError(f"{len(V)} local frames in {directory} for "
                             f"{len(paths)} data files: {first}")


def cmd_fit(args, opt):
    config = solver.SolverConfig(
        r1=opt["r1"], r2=_int_list(opt["r2"]), rounds=opt["rounds"],
        stepsize=_stepsize(opt["eta"]), choice=opt["choice"],
        retraction=opt["retraction"], init=opt["init"],
        seed=opt["seed"], stepsize_scale=opt["stepsize_scale"],
        stop_subspace_tol=opt["stop_tol"],
    )
    if config.stop_subspace_tol is not None and not opt["truth"]:
        raise SystemExit("--stop-tol needs --truth: early stopping compares with the true frames")
    paths = fileio.resolve_data_paths(args.data)
    truth = _load_truth(opt["truth"], paths) if opt["truth"] else None
    digests, covs, _ = _read_covariances(paths, opt)
    if truth is not None and len(truth[1][0]) != len(covs[0]):
        raise DimensionError(f"{paths[0]}: data has d={len(covs[0])}, but the truth in "
                             f"{opt['truth']} has d={len(truth[1][0])}")
    state, trace = solver.run_perpca(covs, config, truth=truth)
    outputs = fileio.save_components(opt["out"], state.U, state.V, fmt=opt["fmt"])
    outputs.append(fileio.save_trace(Path(opt["out"], "trace.csv"), trace))
    final = {}
    if trace:
        final = trace[-1]._asdict()
        final["rounds_run"] = final.pop("round")
        # rounds whose objective fell below the previous round's, beyond rounding
        final["objective_decreases"] = sum(b.objective < a.objective - 1e-12
                                           for a, b in zip(trace, trace[1:]))
    return Run(outputs, lambda manifest: f"fit finished in {len(trace)} recorded rounds; "
                                         f"wrote {manifest}", inputs=digests, metrics=final)


def cmd_baseline(args, opt):
    digests, covs, counts = _read_covariances(fileio.resolve_data_paths(args.data), opt)
    r1, r2 = opt["r1"], _int_list(opt["r2"])
    if opt["method"] != "distpca":  # distpca checks the ranks itself
        r_total = r1 + max(model.local_ranks(r1, r2, len(covs), len(covs[0])))
    if opt["method"] == "distpca":
        state = baselines.distpca(covs, r1, r2)
        outputs = fileio.save_components(opt["out"], state.U, state.V, fmt=opt["fmt"])
    elif opt["method"] == "indiv":
        frames = baselines.indiv_pca(covs, r_total)
        outputs = fileio.save_components(opt["out"], None, frames, fmt=opt["fmt"])
    else:
        frame = baselines.central_pca(covs, counts, r_total)
        outputs = fileio.save_components(opt["out"], frame, None, fmt=opt["fmt"])
    return Run(outputs, lambda manifest: f"baseline {opt['method']} wrote {len(outputs)} "
                                         f"files and {manifest}", inputs=digests)


def cmd_bench(args, opt):
    t0 = time.time()
    name = opt["scenario"]
    kwargs = {"seed0": opt["seed"]}
    if opt["repeats"] is not None:
        kwargs["repeats"] = opt["repeats"]
    rows = bench.SCENARIOS[name](**kwargs)
    report = fileio.save_table(Path(opt["out"], f"{name}.csv"), bench.report_columns(rows), rows,
                               bench.REPORT_FMT)
    return Run([report], lambda manifest: f"wrote {report} ({len(rows)} rows, "
                                          f"{time.time() - t0:.1f}s)")


def _load_components(directory, prefix=""):
    """Saved frames after the frame rule, as one state when there is a shared frame;
    a frame error names ``directory``."""
    U, V = fileio.load_components(directory, prefix)
    try:
        if U is not None:
            model.ComponentState(U, V).validate()
        else:
            for i, Vi in enumerate(V):
                stiefel.require_frame(Vi, f"local frame {i}")
    except (DimensionError, InvariantError) as exc:
        raise type(exc)(f"{directory}: {exc}") from exc
    return U, V


def _load_truth(directory, paths):
    """A truth's frames after the frame rule; a DimensionError naming ``directory`` unless
    it holds ``truth_U`` and one ``truth_V_<i>`` per data file."""
    U, V = _load_components(directory, prefix="truth_")
    if U is None:
        raise DimensionError(f"{directory} has no truth_U: a truth needs its shared frame")
    _require_frame_per_file(V, paths, directory, prefix="truth_")
    return U, V


def cmd_eval(args, opt):
    data_paths = fileio.resolve_data_paths(args.data)
    U, V = _load_components(opt["components"])
    # one local frame per data file; a shared frame alone (cpca) serves every client
    if V or U is None:
        _require_frame_per_file(V, data_paths, opt["components"])
    result = {}
    if opt["truth"]:
        if U is None or not V:
            raise SystemExit("subspace error needs both shared and local components")
        truth = _load_truth(opt["truth"], data_paths)
        if len(truth[0]) != len(U):
            raise DimensionError(f"{opt['components']}: components have d={len(U)}, but the "
                                 f"truth in {opt['truth']} has d={len(truth[0])}")
        result["subspace_error"] = metrics.subspace_error(model.ComponentState(U, V), truth)
    frames = [[F for F in (U, Vi) if F is not None] for Vi in V or [None] * len(data_paths)]

    def error(i, Y):  # None when the frames have another d, raised below in client order
        return (model._reconstruction_error(Y, frames[i])
                if Y.shape[0] == frames[i][0].shape[0] else None)

    replies = fileio.read_clients(data_paths, error, opt["header"], opt["center"])
    for path, (_, shape, err), F in zip(data_paths, replies, frames):
        if err is None:
            raise DimensionError(f"{path}: data {shape} and frame {F[0].shape} disagree on d")
        if not np.isfinite(err):
            raise ValueError(f"{path}: reconstruction error {err} is not finite")
    per_client = [err for _, _, err in replies]
    mean = float(np.mean(per_client))
    if not np.isfinite(mean):
        raise ValueError(f"the mean reconstruction error of {len(per_client)} clients overflows")
    result.update(recon_error_per_client=per_client, recon_error_mean=mean)
    print(fileio.save_json(opt["out"], result), end="")
    return 0


def cmd_cluster(args, opt):
    _, V = _load_components(opt["components"])
    if len(V) < 2:
        raise SystemExit(f"need at least two local frames in {opt['components']}")
    rho = metrics.rho_matrix(V)
    labels = metrics.spectral_cluster(rho, opt["k"], seed=opt["seed"])
    rho_path = fileio.save_matrix(Path(opt["out"], "rho.csv"), rho)
    labels_path = fileio.save_table(Path(opt["out"], "labels.csv"), ["client", "label"],
                                    [{"client": i, "label": int(l)} for i, l in enumerate(labels)])
    return Run([rho_path, labels_path], lambda manifest: f"wrote {rho_path} and {labels_path}",
               metrics={"labels": [int(l) for l in labels]})


def cmd_check(args, opt):
    names = opt["suite"] if opt["suite"] else None
    reports = checks.run_suites(names, seed=opt["seed"])
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def build_parser(command=None):
    """The ``perpca`` parser, built from :data:`COMMANDS` and :data:`OPTIONS`.

    Each subcommand dispatches to the ``cmd_<name>`` attribute of this
    module as it is when the parser is built. Given a ``command``, the parser
    has that subcommand alone: enough to parse, and print the help of, an
    argv that starts with it.
    """
    parser = argparse.ArgumentParser(
        prog="perpca",
        description="shared and client-specific principal components from "
                    "heterogeneous datasets",
    )
    # with one subcommand built, the usage line still names them all
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if command else None)
    for name in [command] if command else COMMANDS:
        p = sub.add_parser(name, help=COMMANDS[name])
        p.set_defaults(func=globals()[f"cmd_{name}"])
        if name in TAKES_DATA:
            p.add_argument("data", nargs="+", help="client data files or directories")
        p.add_argument("--config", help="JSON file with defaults for this command")
        for option in _options_of(name):
            option.add_to(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no options but --help, so argv[0] names the command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    t0 = time.time()
    opt = _resolve(args)
    run = args.func(args, opt)
    if not isinstance(run, Run):  # eval and check: an exit code and no manifest
        return run
    manifest = fileio.write_manifest(opt["out"], args.command, opt, inputs=run.inputs,
                                     outputs=run.outputs, metrics=run.metrics,
                                     wall_time_s=time.time() - t0)
    print(run.line(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
