"""Command-line front end: kernel generation, validation, corona inspection,
transform-norm search, the main experiment, the identity battery, and report
re-rendering.  Exit codes: 0 success, 1 validation failure, 2 config error
(a file that cannot be read or written included), 3 internal error (an
invariant of the program failed, not of the input).

Outputs are deterministic: identical (config, seed) produce byte-identical
files.  Every output embeds the tool version and the resolved configuration
as leading comment lines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .accretive import _PARAM_NAMES, ACCRETIVE_KINDS, AccretiveSystem
from .corona import (
    ConfigError,
    _member_links,
    build_corona,
    check_delta,
    check_tau_target,
    choose_delta,
    forest_carleson,
    packing_ratio,
)
from .grid import GridSpec
from .kernels import KERNEL_KINDS, generate_kernel, load_kernel, save_kernel, validate_size
from .twisted import make_context
from .verify import (
    NORM_METHODS,
    ExperimentConfig,
    VerifierReport,
    _tloc,
    adversarial_transform_search,
    identity_suite,
    main_theorem_experiment,
    norm_method_for,
    operator_norm,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

PLOT_KINDS = ("ratio-hist", "ratio-vs-seed", "packing-vs-delta")


def _system_params(args) -> dict:
    """The one parameter of ``--accretive-kind`` from its flag, None when not
    given: ``--amp`` of random (default 0.4) or ``--s`` of two-value (default
    0.5).  A flag given to a kind that does not read it is a ConfigError."""
    kind, params = args.accretive_kind, {}
    for name, default in (("amp", 0.4), ("s", 0.5)):
        value = getattr(args, name)
        if _PARAM_NAMES.get(kind) == name:
            params[name] = default if value is None else value
        elif value is not None:
            raise ConfigError(f"--{name} is not a parameter of accretive kind {kind!r}")
    return params


def _kernel_options(args) -> dict:
    """The ``generate_kernel`` options of ``dytb corona`` from its flags, None
    when not given: ``--kernel-kind`` (default random), ``--kernel-seed``
    (default 0) and ``--kernel-scale`` (default 1.0).  A kernel file is not
    generated, so with ``--kernel`` any of them is a ConfigError naming it."""
    options = {}
    for name, default in (("kind", "random"), ("seed", 0), ("scale", 1.0)):
        value = getattr(args, "kernel_" + name)
        if args.kernel and value is not None:
            raise ConfigError(f"--kernel-{name} is not read with --kernel")
        options[name] = default if value is None else value
    return options


def _experiment_config(args) -> ExperimentConfig:
    """The ``ExperimentConfig`` of the flags named after its fields; the rest keep their defaults."""
    names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
    return ExperimentConfig(**{name: getattr(args, name) for name in names})


def _header_lines(config: dict) -> list[str]:
    return [
        f"# dytb {__version__}",
        "# config: " + json.dumps(config, sort_keys=True),
    ]


# -- subcommands -----------------------------------------------------------------


def cmd_gen_kernel(args) -> int:
    spec = GridSpec(args.dim, args.depth)
    kernel = generate_kernel(args.kind, spec, seed=args.seed, scale=args.scale)
    save_kernel(kernel, args.out)
    print(f"wrote {args.out}: kind={args.kind} dim={args.dim} depth={args.depth} "
          f"entries={len(kernel)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    kernel = load_kernel(args.kernel, check_size=False)
    if not validate_size(kernel):
        print(f"{args.kernel}: size condition VIOLATED")
        return EXIT_VALIDATION
    method = norm_method_for(kernel, args.norm_method)
    norm = operator_norm(kernel, method)
    print(f"{args.kernel}: size condition ok; entries={len(kernel)}; "
          f"operator norm ({method}) = {norm!r}")
    return EXIT_OK


def _build_systems(args, spec):
    params = _system_params(args)
    sys1 = AccretiveSystem(spec, args.accretive_kind, args.p1, args.A,
                           seed=args.seed * 2 + 1, params=params)
    sys2 = AccretiveSystem(spec, args.accretive_kind, args.p2, args.A,
                           seed=args.seed * 2 + 2, params=params)
    return sys1, sys2


def cmd_corona(args) -> int:
    spec = GridSpec(args.dim, args.depth)
    # the stopping parameters and kernel flags first: a bad one costs no kernel, draw or Tloc
    delta = None if args.delta == "auto" else float(args.delta)
    check_tau_target(args.tau_target)  # an explicit delta runs no search, but a bad target is an error
    if delta is not None:
        check_delta(delta)
    options = _kernel_options(args)
    if args.kernel:
        kernel = load_kernel(args.kernel)
        if kernel.spec != spec:
            raise ConfigError(
                f"grid mismatch: {args.kernel} holds a kernel on the dim={kernel.spec.dim} "
                f"depth={kernel.spec.depth} grid, not on the dim={spec.dim} depth={spec.depth} "
                "grid of --dim/--depth")
    else:
        kernel = generate_kernel(spec=spec, **options)
    sys1, sys2 = _build_systems(args, spec)
    tloc = _tloc(kernel, sys1, sys2)
    root = spec.root()
    if delta is None:
        search = choose_delta(root, sys1, sys2, kernel, tloc, args.tau_target)
        if not search.ok:
            print(f"delta search FAILED (floor reached); trace={search.trace}")
            return EXIT_VALIDATION
        forest, delta = search.forest, search.delta
        ratios = search.trace[-1][1:]  # the packing ratios of this forest
        print(f"chosen delta = {delta!r} after {len(search.trace)} attempts")
    else:
        forest = build_corona(root, sys1, sys2, kernel, delta, tloc)
        ratios = packing_ratio(forest, 1), packing_ratio(forest, 2)
    print(f"Tloc = {tloc!r}")
    for j, ratio in zip((1, 2), ratios):
        print(f"S_{j}: {forest.member_count(j)} members; packing ratio = "
              f"{ratio!r}; Carleson constant = {forest_carleson(forest, j)!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_forest_json_text(forest))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_transform_norm(args) -> int:
    spec = GridSpec(args.dim, args.depth)
    params = _system_params(args)
    system = AccretiveSystem(spec, args.accretive_kind, args.p, args.A,
                             seed=args.seed, params=params)
    ctx = make_context(system, spec.root(), args.delta)
    result = adversarial_transform_search(
        ctx, args.p, n_restarts=args.restarts, max_passes=args.passes, seed=args.seed
    )
    family = sum(int(mask.sum()) for mask in ctx.q_masks().values())
    print(f"worst transform ratio = {result.ratio!r} "
          f"(|Q family| = {family}, restarts = {result.restarts})")
    return EXIT_OK


def cmd_identities(args) -> int:
    residuals = identity_suite(_experiment_config(args), args.seed)  # --seed: the instance's own
    width = max(len(k) for k in residuals)
    for name, value in residuals.items():
        print(f"{name:<{width}}  {value!r}")
    return EXIT_OK


def cmd_tb_experiment(args) -> int:
    experiment = _experiment_config(args)
    config = asdict(experiment)
    out = Path(args.out)
    for path in (out, out.with_suffix(".json")):  # before the trials, not after them
        _check_writable(path)
    reports = main_theorem_experiment(experiment)
    write_report_csv(out, config, reports)
    write_report_json(out.with_suffix(".json"), config, reports)
    ok = [r for r in reports if r.ok]
    tail = f"max ratio = {max(r.ratio for r in ok)!r}" if ok else "no usable trials"
    print(f"wrote {out} and {out.with_suffix('.json')}: {len(reports)} trials, "
          f"{len(reports) - len(ok)} flagged; {tail}")
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.infile)
    if path.suffix == ".json":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
        if type(data) is not dict or not {"config", "reports"} <= data.keys():
            raise ConfigError(f"{path}: a report is a JSON object with 'config' and 'reports'")
        config, rows = data["config"], data["reports"]
        _check_rows(path, rows)
    else:
        config, rows = read_report_csv(path)
    if args.plot:  # every plot argument is checked before any file is written
        _check_plot(rows, args.plot)
        if not args.plot_out:
            raise ConfigError("--plot requires --plot-out")
    if args.out:
        _write_json(args.out, {"version": __version__, "config": config, **summarize(rows)})
        print(f"wrote {args.out}")
    else:
        print(_json_text(summarize(rows)))
    if args.plot:
        emit_plot_data(rows, config, args.plot, args.plot_out)
        print(f"wrote {args.plot_out}")
    return EXIT_OK


# -- report persistence ------------------------------------------------------------


def write_report_csv(path, config: dict, reports: list[VerifierReport]) -> None:
    with open(path, "w", newline="") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(VerifierReport.CSV_FIELDS)
        for r in reports:
            writer.writerow(r.csv_row())


def write_report_json(path, config: dict, reports: list[VerifierReport]) -> None:
    rows = [r.to_json_dict() for r in reports]
    _write_json(path, {"version": __version__, "config": config, "reports": rows,
                       **summarize(rows)})


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing ``path`` would raise, such as a missing
    directory: opened for appending, so an existing file keeps its bytes, and
    removed again if the open created it."""
    existed = path.exists()
    open(path, "a").close()
    if not existed:
        path.unlink()


def _write_json(path, payload: dict) -> None:
    """``_json_text(payload)`` to ``path``, streamed: the whole text is never held."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _json_text(obj) -> str:
    """The text of every ``indent=1`` JSON the CLI writes or prints."""
    return json.dumps(obj, indent=1, sort_keys=True)


def _forest_json_text(forest) -> str:
    """``_json_text(forest_to_json_dict(forest))``, byte for byte: the header
    keys through ``_json_text``, then each family's rows from its
    ``_member_links`` arrays, one ``%`` format per row of one of two row
    templates, q0's (``"parent": null``) and the linked one.  The templates
    are ``_json_text`` of a row with a ``%d`` for every integer, two spaces
    deeper (the family list's items); every family holds q0."""
    spec, q0 = forest.spec, forest.q0
    header = _json_text({"delta": forest.delta, "depth": spec.depth, "dim": spec.dim,
                         "q0": {"coords": list(q0.coords), "level": q0.level}})
    cube = {"coords": ["%d"] * spec.dim, "level": "%d"}
    root, linked = (_json_text({**cube, "parent": parent}).replace("\n", "\n  ").replace('"%d"', "%d")
                    for parent in (None, cube))
    parts = [header[:-2]]  # without the closing "\n}"
    for key, j in (("s1", 1), ("s2", 2)):
        rows = []
        for level, coords, parent_level, parent_coords in _member_links(forest, j):
            # the sorted keys' order: coords, level, then the parent's coords and level
            cols = [*coords.T.tolist(), [level] * len(coords)]
            if level == q0.level:  # q0 alone
                rows += map(root.__mod__, zip(*cols))
            else:
                cols += [*parent_coords.T.tolist(), parent_level.tolist()]
                rows += map(linked.__mod__, zip(*cols))
        parts.append(f',\n "{key}": [\n  ' + ",\n  ".join(rows) + "\n ]")
    parts.append("\n}")
    return "".join(parts)


# The columns ``read_report_csv`` reads: (name, parser, what a bad cell is not).
_CSV_COLUMNS = (
    ("trial", int, "integer"),
    ("seed", int, "integer"),
    ("ok", {"0": False, "1": True}.__getitem__, "flag"),
    ("operator_norm", float, "number"),
    ("tloc", float, "number"),
    ("ratio", float, "number"),
    ("delta", lambda cell: float(cell) if cell else None, "number"),
)


def read_report_csv(path):
    """The config and rows of a ``write_report_csv`` file.  A row without a
    column this reads, a cell that column cannot hold, or a cell past the
    header is a ConfigError naming the row and the column; a ``# config:``
    line that is no JSON names its line and column in the file."""
    config = {}
    rows = []
    with open(path, newline="") as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#"):
                if line.lstrip("#").strip().startswith("config:"):
                    at = line.index("config:") + len("config:")
                    try:
                        config = json.loads(line[at:])
                    except json.JSONDecodeError as e:
                        raise ConfigError(f"{path}:{lineno}:{at + e.colno}: {e.msg}") from None
                continue
            if header is None:
                header = next(csv.reader([line]))
                continue
            cells, n = next(csv.reader([line])), len(rows)
            if len(cells) > len(header):
                raise ConfigError(f"{path}: report row {n} has {len(cells)} cells, "
                                  f"past the header's {len(header)} columns")
            rec, row = dict(zip(header, cells)), {}
            for key, parse, what in _CSV_COLUMNS:
                if key not in rec:  # a column the header or this row lacks
                    raise ConfigError(f"{path}: report row {n} lacks {key!r}")
                try:
                    row[key] = parse(rec[key])
                except (KeyError, ValueError):
                    raise ConfigError(f"{path}: report row {n} has no {what} {key!r}") from None
            rows.append(row)
    return config, rows


def _check_rows(path, rows) -> None:
    """Raise ConfigError unless ``rows`` is a list of report rows: objects
    with what ``summarize`` and the plots read (a bool is no integer)."""
    if type(rows) is not list:
        raise ConfigError(f"{path}: report 'reports' is not a list")
    for n, row in enumerate(rows):
        for key, kinds, what in (("trial", {int}, "integer"), ("seed", {int}, "integer"),
                                 ("ok", {bool}, "flag"), ("ratio", {int, float}, "number")):
            if type(row) is not dict or type(row.get(key)) not in kinds:
                raise ConfigError(f"{path}: report row {n} has no {what} {key!r}")


def summarize(rows: list[dict]) -> dict:
    ok = [r for r in rows if r.get("ok")]
    ratios = sorted(r["ratio"] for r in ok)

    def quantile(q: float) -> float | None:
        if not ratios:
            return None
        pos = q * (len(ratios) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return ratios[lo] + (ratios[hi] - ratios[lo]) * (pos - lo)

    return {
        "n_trials": len(rows),
        "n_ok": len(ok),
        "n_flagged": len(rows) - len(ok),
        "ratio_max": ratios[-1] if ratios else None,
        "ratio_mean": sum(ratios) / len(ratios) if ratios else None,
        "ratio_median": quantile(0.5),
        "ratio_q90": quantile(0.9),
    }


def _check_plot(rows: list[dict], kind: str) -> None:
    """Raise ConfigError unless ``emit_plot_data`` can draw ``kind`` from ``rows``."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if kind == "packing-vs-delta" and any("delta_trace" not in r for r in rows):
        raise ConfigError("packing-vs-delta needs the JSON report (the CSV does not "
                          "carry the delta traces)")


def emit_plot_data(rows: list[dict], config: dict, kind: str, out_path) -> None:
    """Plain (x, y) CSV series for external plotting tools."""
    _check_plot(rows, kind)
    with open(out_path, "w", newline="") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        if kind == "ratio-vs-seed":
            writer.writerow(["trial", "seed", "ratio"])
            for r in rows:
                writer.writerow([r["trial"], r["seed"], repr(r["ratio"])])
        elif kind == "ratio-hist":
            writer.writerow(["bin_lo", "bin_hi", "count"])
            ratios = [r["ratio"] for r in rows if r.get("ok")]
            if ratios:
                edges = np.linspace(0.0, max(ratios) * (1 + 1e-9), 21)
                counts, _ = np.histogram(ratios, bins=edges)
                for lo, hi, c in zip(edges[:-1], edges[1:], counts):
                    writer.writerow([repr(float(lo)), repr(float(hi)), int(c)])
        else:  # packing-vs-delta: traces, from JSON reports only
            writer.writerow(["trial", "delta", "packing_s1", "packing_s2"])
            for r in rows:
                for delta, t1, t2 in r["delta_trace"]:
                    writer.writerow([r["trial"], repr(delta), repr(t1), repr(t2)])


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: every flag is spelled in full
    parser = argparse.ArgumentParser(
        prog="dytb",
        description="dyadic singular-operator laboratory",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"dytb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subcommand parser, for _parse_args

    def add_common(p, depth=6):
        p.add_argument("--dim", type=int, default=1, choices=(1, 2))
        p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of defaults for this subcommand")

    p = sub.add_parser("gen-kernel", help="generate a kernel file", allow_abbrev=False)
    add_common(p)
    p.add_argument("--kind", choices=KERNEL_KINDS, default="random")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="re-check a kernel file and report its norm", allow_abbrev=False)
    p.add_argument("--kernel", required=True)
    p.add_argument("--norm-method", choices=NORM_METHODS, default="auto")
    p.add_argument("--config", type=str, default=None)

    def add_tb_options(p):
        p.add_argument("--p1", type=float, default=2.0)
        p.add_argument("--p2", type=float, default=2.0)
        p.add_argument("--A", type=float, default=1.5)
        p.add_argument("--accretive-kind", choices=ACCRETIVE_KINDS, default="random")
        p.add_argument("--amp", type=float, default=None, help="random kind only (default 0.4)")
        p.add_argument("--s", type=float, default=None, help="two-value kind only (default 0.5)")
        p.add_argument("--tau-target", type=float, default=0.9)

    p = sub.add_parser("corona", help="build the stopping families and measure them", allow_abbrev=False)
    add_common(p)
    add_tb_options(p)
    p.add_argument("--kernel", default=None,
                   help="kernel file; its grid must be that of --dim/--depth, and --kernel-kind, "
                        "--kernel-seed and --kernel-scale are rejected with it")
    p.add_argument("--kernel-kind", choices=KERNEL_KINDS, default=None, help="default random")
    p.add_argument("--kernel-seed", type=int, default=None, help="default 0")
    p.add_argument("--kernel-scale", type=float, default=None, help="default 1.0")
    p.add_argument("--delta", default="auto", help='stopping parameter or "auto"')
    p.add_argument("--out", default=None, help="write the forest as JSON")

    p = sub.add_parser("transform-norm", help="adversarial twisted-transform search", allow_abbrev=False)
    add_common(p)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--A", type=float, default=1.5)
    p.add_argument("--accretive-kind", choices=ACCRETIVE_KINDS, default="random")
    p.add_argument("--amp", type=float, default=None, help="random kind only (default 0.4)")
    p.add_argument("--s", type=float, default=None, help="two-value kind only (default 0.5)")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--passes", type=int, default=50)

    def add_instance_options(p):
        # ExperimentConfig's instance fields; None leaves A and amp to build_instance
        p.add_argument("--p1", type=float, default=2.0)
        p.add_argument("--p2", type=float, default=2.0)
        p.add_argument("--A", type=float, default=None)
        p.add_argument("--amp", type=float, default=None)
        p.add_argument("--kernel-kind", choices=KERNEL_KINDS, default="random")
        p.add_argument("--kernel-scale", type=float, default=1.0)
        p.add_argument("--accretive-kind", choices=ACCRETIVE_KINDS, default="random")

    p = sub.add_parser("identities", help="run every exact-identity checker once", allow_abbrev=False)
    add_common(p, depth=5)
    add_instance_options(p)

    p = sub.add_parser("tb-experiment", help="run the seeded ratio experiment", allow_abbrev=False)
    add_common(p)
    p.add_argument("--trials", type=int, default=100)
    add_instance_options(p)
    p.add_argument("--tau-target", type=float, default=0.9)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="re-render a report CSV/JSON into a summary", allow_abbrev=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None, help=f"one of {PLOT_KINDS}")
    p.add_argument("--plot-out", default=None)
    p.add_argument("--config", type=str, default=None)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run, built on first use and never mutated."""
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``.  The values of a JSON ``--config`` file are parsed as
    flags placed right after the subcommand, so the command line's own flags,
    which come later, beat the file, and a required flag may come from the
    file.  Each value but null (which keeps the flag's default) becomes
    ``--flag=text``: a string as it is, anything else its JSON text.  Unknown
    keys are rejected, malformed JSON with a line-referenced message."""
    parser = _shared_parser()
    if not any(t == "--config" or t.startswith("--config=") for t in argv):
        return parser.parse_args(argv)
    # the subcommand and the file, before the parse that may need the file
    finder = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    finder.add_argument("command", nargs="?")
    finder.add_argument("--config")
    try:
        found, _ = finder.parse_known_args(argv)
    except argparse.ArgumentError:  # "--config" with no file: the full parse says so
        return parser.parse_args(argv)
    sub = parser.subcommands.get(found.command)
    if found.config is None or sub is None:
        return parser.parse_args(argv)
    try:
        with open(found.config) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{found.config}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{found.config}: config must be a JSON object")
    flags = {a.dest: a.option_strings[0] for a in sub._actions if a.dest not in ("help", "config")}
    tokens = []
    for key, value in data.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ConfigError(f"{found.config}: unknown config key {key!r}")
        if value is not None:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    at = argv.index(found.command) + 1
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        # "tb-experiment" runs cmd_tb_experiment, looked up at call time
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as e:  # argparse: bad flags or config values, --help, --version
        return e.code if isinstance(e.code, int) else EXIT_CONFIG
    except ValueError as e:  # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # the message names the path
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
