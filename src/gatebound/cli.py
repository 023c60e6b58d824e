"""Command-line front door.

Angles are radians; times are in units of 1/J of the input file's coupling
entries (everything is dimensionless internally).  Exit codes: 0 success,
2 parse or file error, 3 domain error, 4 verification failure.

Commands; ``gatebound COMMAND --help`` lists each one's flags, the grape
flags included, and every command takes -o/--output (stdout if absent or -)::

    gatebound bound  GRAPH TARGET --epsilon EPS [--exact-depths]
    gatebound depth  GRAPH (PAULI | --table)
    gatebound synth  GRAPH TARGET --epsilon EPS
    gatebound verify GRAPH TARGET --epsilon EPS [--schedule FILE]
    gatebound grape  GRAPH TARGET --time T [grape flags]
    gatebound scan   GRAPH TARGET --times T1,T2,... [grape flags]
    gatebound compare --case {3spin-ising,4spin-heisenberg} [grape flags] [--pulses CSV]

GRAPH and TARGET are JSON files (see network and generator formats in the
package documentation).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import math
import os
import sys

from . import bounds as bnd
from . import grape
from . import network as netmod
from . import synthesis as synth
from . import simulator as sim
from .depth import depth, max_depth_table
from .errors import DomainError, ParseError
from .pauli import parse_pauli

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _output(path: str | None):
    """The stream every command writes to: stdout for None or "-", else the file."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _check_output_path(path: str | None) -> None:
    """Raise the error open(path, "w") would for a directory or a missing
    parent directory, before any work is done and without touching the file."""
    if path not in (None, "-") and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if path not in (None, "-") and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_json(payload, path: str | None) -> None:
    text = netmod.dump_json(payload)  # a non-finite payload raises before the file opens
    with _output(path) as fh:
        fh.write(text)


def _load_inputs(args):
    return netmod.load_network(args.graph), bnd.load_spec(args.target)


def cmd_bound(args) -> int:
    net, spec = _load_inputs(args)
    report = bnd.bound_report(spec, net, args.epsilon,
                              use_exact_depths=args.exact_depths)
    _write_json(report.to_dict(), args.output)
    return EXIT_OK


def cmd_depth(args) -> int:
    if args.table and args.pauli is not None:
        raise ParseError("give a Pauli word or --table, not both")
    net = netmod.load_network(args.graph)
    if args.table:
        table = max_depth_table(net)
        payload = {
            "n": table.n,
            "max_depth": table.max_depth,
            "per_weight": table.per_weight,
        }
    elif args.pauli is None:
        raise ParseError("give a Pauli word or --table")
    elif (word := parse_pauli(args.pauli)).weight == 1 and word.n == net.n:
        netmod.require_full_local(net)  # other sizes reach depth(), which refuses them
        payload = {"pauli": args.pauli, "local": True, "depth": 0,
                   "time_contribution": 0.0}
    else:
        result = depth(net, word)
        payload = {
            "pauli": args.pauli,
            "local": False,
            "depth": result.depth,
            "start_edge": result.start_edge,
            "witness": [dataclasses.asdict(step) for step in result.witness],
        }
    _write_json(payload, args.output)
    return EXIT_OK


def cmd_synth(args) -> int:
    net, spec = _load_inputs(args)
    schedule, m = synth.synth_generator(net, spec, args.epsilon)
    _write_json(synth.schedule_to_dict(schedule), args.output)
    sys.stderr.write(f"trotter steps m = {m}, "
                     f"total duration = {schedule.total_duration:.6g}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    net, spec = _load_inputs(args)
    schedule = None if args.schedule is None else synth.load_schedule(args.schedule)
    report = bnd.bound_report(spec, net, args.epsilon, use_exact_depths=True)
    if schedule is None:
        schedule = synth.report_schedule(net, report)
    m, bound = report.trotter_steps, report.run_time_bound
    duration = schedule.total_duration
    if not (math.isfinite(bound) and math.isfinite(duration)):
        raise DomainError("result is not finite; inputs too large")
    # Several terms are eigendecomposed, so the target is off by up to about
    # 5e-16 * ||a||_1 (the worst seen against exact products of commuting
    # terms on 2 to 8 qubits, ||a||_1 from 1e3 to 1e14); one term is closed form.
    resolution = 5e-16 * spec.norm_1
    if spec.l > 1 and not resolution <= args.epsilon + 1e-8:
        raise DomainError(f"the dense target is only good to about {resolution:.3g}, "
                          f"so it cannot resolve epsilon {args.epsilon}")
    U_target = sim.target_unitary(spec)
    U = sim.unitary_of_schedule(net, schedule)
    # Rounding in U grows with the repeat count and moves the normalized error
    # by up to about a quarter of the unitarity defect.  The check below allows
    # 1e-9 of rounding; past epsilon plus ten times that, give no verdict.
    defect = sim.unitarity_defect(U)
    if not defect <= args.epsilon + 1e-8:
        raise DomainError(f"simulation lost unitarity (defect {defect:.3g}), "
                          f"so it cannot resolve epsilon {args.epsilon}")
    err = sim.normalized_error(U_target, U)
    infid = sim.gate_infidelity(U_target, U)
    slack = 1e-9 * max(1.0, bound)
    if spec.l == 1:
        ok = infid < 1e-9 and duration <= bound + slack
    else:
        ok = err <= args.epsilon + 1e-9 and duration <= bound + slack
    payload = {
        "total_duration": duration,
        "bound": bound,
        "trotter_steps": m,
        "normalized_error": err,
        "gate_infidelity": infid,
        "pass": ok,
    }
    _write_json(payload, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def _grape_kwargs(args) -> dict:
    return {
        "N": args.slices,
        "restarts": args.restarts,
        "tol": args.tol,
        "max_iters": args.max_iters,
        "seed": args.seed,
    }


def cmd_grape(args) -> int:
    net, spec = _load_inputs(args)
    U_target = sim.target_unitary(spec)
    pulses = grape.optimize(net, U_target, args.time, **_grape_kwargs(args))
    with _output(args.output) as fh:
        grape.write_pulse_csv(pulses, fh)
    sys.stderr.write(
        f"T = {pulses.T}, infidelity = {pulses.achieved_infidelity:.3e}, "
        f"iterations = {pulses.iterations}, restart = {pulses.restart_index}\n"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    net, spec = _load_inputs(args)
    U_target = sim.target_unitary(spec)
    try:
        times = [float(t) for t in args.times.split(",") if t.strip()]
    except ValueError:
        times = []
    if not times:
        raise ParseError(f"cannot parse time list {args.times!r}")
    rows = grape.time_scan(net, U_target, times, **_grape_kwargs(args))
    with _output(args.output) as fh:
        grape.write_scan_csv(rows, fh)
    return EXIT_OK


_COMPARE_CASES = {
    # case: (preset, n, grape time from the benchmark study)
    "3spin-ising": ("ising_chain", 3, 0.9),
    "4spin-heisenberg": ("heisenberg_chain", 4, 2.0),
}


def cmd_compare(args) -> int:
    """Benchmark row: exact minimum time (when known), closed-form bound,
    and the time at which pulse optimization reaches the target."""
    preset, n, T_grape = _COMPARE_CASES[args.case]
    net = getattr(netmod, preset)(n)
    spec = bnd.GeneratorSpec(((-math.pi / 4, parse_pauli("Z" * n)),))
    U_target = sim.target_unitary(spec)
    pulses = grape.optimize(net, U_target, T_grape, **_grape_kwargs(args))
    T_exact = bnd.exact_three_spin(1.0, 1.0) if n == 3 else float("nan")
    T_bound = bnd.nbody_chain_bound(n, 1.0, netmod.min_coupling(net))
    ok = pulses.achieved_infidelity < args.tol
    with _output(args.output) as fh:
        fh.write("case,T_exact,T_bound,T_grape,grape_infidelity,converged\n"
                 f"{args.case},{T_exact:.12g},{T_bound:.12g},{T_grape:.12g},"
                 f"{pulses.achieved_infidelity:.12g},{str(ok).lower()}\n")
    if args.pulses is not None:
        with _output(args.pulses) as fh:
            grape.write_pulse_csv(pulses, fh)
    return EXIT_OK


def _add_grape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slices", type=int, default=grape.DEFAULT_SLICES,
                   help="piecewise-constant slices (default %(default)s)")
    p.add_argument("--restarts", type=int, default=grape.DEFAULT_RESTARTS,
                   help="random restarts (default %(default)s)")
    p.add_argument("--tol", type=float, default=grape.DEFAULT_TOL,
                   help="stop once infidelity drops below this (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=grape.DEFAULT_MAX_ITERS,
                   help="objective evaluations per restart (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")


def _command(sub, name, func, help, *positionals) -> argparse.ArgumentParser:
    """A subcommand with its positional inputs, -o/--output and its handler."""
    p = sub.add_parser(name, help=help)
    for positional in positionals:
        p.add_argument(positional)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatebound",
        description="Gate-time bounds, control schedules, and pulse "
                    "optimization for locally controlled qubit networks. "
                    "Angles in radians; times in 1/J units of the input file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "bound", cmd_bound, "evaluate all gate-time bounds",
                 "graph", "target")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--exact-depths", action="store_true")

    p = _command(sub, "depth", cmd_depth, "commutator depth of a word or table", "graph")
    p.add_argument("pauli", nargs="?", default=None)
    p.add_argument("--table", action="store_true")

    p = _command(sub, "synth", cmd_synth, "emit a control schedule", "graph", "target")
    p.add_argument("--epsilon", type=float, required=True)

    p = _command(sub, "verify", cmd_verify, "re-simulate a schedule against bounds",
                 "graph", "target")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--schedule", default=None,
                   help="schedule JSON (default: synthesize fresh)")

    p = _command(sub, "grape", cmd_grape, "optimize pulses for a target generator",
                 "graph", "target")
    p.add_argument("--time", type=float, required=True)
    _add_grape_flags(p)

    p = _command(sub, "scan", cmd_scan, "optimize over a list of durations",
                 "graph", "target")
    p.add_argument("--times", required=True, help="comma-separated durations")
    _add_grape_flags(p)

    p = _command(sub, "compare", cmd_compare,
                 "exact-vs-bound-vs-optimized benchmark on chain presets")
    p.add_argument("--case", choices=sorted(_COMPARE_CASES), required=True)
    _add_grape_flags(p)
    p.add_argument("--pulses", default=None,
                   help="also write the winning pulse CSV here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        for path in (args.output, getattr(args, "pulses", None)):
            _check_output_path(path)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point stdout at devnull
        # so the interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ParseError, OSError) as exc:  # unreadable or unwritable paths too
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
