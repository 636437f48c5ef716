"""Command-line front end: run sweeps, evaluate closed forms, and check the
model's internal consistency.  Sweep results are emitted as RFC-4180-style
CSV with LF line endings and full-precision decimal numbers so any plotting
tool can reproduce the curves."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import analytic, montecarlo
from .channel import snr_success_probability
from .params import (
    NetworkConfig,
    annulus_to_sf,
    parse_config_text,
    sf_table,
)

DESK_REALIZATIONS = 10_000

_PROB_COLUMNS = tuple(f.name for f in fields(analytic.ScenarioProbabilities))
# Each probability column, then its standard error: p_snr -> se_snr.
CSV_COLUMNS = _PROB_COLUMNS + tuple("se" + name[1:] for name in _PROB_COLUMNS)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


def curve_to_csv(points: list[montecarlo.CurvePoint], abscissa_name: str) -> str:
    """Render sweep points as CSV text (LF endings, trailing newline)."""
    lines = [",".join((abscissa_name,) + CSV_COLUMNS)]
    for pt in points:
        # vars() keeps field order and, unlike dataclasses.astuple, does
        # not deep-copy.
        row = (pt.abscissa, *vars(pt.probs).values(), *vars(pt.stderr).values())
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_config(args: argparse.Namespace) -> NetworkConfig:
    """Table-default < config file < flags."""
    values: dict[str, float | int] = {}
    if args.config is not None:
        # utf-8-sig also reads a file saved with a byte-order mark.
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            values = parse_config_text(fh.read())
    if getattr(args, "mean_devices", None) is not None:
        values["mean_devices"] = args.mean_devices
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    return NetworkConfig(**values)  # type: ignore[arg-type]


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.kind == "distance":
        grid = montecarlo.default_distance_grid(cfg)
        sweep, abscissa_name = montecarlo.success_vs_distance, "d_km"
    else:
        grid = montecarlo.default_density_grid(args.n_bar_max)
        sweep, abscissa_name = montecarlo.coverage_vs_density, "n_bar"
    spec = montecarlo.SweepSpec(
        kind=args.kind,
        grid=grid,
        realizations_per_point=args.realizations,
        seed=cfg.seed,
    )
    points = sweep(cfg, spec, threads=args.threads)
    _emit(curve_to_csv(points, abscissa_name), args.out)
    return 0


def _cmd_closed_form(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    by_gamma = args.gamma_bar is not None
    by_distance = args.distance is not None or args.sf is not None
    if by_gamma == by_distance:
        parser.error("give exactly one of --gamma-bar or --distance with --sf")
    if by_gamma:
        if args.config is not None:
            # The outage closed form reads no network parameter.
            parser.error("--gamma-bar takes no --config")
        if args.gamma_bar < 0:
            parser.error(f"--gamma-bar must be >= 0, got {args.gamma_bar}")
        outage = analytic.outage_closed_form(args.gamma_bar)
        sys.stdout.write(
            f"gamma_bar={_fmt(args.gamma_bar)} outage={_fmt(outage)} "
            f"success={_fmt(1.0 - outage)}\n"
        )
        return 0
    if args.distance is None or args.sf is None:
        parser.error("--distance and --sf must be given together")
    cfg = _build_config(args)
    p = snr_success_probability(args.distance, args.sf, cfg)
    sys.stdout.write(f"d_km={_fmt(args.distance)} sf={args.sf} p_snr={_fmt(p)}\n")
    return 0


# --- validate: closed-form oracle suite and invariant checks ---------------


def _check_outage_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for gamma in (0.01, 0.1, 1.0, 2.0, 10.0, 100.0, 1e4):
        numeric = analytic.outage_numeric_oracle(gamma, rel_tol=1e-9)
        closed = analytic.outage_closed_form(gamma)
        worst = max(worst, abs(numeric - closed))
    return worst < 1e-6, f"max |quadrature - closed form| = {worst:.3e}"


def _check_q_function() -> tuple[bool, str]:
    if abs(analytic.q_function(0.0) - 0.5) >= 1e-12:
        return False, "q_function(0) != 0.5"
    xs = [0.1 * k for k in range(1, 81)]
    ok = all(analytic.q_bound(x) >= analytic.q_function(x) for x in xs)
    return ok, "q_function(0)=0.5; bound dominates tail on (0, 8]"


def _check_sf_schedule() -> tuple[bool, str]:
    rows = sf_table()
    radius_km = 12.0
    ok = (
        len(rows) == 6
        and all(a.snr_threshold_db > b.snr_threshold_db for a, b in zip(rows, rows[1:]))
        and all(annulus_to_sf(k * radius_km / 6.0, radius_km) == 7 + k for k in range(6))
        and annulus_to_sf(radius_km, radius_km) == 12
    )
    return ok, "SNR thresholds fall with SF, ring k*R/6 starts SF 7+k, R maps to SF 12"


def _check_saw_tooth(cfg: NetworkConfig) -> tuple[bool, str]:
    # A success of exactly 0 or 1 on both sides (a deaf or a noiseless
    # link) cannot jump, so only there is a level value excused; a drop
    # fails anywhere.
    r = cfg.cell_radius_km
    saturated = []
    for k in range(1, 6):
        boundary = k * r / 6.0
        below = boundary * (1.0 - 1e-9)
        above = boundary * (1.0 + 1e-9)
        p_below = snr_success_probability(below, annulus_to_sf(below, r), cfg)
        p_above = snr_success_probability(above, annulus_to_sf(above, r), cfg)
        if p_above == p_below and p_below in (0.0, 1.0):
            saturated.append(f"{boundary} km (at {p_below:g})")
        elif p_above <= p_below:
            return False, f"no upward jump at annulus boundary {boundary} km"
    if not saturated:
        return True, "noise-only success jumps upward at all 5 annulus boundaries"
    return True, (
        f"noise-only success jumps upward at {5 - len(saturated)} of 5 annulus "
        f"boundaries and is saturated at {', '.join(saturated)}"
    )


def _check_interference_algebra(cfg: NetworkConfig) -> tuple[bool, str]:
    # One batch of the distance sweep's kernel: per annulus, the desired
    # fading and (strongest co-SF term, co-SF sum, inter-SF sum).
    rings = next(montecarlo._ring_batches(cfg, montecarlo._BATCH, cfg.seed))
    total = sum(co for _, (_, co, _) in rings)  # the six sub-field sums
    for k, (_, (strongest, co, inter)) in enumerate(rings):
        if np.any(np.abs((co + inter) - total) > 1e-12 * total):
            return False, f"annulus {k}: co-SF + inter-SF power does not add up to the total"
        if np.any(strongest > co):
            return False, f"annulus {k}: strongest co-SF term exceeds the co-SF sum"
    nonempty = sum(int(np.count_nonzero(co)) for _, (_, co, _) in rings)
    return True, (
        f"power split adds up in 6 annuli on {total.size} kernel fields; "
        f"strongest <= co-SF sum on {nonempty} non-empty co-SF sets"
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    checks = [
        ("outage quadrature vs closed form", _check_outage_quadrature),
        ("gaussian tail and bound", _check_q_function),
        ("sf schedule", _check_sf_schedule),
        ("annulus saw-tooth", lambda: _check_saw_tooth(cfg)),
        ("interference algebra", lambda: _check_interference_algebra(cfg)),
    ]
    failures = 0
    for name, check in checks:
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        sys.stdout.write(f"{status} {name}: {detail}\n")
    sys.stdout.write(
        f"{len(checks) - failures}/{len(checks)} checks passed\n"
    )
    return 0 if failures == 0 else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lora-reliability",
        description=(
            "Success and coverage probability of LoRa uplinks under noise, "
            "same-SF, and cross-SF interference: closed forms plus a seeded "
            "Monte Carlo sweep engine."
        ),
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="key = value config file")
    # closed-form makes no random draw, so it takes no seed.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="RNG seed")

    sweep = argparse.ArgumentParser(add_help=False, parents=[config, seeded])
    sweep.add_argument(
        "--realizations",
        type=_positive_int,
        default=DESK_REALIZATIONS,
        metavar="N",
        help="realizations per sweep point (default: %(default)s)",
    )
    sweep.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    sweep.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes, at most one per CPU (never changes output bytes)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser(
        "sweep-distance",
        parents=[sweep],
        help="success probability vs distance from the gateway (CSV)",
    )
    # The density sweep takes its mean device counts from --n-bar-max.
    p_dist.add_argument(
        "--mean-devices", type=float, metavar="N_BAR", help="average number of end devices"
    )
    p_dist.set_defaults(func=_cmd_sweep, kind="distance")

    p_dens = sub.add_parser(
        "sweep-density",
        parents=[sweep],
        help="coverage probability vs average number of devices (CSV)",
    )
    p_dens.add_argument(
        "--n-bar-max", type=float, default=3000.0, help="largest mean device count"
    )
    p_dens.set_defaults(func=_cmd_sweep, kind="density")

    p_cf = sub.add_parser(
        "closed-form",
        parents=[config],
        help="evaluate the outage closed form or the noise-only success",
    )
    p_cf.add_argument("--gamma-bar", type=float, help="mean SIR (linear)")
    p_cf.add_argument("--distance", type=float, metavar="D_KM")
    p_cf.add_argument("--sf", type=int, choices=range(7, 13))
    p_cf.set_defaults(func=lambda args: _cmd_closed_form(args, p_cf))

    p_val = sub.add_parser(
        "validate",
        parents=[config, seeded],
        help="run the closed-form oracle suite and invariant checks",
    )
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # ConfigError is a ValueError
        sys.stderr.write(f"error: {err}\n")
        return 2
    except analytic.QuadratureError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
