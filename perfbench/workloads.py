"""The benchmark's workloads: the package's public sweeps, each built from a
seed, split into point units for the traced run, and checked.

Why these three (also in BENCHMARK.json):

* ``distance-ref``: the paper's headline curve at desk scale.  The
  per-interferer kernel does most of the work and the 120 points cost the
  same, so the thread fan-out is balanced.
* ``density-ref``: the reference coverage curve at full scale.  About four
  active interferers per realization on average, so per-realization cost
  shows, and point costs are unequal, which tests the fan-out.
* ``distance-dense``: ~1000 active interferers per realization; almost all
  of the work is the per-interferer kernel, and memory grows with the mean
  device count and with threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from scipy import integrate

import lora_reliability as lr
from lora_reliability import cli

# One z for every statistical check.  A Gaussian false alarm is then ~6e-7
# per check, so hundreds of seeded runs stay clear of spurious failures.
Z_TOL = 5.0
# The engine's vectorization batch; the dense workload uses a multiple of it.
BATCH = 4096
PROB_COLUMNS = ("p_snr_sf", "p_sf", "p_co", "p_max_co")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def z_check(name: str, observed: float, expected: float, se: float) -> Check:
    z = abs(observed - expected) / se
    detail = f"observed {observed!r} expected {expected!r} z={z:.2f} (tol {Z_TOL})"
    return Check(name, z <= Z_TOL, detail)


def void_check(cfg: lr.NetworkConfig, d_km: float, co: lr.SirStats) -> Check:
    """``estimate_mean_sir``'s co-SF ``inf_fraction`` (no active same-SF
    interferer) against the Poisson void probability
    exp(-duty * n_bar * annulus area share)."""
    ring = lr.annulus_to_sf(d_km, cfg.cell_radius_km) - lr.sf_table()[0].sf
    share = ((ring + 1) ** 2 - ring**2) / 36.0
    expected = math.exp(-cfg.duty_cycle * cfg.mean_devices * share)
    return z_check(
        f"estimate_mean_sir co inf_fraction at {d_km} km (n={co.count})", co.inf_fraction,
        expected, math.sqrt(expected * (1.0 - expected) / co.count),
    )


def parse_csv(text: str) -> list[dict[str, float]]:
    header, *rows = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, map(float, row.split(",")))) for row in rows]


def area_mean_p_snr(cfg: lr.NetworkConfig) -> float:
    """Noise-only success averaged over a desired device uniform by area:
    the public closed form integrated by quadrature, annulus by annulus."""
    radius = cfg.cell_radius_km
    total = 0.0
    for k, row in enumerate(lr.sf_table()):

        def integrand(r: float, sf: int = row.sf) -> float:
            d = max(r, cfg.min_distance_km)
            return lr.snr_success_probability(d, sf, cfg) * 2.0 * r / radius**2

        value, _ = integrate.quad(
            integrand, k * radius / 6.0, (k + 1) * radius / 6.0, epsabs=1e-13, epsrel=1e-11
        )
        total += value
    return total


def digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepInputs:
    cfg: lr.NetworkConfig
    spec: lr.SweepSpec
    model: lr.ChannelModel


class SweepWorkload:
    """One public sweep call plus ``cli.curve_to_csv``: the work the CLI does."""

    def __init__(
        self, name: str, kind: str, mean_devices: float, points: int, realizations: int,
        tiny_points: int, tiny_realizations: int,
    ) -> None:
        self.name = name
        self.kind = kind
        self.mean_devices = mean_devices
        self.sizes = {False: (points, realizations), True: (tiny_points, tiny_realizations)}
        if kind == "distance":
            self.sweep, self.abscissa = lr.success_vs_distance, "d_km"
        else:
            self.sweep, self.abscissa = lr.coverage_vs_density, "n_bar"

    def build(self, seed: int, tiny: bool) -> SweepInputs:
        points, realizations = self.sizes[tiny]
        cfg = lr.NetworkConfig(mean_devices=self.mean_devices, seed=seed)
        if self.kind == "distance":
            grid = lr.default_distance_grid(cfg, points)
        else:
            grid = lr.default_density_grid(3000.0, points)
        spec = lr.SweepSpec(kind=self.kind, grid=grid, realizations_per_point=realizations, seed=seed)
        return SweepInputs(cfg, spec, lr.ChannelModel.from_config(cfg))

    def realizations(self, inp: SweepInputs) -> int:
        return len(inp.spec.grid) * inp.spec.realizations_per_point

    def _n_bars(self, inp: SweepInputs) -> tuple[float, ...]:
        if self.kind == "distance":
            return (inp.cfg.mean_devices,) * len(inp.spec.grid)
        return inp.spec.grid

    def interferers(self, inp: SweepInputs) -> float:
        """Expected active interferers in one sweep: duty * n_bar * realizations, summed."""
        r = inp.spec.realizations_per_point
        return sum(inp.cfg.duty_cycle * n_bar * r for n_bar in self._n_bars(inp))

    def kernel_array_size(self, inp: SweepInputs) -> int:
        """Interferers per kernel batch at the sweep's mean device count."""
        n_bars = self._n_bars(inp)
        return max(1, round(BATCH * inp.cfg.duty_cycle * sum(n_bars) / len(n_bars)))

    def kernel_n_bar(self, inp: SweepInputs) -> float:
        return max(self._n_bars(inp))

    def _sweep(self, cfg, spec, tracer, threads: int = 1) -> list:
        with tracer.span(f"montecarlo.{self.sweep.__name__}", threads=threads):
            return self.sweep(cfg, spec, threads=threads)

    def run(self, inp: SweepInputs, threads: int, tracer) -> str:
        points = self._sweep(inp.cfg, inp.spec, tracer, threads)
        with tracer.span("cli.curve_to_csv", points=len(points)):
            return cli.curve_to_csv(points, self.abscissa)

    def point_calls(self, inp: SweepInputs):
        """One-point sweeps, one per grid point, through the public sweep.
        Each call takes the tracer."""
        for i, x in enumerate(inp.spec.grid):
            spec = dataclasses.replace(inp.spec, grid=(x,))
            yield i, lambda tracer, spec=spec: self._sweep(inp.cfg, spec, tracer)

    def kernel_case(self, inp: SweepInputs, n_bar: float):
        """A one-point sweep of this workload's kind at mean device count
        ``n_bar``, as a call taking the tracer, and its realization count."""
        if self.kind == "distance":
            cfg = dataclasses.replace(inp.cfg, mean_devices=n_bar)
            spec = dataclasses.replace(inp.spec, grid=(inp.spec.grid[len(inp.spec.grid) // 2],))
        else:
            cfg, spec = inp.cfg, dataclasses.replace(inp.spec, grid=(n_bar,))
        return lambda tracer: self._sweep(cfg, spec, tracer), inp.spec.realizations_per_point

    def check(self, inp: SweepInputs, csv_text: str) -> list[Check]:
        rows = parse_csv(csv_text)
        checks = []
        for row in rows:
            values = [row[c] for c in PROB_COLUMNS]
            ok = all(a <= b for a, b in zip(values, values[1:]))
            checks.append(Check(
                f"ordering at {self.abscissa}={row[self.abscissa]!r}", ok,
                " <= ".join(f"{c}={v!r}" for c, v in zip(PROB_COLUMNS, values)),
            ))
        if self.kind == "density":
            checks.append(z_check(
                "p_snr vs area-averaged closed form", rows[0]["p_snr"],
                area_mean_p_snr(inp.cfg), rows[0]["se_snr"],
            ))
        return checks


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("distance-ref", "distance", 1500.0, 120, cli.DESK_REALIZATIONS, 120, 256),
        SweepWorkload("density-ref", "density", 1500.0, 30, 100_000, 30, 256),
        SweepWorkload("distance-dense", "distance", 1e5, 6, BATCH, 2, 64),
    )
}
