"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the checks each call's output must pass.

Every workload writes its inputs into a work directory from a seed (the
same seed gives byte-identical files) and hands the program only those
files. Checks compare outputs with values the generator knows, not with
values read back through the program's own parsers.
"""

from __future__ import annotations

import io
import re
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ringrc.capacitance import CrosstalkMode
from ringrc.files import emit_report_json, parse_report, read_config
from ringrc.lumpmodel import LineRC, step_response_victim
from ringrc.oscillator import SynthesisTruth, synthesize_measurements

BUNDLED_CONFIG = Path("src/ringrc/data/config_28nm.cfg")
BUNDLED_MEASUREMENTS = Path("src/ringrc/data/measurements_28nm.csv")

GEOMETRIES = ("1W1S", "1W2S")
MODES = ("in_phase", "quiet", "out_of_phase")
FORMATS = ("text", "csv", "json")
#: Generated values lie within this fraction of the bundled ones.
SPREAD = 0.05
#: Dies in the binning lot. The per-die grouping in `ringrc binning` is
#: quadratic in this count; it stays at this size so that shows.
LOT_DIES = 4000
#: Seeded single-die files in the die-reports pool, besides the bundled die.
POOL_DIES = 5
#: Oracle waveforms must match the exact lump responses this closely, as a
#: fraction of the rail.
WAVEFORM_TOLERANCE = 1e-4
RATIO_WINDOW = (0.35, 0.65)
#: Values a printed report must match its truth to, on top of rounding.
REL_TOLERANCE = 1e-6

#: Extraction of the bundled 28 nm die as published, and the relative
#: error each parameter may show against it.
PUBLISHED = {
    "1W1S": {"r_sw": 504.0, "c_gate": 3.02e-15, "c_int": 9.50e-15, "c_total": 12.51e-15},
    "1W2S": {"r_sw": 417.0, "c_gate": 3.82e-15, "c_int": 8.42e-15, "c_total": 12.24e-15},
}
PUBLISHED_TOLERANCE = {"r_sw": 0.01, "c_gate": 0.025, "c_int": 0.025, "c_total": 0.025}

_EXTRACTED = ("r_sw", "c_gate", "c_int", "c_total", "c_c")
_FF = 1e-15


class CheckFailed(Exception):
    """An output did not match what the inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass.

    kind groups calls for latency statistics. The check gets the captured
    stdout and the text of every file in outputs. Calls with equal keys
    must produce equal outputs, so a repeated output that was already
    checked is only compared byte for byte.
    """

    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str, dict[str, str]], None]
    key: tuple


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _close(got: float, want: float, abs_tol: float, what: str) -> None:
    if not abs(got - want) <= abs_tol + REL_TOLERANCE * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _half_unit(decimals: int) -> float:
    return 0.5 * 10.0 ** -decimals * (1.0 + 1e-9)


def _sig6(value: float) -> float:
    """Rounding error of a value printed with %.6g."""
    return 5e-6 * abs(value)


# ---------------------------------------------------------------------------
# oracle: validate plus single-lump waveforms on a seeded line model

_LINE_KEY = re.compile(r"^line\.(\w+)\.(r_ohm|c_ff|cc_ff)\s*=\s*(\S+)")
_V_DD = re.compile(r"^v_dd\s*=\s*(\S+)", re.M)
_RATIO = re.compile(r"distributed\((\d+)\) / lump quiet delay: (\S+)")


def write_oracle_inputs(root: Path, work: Path, seed: int) -> dict[str, LineRC]:
    """Scale each geometry's r, c and c_c by one seeded factor.

    One factor per line scales every time constant by its square, so the
    oracle's step count, and with it the work, does not depend on the seed.
    """
    rng = _rng(seed, "oracle")
    factors = {g: float(rng.uniform(1.0 - SPREAD, 1.0 + SPREAD)) for g in GEOMETRIES}
    text = (root / BUNDLED_CONFIG).read_text(encoding="utf-8")
    v_dd = float(_V_DD.search(text).group(1))
    values: dict[str, dict[str, float]] = {g: {} for g in GEOMETRIES}
    lines = []
    for raw in text.splitlines():
        match = _LINE_KEY.match(raw)
        if match:
            geometry, key, value = match.groups()
            scaled = float(value) * factors[geometry]
            values[geometry][key] = scaled
            raw = f"line.{geometry}.{key} = {scaled!r}"
        lines.append(raw)
    (work / "oracle.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        g: LineRC(r=v["r_ohm"], c=v["c_ff"] * _FF, c_c=v["cc_ff"] * _FF, v_dd=v_dd)
        for g, v in values.items()
    }


def check_validate(stdout: str) -> None:
    _require(stdout.rstrip().endswith("overall: pass"), "validate did not pass")
    for geometry in GEOMETRIES:
        _require(f"\ngeometry {geometry}\n" in stdout, f"no section for {geometry}")
    ratios = [float(value) for _, value in _RATIO.findall(stdout)]
    _require(len(ratios) == len(GEOMETRIES), f"expected {len(GEOMETRIES)} ratios")
    low, high = RATIO_WINDOW
    for ratio in ratios:
        _require(low <= ratio <= high, f"distributed ratio {ratio} outside window")


def exact_victim(mode: str, line: LineRC, t: np.ndarray) -> np.ndarray:
    """Exact single-lump victim response per mode.

    In-phase and quiet are the library's closed forms. For out-of-phase
    the three-line network decouples into modes with capacitances C, C+C_c
    and C+3C_c; projecting the drive onto them gives
    v_dd (1 + e^(-t/RC)/3 - (4/3) e^(-t/R(C+3C_c))).
    """
    if mode != "out_of_phase":
        return step_response_victim(CrosstalkMode(mode), line, t)
    fast = np.exp(-t / line.tau_ground)
    slow = np.exp(-t / line.tau_coupled)
    return line.v_dd * (1.0 + fast / 3.0 - 4.0 * slow / 3.0)


def check_waveform(geometry: str, mode: str, line: LineRC, stdout: str, csv: str, svg: str) -> None:
    match = re.match(rf"geometry {geometry} mode {mode} segments 1: (\d+) samples", stdout)
    _require(match is not None, "simulate did not report its sample count")
    samples = int(match.group(1))
    header, _, body = csv.partition("\n")
    _require(header == "time_s,line_a_v,line_b_v,line_c_v", f"bad CSV header {header!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(data.shape == (samples, 4), f"CSV shape {data.shape}, expected ({samples}, 4)")
    _require(bool(np.all(np.isfinite(data))), "CSV holds non-finite values")
    deviation = float(np.max(np.abs(data[:, 2] - exact_victim(mode, line, data[:, 0]))))
    _require(
        deviation <= WAVEFORM_TOLERANCE * line.v_dd,
        f"victim deviates {deviation / line.v_dd:.3e} of the rail from the exact response",
    )
    _require(svg.startswith("<svg ") and svg.endswith("</svg>\n"), "SVG is truncated")
    _require(f">{geometry} {mode} (1 segments)</text>" in svg, "SVG lacks its title")
    polylines = re.findall(r'<polyline [^>]*points="([^"]*)"/>', svg)
    _require(len(polylines) == 3, f"SVG has {len(polylines)} polylines, expected 3")
    for points in polylines:
        _require(len(points.split()) == samples, "SVG polyline is missing points")


class Oracle:
    """`validate` on a seeded config, then a single-lump `simulate` with CSV
    and SVG output for each geometry and mode."""

    name = "oracle"
    # Each validate call spans seconds of machine time; the short simulate
    # calls come in a few bursts per run, so their median is less steady.
    primary = "validate"
    quantile = 0.5

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.lines = write_oracle_inputs(root, work, seed)
        self.config_path = work / "oracle.cfg"

    def ops(self, pass_index: int) -> list[Op]:
        config = str(self.config_path)
        ops = [
            Op(
                "validate",
                ("validate", "--config", config),
                (),
                lambda stdout, files: check_validate(stdout),
                ("validate",),
            )
        ]
        for geometry in GEOMETRIES:
            for mode in MODES:
                csv = str(self.work / f"wave-{geometry}-{mode}.csv")
                svg = str(self.work / f"wave-{geometry}-{mode}.svg")

                def check(stdout, files, g=geometry, m=mode, csv=csv, svg=svg):
                    check_waveform(g, m, self.lines[g], stdout, files[csv], files[svg])

                ops.append(
                    Op(
                        "simulate",
                        ("simulate", "--config", config, "--geometry", geometry,
                         "--mode", mode, "--segments", "1", "--out", csv, "--svg", svg),
                        (csv, svg),
                        check,
                        ("simulate", geometry, mode),
                    )
                )
        return ops

    def summary(self, latencies: dict[str, list[float]]) -> list[tuple[str, float, str, int]]:
        validate, simulate = latencies["validate"], latencies["simulate"]
        return [
            ("validate_s", statistics.median(validate), "s", len(validate)),
            ("waveform_p50_ms", statistics.median(simulate) * 1e3, "ms", len(simulate)),
        ]


# ---------------------------------------------------------------------------
# shared by the extraction workloads


def _draw_truth(rng: np.random.Generator, spec) -> SynthesisTruth:
    f = rng.uniform(1.0 - SPREAD, 1.0 + SPREAD, size=4)
    return SynthesisTruth(
        r_sw=float(spec.r_sw * f[0]),
        c_gate=float(spec.c_gate * f[1]),
        c_int=float(spec.c_int * f[2]),
        c_c=float(spec.c_c * f[3]),
    )


def _record_rows(truth: SynthesisTruth, config, geometry: str, die: str | None) -> list[str]:
    rows = []
    for rec in synthesize_measurements(truth, config.ro_config(geometry)):
        fields = [geometry, rec.fanout.value, rec.mode.value,
                  repr(float(rec.t_osc)), repr(float(rec.i_eff))]
        rows.append(",".join(fields if die is None else [die] + fields))
    return rows


def _measurement_file(columns: str, rows: list[str]) -> str:
    return "units: tosc=s current=A\n" f"columns: {columns}\n" + "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# binning-lot: one many-die file, binned per geometry


@dataclass(frozen=True)
class DieTruth:
    die: str
    r_sw: float
    c_total: float

    @property
    def proxy(self) -> float:
        return self.r_sw * self.c_total


def write_binning_inputs(
    root: Path, work: Path, seed: int, dies: int = LOT_DIES
) -> dict[str, list[DieTruth]]:
    rng = _rng(seed, "binning-lot")
    config = read_config(str(root / BUNDLED_CONFIG))
    shutil.copyfile(root / BUNDLED_CONFIG, work / "binning.cfg")
    truth: dict[str, list[DieTruth]] = {g: [] for g in GEOMETRIES}
    rows = []
    for index in range(dies):
        die = f"d{index:04d}"
        for geometry in GEOMETRIES:
            drawn = _draw_truth(rng, config.spec.for_geometry(geometry))
            truth[geometry].append(DieTruth(die, drawn.r_sw, drawn.c_gate + drawn.c_int))
            rows += _record_rows(drawn, config, geometry, die)
    (work / "lot.csv").write_text(
        _measurement_file("die geometry fanout mode tosc ieff", rows), encoding="utf-8"
    )
    return truth


def _parse_binning(fmt: str, text: str, dies: int) -> list[dict]:
    """Rows of a binning report as dicts of SI values, in report order."""
    if fmt == "json":
        return [
            {k: b[k] for k in ("die", "r_sw", "c_total", "delay_proxy", "scale")}
            for b in parse_report(text)["binning"]["bins"]
        ]
    lines = text.splitlines()
    if fmt == "csv":
        _require(
            lines[0] == "die,geometry,r_sw_ohm,c_total_ff,delay_proxy_ps,scale,"
            "normalized_runtime,improvement_pct",
            "bad binning CSV header",
        )
        fields = [line.split(",") for line in lines[1:]]
        return [
            {"die": f[0], "r_sw": float(f[2]), "c_total": float(f[3]) * _FF,
             "delay_proxy": float(f[4]) * 1e-12, "scale": float(f[5])}
            for f in fields
        ]
    _require(f"({dies} dies, slowest first)" in lines[0], "bad binning text title")
    fields = [line.split() for line in lines[2:]]
    return [
        {"die": f[0], "r_sw": float(f[1]), "c_total": float(f[2]) * _FF,
         "delay_proxy": float(f[3]) * 1e-12, "scale": float(f[4])}
        for f in fields
    ]


def check_binning(fmt: str, text: str, truth: list[DieTruth]) -> None:
    rows = _parse_binning(fmt, text, len(truth))
    expected = sorted(truth, key=lambda t: (-t.proxy, t.die))
    _require(len(rows) == len(expected), f"{len(rows)} dies binned, expected {len(expected)}")
    _require(
        [r["die"] for r in rows] == [t.die for t in expected],
        "dies are not the generated ones, slowest first",
    )
    slowest = expected[0].proxy
    if fmt == "json":
        tol = dict.fromkeys(("r_sw", "c_total", "delay_proxy", "scale"), lambda v: 0.0)
    elif fmt == "csv":
        tol = dict.fromkeys(("r_sw", "c_total", "delay_proxy", "scale"), _sig6)
    else:
        tol = {
            "r_sw": lambda v: _half_unit(2),
            "c_total": lambda v: _half_unit(2) * _FF,
            "delay_proxy": lambda v: _half_unit(4) * 1e-12,
            "scale": lambda v: _half_unit(3),
        }
    for row, want in zip(rows, expected):
        wanted = {
            "r_sw": want.r_sw,
            "c_total": want.c_total,
            "delay_proxy": want.proxy,
            "scale": slowest / want.proxy,
        }
        for field, value in wanted.items():
            _close(row[field], value, tol[field](value), f"{want.die} {field}")
    if fmt == "json":
        top = max(row["delay_proxy"] for row in rows)
        for row in rows:
            _close(row["scale"] * row["delay_proxy"], top, 0.0, f"{row['die']} scale x proxy")


class BinningLot:
    """`ringrc binning` per geometry on one file of LOT_DIES dies, rotating
    the output format from call to call."""

    name = "binning-lot"
    primary = "binning"
    quantile = 0.5

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.truth = write_binning_inputs(root, work, seed)
        self.config_path = work / "binning.cfg"

    def ops(self, pass_index: int) -> list[Op]:
        ops = []
        for i, geometry in enumerate(GEOMETRIES):
            fmt = FORMATS[(pass_index * len(GEOMETRIES) + i) % len(FORMATS)]
            out = str(self.work / f"bins-{geometry}.{fmt}")

            def check(stdout, files, g=geometry, fmt=fmt, out=out):
                check_binning(fmt, files[out], self.truth[g])

            ops.append(
                Op(
                    "binning",
                    ("binning", "--config", str(self.config_path),
                     "--measurements", str(self.work / "lot.csv"),
                     "--geometry", geometry, "--format", fmt, "--out", out),
                    (out,),
                    check,
                    ("binning", geometry, fmt),
                )
            )
        return ops

    def summary(self, latencies: dict[str, list[float]]) -> list[tuple[str, float, str, int]]:
        calls = latencies["binning"]
        return [("binning_dies_per_s", LOT_DIES * len(calls) / sum(calls), "dies/s", len(calls))]


# ---------------------------------------------------------------------------
# die-reports: many short report/extract calls on single-die files


def write_report_inputs(root: Path, work: Path, seed: int) -> list[tuple[Path, dict | None]]:
    """The bundled die plus POOL_DIES seeded dies, each with its truth
    (None for the bundled die, which is checked against PUBLISHED)."""
    rng = _rng(seed, "die-reports")
    config = read_config(str(root / BUNDLED_CONFIG))
    shutil.copyfile(root / BUNDLED_CONFIG, work / "reports.cfg")
    bundled = work / "die-bundled.csv"
    shutil.copyfile(root / BUNDLED_MEASUREMENTS, bundled)
    pool: list[tuple[Path, dict | None]] = [(bundled, None)]
    for k in range(POOL_DIES):
        rows, truth = [], {}
        for geometry in GEOMETRIES:
            drawn = _draw_truth(rng, config.spec.for_geometry(geometry))
            truth[geometry] = {
                "r_sw": drawn.r_sw,
                "c_gate": drawn.c_gate,
                "c_int": drawn.c_int,
                "c_total": drawn.c_gate + drawn.c_int,
                "c_c": drawn.c_c,
            }
            rows += _record_rows(drawn, config, geometry, None)
        path = work / f"die-{k}.csv"
        path.write_text(
            _measurement_file("geometry fanout mode tosc ieff", rows), encoding="utf-8"
        )
        pool.append((path, truth))
    return pool


_TEXT_VALUE = re.compile(r"^  (\w+)\s+(-?[0-9.]+) (ohm|fF)$")


def _parse_extraction(fmt: str, text: str, compared: bool) -> dict[str, dict[str, float]]:
    """Extracted values (SI) per geometry from an extract/report output."""
    values: dict[str, dict[str, float]] = {}
    if fmt == "json":
        payload = parse_report(text)
        _require(emit_report_json(payload) == text, "JSON report does not round-trip")
        for geometry, block in payload["geometries"].items():
            _require(("comparison" in block) == compared, f"{geometry}: comparison block")
            values[geometry] = {k: block["extraction"][k] for k in _EXTRACTED}
        return values
    if fmt == "csv":
        lines = text.splitlines()
        _require(lines[0] == "geometry,parameter,unit,extracted,target,error_pct", "bad CSV header")
        for line in lines[1:]:
            geometry, name, unit, value, target, error = line.split(",")
            if name in _EXTRACTED:
                _require(bool(error) == compared, f"{geometry} {name}: comparison field")
                scale = _FF if unit == "fF" else 1.0
                values.setdefault(geometry, {})[name] = float(value) * scale
        return values
    geometry = None
    for line in text.splitlines():
        if line.startswith("geometry "):
            geometry = line.split()[1]
            values[geometry] = {}
            continue
        match = _TEXT_VALUE.match(line)
        if match and match.group(1) in _EXTRACTED:
            scale = _FF if match.group(3) == "fF" else 1.0
            values[geometry][match.group(1)] = float(match.group(2)) * scale
    _require(text.count("  comparison ") == (len(values) if compared else 0), "comparison tables")
    return values


def check_extraction(fmt: str, text: str, compared: bool, truth: dict | None) -> None:
    values = _parse_extraction(fmt, text, compared)
    _require(sorted(values) == list(GEOMETRIES), f"geometries {sorted(values)}")
    for geometry, got in values.items():
        _require(sorted(got) == sorted(_EXTRACTED), f"{geometry}: parameters {sorted(got)}")
        if truth is None:
            for name, want in PUBLISHED[geometry].items():
                error = abs(got[name] - want) / want
                _require(
                    error <= PUBLISHED_TOLERANCE[name],
                    f"{geometry} {name} is {error:.2%} off the published value",
                )
            continue
        for name in _EXTRACTED:
            want = truth[geometry][name]
            if fmt == "json":
                tol = 0.0
            elif fmt == "csv":
                tol = _sig6(want)
            else:
                tol = _half_unit(2) * (1.0 if name == "r_sw" else _FF)
            _close(got[name], want, tol, f"{geometry} {name}")


class DieReports:
    """Short `report` / `extract` calls cycling over a pool of single-die
    files and the three output formats."""

    name = "die-reports"
    primary = "request"
    # Requests and passes last milliseconds, so each one falls in a fast or
    # a slow phase of a shared machine, and the median jumps with the share
    # of fast phases in a run. The 90th percentile, with thousands of
    # calls beyond it, sits in the slow phase in every run.
    quantile = 0.9

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.pool = write_report_inputs(root, work, seed)
        self.config_path = work / "reports.cfg"
        out = work / "out"
        out.mkdir()
        self._ops = []
        cycle = len(self.pool) * 2 * len(FORMATS)
        for i in range(cycle):
            path, truth = self.pool[i % len(self.pool)]
            command = ("report", "extract")[(i // len(self.pool)) % 2]
            fmt = FORMATS[(i // (2 * len(self.pool))) % len(FORMATS)]
            target = str(out / f"req-{i}.{fmt}")

            def check(stdout, files, fmt=fmt, target=target, cmp=command == "report", truth=truth):
                check_extraction(fmt, files[target], cmp, truth)

            self._ops.append(
                Op(
                    "request",
                    (command, "--config", str(self.config_path), "--measurements", str(path),
                     "--format", fmt, "--out", target),
                    (target,),
                    check,
                    ("request", i),
                )
            )

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    def summary(self, latencies: dict[str, list[float]]) -> list[tuple[str, float, str, int]]:
        calls = latencies["request"]
        return [
            ("report_p50_ms", statistics.median(calls) * 1e3, "ms", len(calls)),
            ("report_p90_ms", statistics.quantiles(calls, n=10)[-1] * 1e3, "ms", len(calls)),
        ]


WORKLOADS = {w.name: w for w in (Oracle, BinningLot, DieReports)}
