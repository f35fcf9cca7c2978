"""Acceptance suite: the nine package-level criteria.

Each test prints exactly one pass/fail summary line (visible with -s)
and then asserts, so a red run still shows every criterion's outcome.
Run with:

    pytest tests/test_acceptance.py -v -s
"""

import importlib.resources

import numpy as np
import pytest

from ringrc import (
    CapacitanceSet,
    CrosstalkMode,
    DrivePattern,
    ExtractionResult,
    LineRC,
    ParasiticSet,
    RoConfig,
    SynthesisTruth,
    build_network,
    compare_to_spec,
    effective_capacitance,
    extract_all,
    monitor_binning,
    parse_config,
    parse_measurements,
    run_validation,
    step_response_victim,
    synthesize_measurements,
    threshold_delay,
    victim_delay,
)
from ringrc.reporting import format_validation_text
from ringrc.simulator import quiet_delay_ratio, simulate_step

CONFIG = RoConfig(n=100, m=64, v_dd=0.9)

# Published results for the bundled 28 nm structures: this extraction
# chain's values, an earlier single-oscillator method's values, and the
# shared design targets both are compared against.
PUBLISHED = {
    "1W1S": ParasiticSet(
        c_total=12.51e-15, c_gate=3.02e-15, c_int=9.50e-15,
        c_c=6.82e-15, r_sw=504.0,
    ),
    "1W2S": ParasiticSet(
        c_total=12.24e-15, c_gate=3.82e-15, c_int=8.42e-15,
        c_c=6.81e-15, r_sw=417.0,
    ),
}
PRIOR_METHOD = {
    "1W1S": ParasiticSet(c_total=14.24e-15, r_sw=497.0),
    "1W2S": ParasiticSet(c_total=12.12e-15, r_sw=423.0),
}
TARGETS = {
    "1W1S": ParasiticSet(
        c_total=12.39e-15, c_gate=2.54e-15, c_int=9.85e-15,
        c_c=7.91e-15, r_sw=450.0,
    ),
    "1W2S": ParasiticSet(
        c_total=10.68e-15, c_gate=2.54e-15, c_int=8.14e-15,
        c_c=5.51e-15, r_sw=276.0,
    ),
}


def _report(number: int, name: str, ok: bool, details: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {details}")
    assert ok, f"criterion {number} ({name}): {details}"


@pytest.fixture(scope="module")
def extractions():
    data = importlib.resources.files("ringrc").joinpath("data")
    records = parse_measurements(
        data.joinpath("measurements_28nm.csv").read_text()
    )
    config = parse_config(data.joinpath("config_28nm.cfg").read_text())
    results = {}
    for geometry in ("1W1S", "1W2S"):
        results[geometry] = extract_all(
            records.where("geometry", geometry),
            config.ro_config(geometry),
        ).one()
    return results


def random_line(rng, cc_lo=0.05, cc_hi=2.0):
    r = float(rng.uniform(100.0, 2000.0))
    c = float(rng.uniform(1.0, 20.0)) * 1e-15
    c_c = float(rng.uniform(cc_lo, cc_hi)) * c
    v_dd = float(rng.uniform(0.7, 1.2))
    return LineRC(r=r, c=c, c_c=c_c, v_dd=v_dd)


class TestAcceptance:
    def test_criterion_1_switching_resistance(self, extractions):
        details = []
        ok = True
        for geometry, target in (("1W1S", 504.0), ("1W2S", 417.0)):
            got = extractions[geometry]["r_sw"]
            err = abs(got - target) / target
            ok = ok and err <= 0.01
            details.append(f"{geometry} {got:.2f} ohm ({err * 100:.3f}% vs {target:.0f})")
        _report(1, "switching resistance", ok, "; ".join(details))

    def test_criterion_2_capacitances(self, extractions):
        gates = {"c_gate": 0.025, "c_int": 0.025, "c_total": 0.025}
        details = []
        ok = True
        for geometry in ("1W1S", "1W2S"):
            got = extractions[geometry]
            want = PUBLISHED[geometry].as_dict()
            for name, bound in gates.items():
                err = abs(got[name] - want[name]) / want[name]
                ok = ok and err <= bound
                details.append(f"{geometry} {name} {err * 100:.2f}%")
            # the coupled-pair formula overestimates the published coupling
            # value; gate it loosely, on the symmetric gap so neither side
            # is privileged as the denominator
            gap = abs(got["c_c"] - want["c_c"]) / max(got["c_c"], want["c_c"])
            ok = ok and gap <= 0.20
            details.append(f"{geometry} c_c gap {gap * 100:.2f}% (<=20%)")
        _report(2, "capacitance extraction", ok, "; ".join(details))

    def test_criterion_3_error_report(self):
        checks = [
            ("this work", PUBLISHED, "c_total", (1.0, 15.0)),
            ("this work", PUBLISHED, "r_sw", (12.0, 51.0)),
            ("this work", PUBLISHED, "delay", (12.0, 73.0)),
            ("prior method", PRIOR_METHOD, "delay", (27.0, 74.0)),
        ]
        details = []
        ok = True
        for label, source, param, targets in checks:
            for geometry, target_pct in zip(("1W1S", "1W2S"), targets):
                report = compare_to_spec(source[geometry].as_dict(), TARGETS[geometry])
                if param == "delay":
                    got_pct = report.delay_product_error * 100.0
                else:
                    got_pct = report.param_errors[param] * 100.0
                ok = ok and abs(got_pct - target_pct) <= 2.0
                details.append(
                    f"{label} {geometry} {param} {got_pct:.2f}%"
                    f" (target ~{target_pct:.0f}%)"
                )
        _report(3, "error-report reproduction", ok, "; ".join(details))

    def test_criterion_4_oracle_matches_closed_forms(self):
        rng = np.random.default_rng(20240)
        worst = 0.0
        for _ in range(20):
            line = random_line(rng)
            net = build_network(line, 1)
            for mode in CrosstalkMode:
                result = simulate_step(
                    net, DrivePattern.for_mode(mode, line.v_dd)
                )
                analytic = step_response_victim(
                    mode, line, result.victim.times
                )
                dev = float(
                    np.max(np.abs(result.victim.values - analytic))
                ) / line.v_dd
                worst = max(worst, dev)
        ok = worst <= 1e-4
        _report(
            4,
            "oracle vs closed forms",
            ok,
            f"max |oracle - analytic| = {worst:.2e} of v_dd over 20 draws"
            f" x 3 modes (gate 1e-4)",
        )

    def test_criterion_5_delay_ordering(self):
        rng = np.random.default_rng(20250)
        ok = True
        worst_margin = np.inf
        for _ in range(100):
            line = random_line(rng)
            t_in = victim_delay(line, CrosstalkMode.IN_PHASE)
            t_q = victim_delay(line, CrosstalkMode.QUIET)
            t_o = victim_delay(line, CrosstalkMode.OUT_OF_PHASE)
            ok = ok and t_in <= t_q <= t_o
            worst_margin = min(worst_margin, t_q - t_in, t_o - t_q)
            # analytic path: the exact closed-form delays
            a_in = threshold_delay(CrosstalkMode.IN_PHASE, line)
            a_q = threshold_delay(CrosstalkMode.QUIET, line)
            a_o = threshold_delay(CrosstalkMode.OUT_OF_PHASE, line)
            ok = ok and a_in <= a_q <= a_o
        _report(
            5,
            "delay ordering",
            ok,
            f"oracle in-phase <= quiet <= out-of-phase on 100 draws"
            f" (tightest gap {worst_margin * 1e12:.4f} ps);"
            f" closed forms in the same order on the same draws",
        )

    def test_criterion_6_round_trip(self):
        rng = np.random.default_rng(20260)
        worst_exact = 0.0
        worst_coupled = 0.0
        for _ in range(100):
            c_gate = float(rng.uniform(1.0, 5.0)) * 1e-15
            c_int = float(rng.uniform(3.0, 10.0)) * 1e-15
            # stay inside the documented validity region of the coupled
            # bound (c_c at most twice the stage load) while keeping the
            # out-of-phase response non-degenerate for both fanouts
            lo = 0.4 * (c_int + 2.0 * c_gate)
            hi = min(1.8 * (c_int + 2.0 * c_gate), 2.0 * (c_int + c_gate))
            truth = SynthesisTruth(
                r_sw=float(rng.uniform(100.0, 1000.0)),
                c_gate=c_gate,
                c_int=c_int,
                c_c=float(rng.uniform(lo, hi)),
            )
            records = synthesize_measurements(truth, CONFIG)
            result = extract_all(records, CONFIG).one()
            for got, want in (
                (result["r_sw"], truth.r_sw),
                (result["c_gate"], truth.c_gate),
                (result["c_int"], truth.c_int),
            ):
                worst_exact = max(worst_exact, abs(got - want) / want)
            load = truth.c_int + truth.c_gate
            worst_coupled = max(
                worst_coupled,
                abs(result["c_ground"] - load) / load,
                abs(result["c_c"] - truth.c_c) / truth.c_c,
            )
        ok = worst_exact <= 1e-9 and worst_coupled <= 0.15
        _report(
            6,
            "round-trip extraction",
            ok,
            f"r_sw/c_gate/c_int max rel err {worst_exact:.2e} (gate 1e-9);"
            f" c/c_c max rel err {worst_coupled:.2e} (gate 0.15) on 100 truths",
        )

    def test_criterion_7_capacitance_algebra(self):
        rng = np.random.default_rng(20270)
        ok = True
        for _ in range(200):
            cap = CapacitanceSet(
                c_ta=float(rng.uniform(0.1, 5.0)) * 1e-15,
                c_ba=float(rng.uniform(0.1, 5.0)) * 1e-15,
                c_ft=float(rng.uniform(0.1, 5.0)) * 1e-15,
                c_fb=float(rng.uniform(0.1, 5.0)) * 1e-15,
                c_c=float(rng.uniform(0.1, 10.0)) * 1e-15,
            )
            ok = ok and cap.c_top == cap.c_ta + 2.0 * cap.c_ft
            ok = ok and cap.c_bottom == cap.c_ba + 2.0 * cap.c_fb
            ok = ok and cap.c_ground == cap.c_top + cap.c_bottom
            ok = ok and cap.c_total == cap.c_ground + 2.0 * cap.c_c
            quiet = effective_capacitance(
                CrosstalkMode.QUIET, cap.c_ground, cap.c_c
            )
            in_phase = effective_capacitance(
                CrosstalkMode.IN_PHASE, cap.c_ground, cap.c_c
            )
            oop = effective_capacitance(
                CrosstalkMode.OUT_OF_PHASE, cap.c_ground, cap.c_c
            )
            # the quiet-mode switched load and the total capacitance are
            # the same expression, so they must be equal bit for bit
            ok = ok and quiet == cap.c_total
            ok = ok and in_phase == cap.c_ground
            ok = ok and oop == cap.c_ground + 4.0 * cap.c_c
        _report(
            7,
            "effective-capacitance algebra",
            ok,
            "component sums, total identity and per-mode switched loads"
            " exact on 200 random component sets",
        )

    def test_criterion_8_distributed_scaling(self):
        sweep = [
            LineRC(r=417.0, c=6.2e-15, c_c=8.2e-15, v_dd=0.9),
            LineRC(r=300.0, c=5.0e-15, c_c=2.0e-15, v_dd=0.9),
            LineRC(r=800.0, c=10.0e-15, c_c=12.0e-15, v_dd=0.9),
        ]
        ratios = [quiet_delay_ratio(line, 50) for line in sweep]
        # the reference geometry goes through the validation report path,
        # which must carry the measured ratio in its text output
        outcome = run_validation(
            {"1W1S": LineRC(r=504.0, c=6.6e-15, c_c=8.0e-15, v_dd=0.9)},
            segments=50,
        )
        ratios.append(outcome.geometries[0].distributed_ratio)
        text = format_validation_text(outcome)
        ratio_in_report = f"{outcome.geometries[0].distributed_ratio:.4f}" in text
        ok = all(0.35 <= r <= 0.65 for r in ratios) and ratio_in_report
        _report(
            8,
            "distributed scaling",
            ok,
            "50-segment / lump quiet delay ratios "
            + ", ".join(f"{r:.4f}" for r in ratios)
            + " all within [0.35, 0.65]; ratio present in validation report",
        )

    def test_criterion_9_binning_arithmetic(self):
        c_total = np.array([1.0, 0.8])
        lot = ExtractionResult(
            geometry="1W1S",
            die=np.array(["slow", "fast"], dtype=object),
            r_sw=np.ones(2),
            c_s=c_total / 2.0,
            c_gate=c_total / 4.0,
            c_int=3.0 * c_total / 4.0,
            c_total=c_total,
            c_ground=c_total / 2.0,
            c_c=c_total / 2.0,
        )

        report = monitor_binning(lot)
        improvement = dict(zip(report.die.tolist(), report.improvement.tolist()))
        scale = dict(zip(report.die.tolist(), report.scale.tolist()))
        ok = (
            improvement["slow"] == 0.0
            and improvement["fast"] == 0.25
            and scale["fast"] == 1.25
        )
        _report(
            9,
            "binning arithmetic",
            ok,
            f"delay proxies {{1.0, 0.8}} -> improvements"
            f" {{{improvement['slow']:.0%}, {improvement['fast']:.0%}}}"
            f" exactly",
        )
