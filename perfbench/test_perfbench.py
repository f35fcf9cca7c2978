"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ringrc  # noqa: E402
import ringrc.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _call(argv: list[str]) -> None:
    assert ringrc.cli.main(argv) == 0


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize(
    "write",
    [
        workloads.write_oracle_inputs,
        lambda root, work, seed: workloads.write_binning_inputs(root, work, seed, dies=40),
        workloads.write_report_inputs,
    ],
    ids=["oracle", "binning-lot", "die-reports"],
)
def test_generators_are_deterministic_under_a_seed(tmp_path, write):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, (3, 3, 4)):
        directory.mkdir()
        write(ROOT, directory, seed)
    first, again, other = (_files(d) for d in dirs)
    assert first == again
    assert first.keys() == other.keys() and first != other


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, 0),
        Span("a", 1.0, 4.0, 0, 1, 0),
        Span("leaf", 2.0, 3.0, 1, 1, 0),
        Span("b", 5.0, 7.0, 0, 1, 0),
        Span("c", 6.0, 8.0, 0, 1, 0),  # overlaps b: counted once
        Span("d", 9.5, 11.0, 0, 1, 0),  # runs past the parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_are_per_traced_pass():
    spans = [
        Span("cli.main", 0.0, 4.0, -1, 1, 0),
        Span("files.read_measurements", 1.0, 2.0, 0, 1, 12),
        Span("cli.main", 4.0, 6.0, -1, 2, 0),
        Span("files.read_measurements", 4.5, 5.0, 2, 2, 12),
    ]
    metrics = tracing.layer_metrics(spans, passes=2)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["cli.main.busy_s"] == pytest.approx(3.0)
    assert metrics["cli.main.self_s"] == pytest.approx(2.25)
    assert metrics["files.read_measurements.rows"] == 12.0
    assert metrics["simulator.simulate_step.calls"] == 0.0


def _bindings() -> dict:
    owners = [m for n, m in sys.modules.items() if n == "ringrc" or n.startswith("ringrc.")]
    owners.append(ringrc.simulator.NetworkStateSpace)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_pass_records_spans_and_restores_every_original(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    op = workloads.DieReports(ROOT, tmp_path, seed=1).ops(0)[0]
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer):
            assert ringrc.cli.main is not before[(id(ringrc.cli), "main")]
            assert ringrc.cli.extract_all is ringrc.extraction.extract_all
            latency, error = run.execute(ringrc.cli, op, tracer, 1, set())
            assert error is None
            raise RuntimeError("restore even when the pass fails")
    assert _bindings() == before
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "files.read_measurements", "extraction.extract_all",
            "oscillator.MeasurementRecord", "reporting.emit_report"} <= names
    assert all(span.parent < i for i, span in enumerate(tracer.spans))
    written = [s.amount for s in tracer.spans if s.name == "files.write_text_atomic"]
    assert written == [Path(op.outputs[0]).stat().st_size]


# ---------------------------------------------------------------------------
# output checks reject corrupted outputs


def test_binning_check_rejects_a_missing_die_a_wrong_order_and_a_wrong_scale(tmp_path):
    truth = workloads.write_binning_inputs(ROOT, tmp_path, 5, dies=30)
    for fmt in workloads.FORMATS:
        out = tmp_path / f"bins.{fmt}"
        _call(["binning", "--config", str(tmp_path / "binning.cfg"),
               "--measurements", str(tmp_path / "lot.csv"), "--geometry", "1W2S",
               "--format", fmt, "--out", str(out)])
        text = out.read_text()
        workloads.check_binning(fmt, text, truth["1W2S"])
        if fmt == "json":
            bins = json.loads(text)["binning"]["bins"]
            missing = bins[:7] + bins[8:]
            swapped = bins[:3] + [bins[4], bins[3]] + bins[5:]
            wrong = json.loads(json.dumps(bins))
            wrong[3]["scale"] *= 1.00001
            corrupted_texts = [
                json.dumps({"format": "ringrc-report/1", "binning": {"bins": b}})
                for b in (missing, swapped, wrong)
            ]
        else:
            lines = text.splitlines(keepends=True)
            missing = lines[:9] + lines[10:]
            swapped = lines[:9] + [lines[10], lines[9]] + lines[11:]
            corrupted_texts = ["".join(missing), "".join(swapped)]
        for corrupted in corrupted_texts:
            with pytest.raises(CheckFailed):
                workloads.check_binning(fmt, corrupted, truth["1W2S"])


def test_waveform_check_rejects_an_offset_of_2e_4_of_the_rail(tmp_path):
    lines = workloads.write_oracle_inputs(ROOT, tmp_path, 2)
    op = next(op for op in workloads.Oracle(ROOT, tmp_path, 2).ops(0)
              if op.key == ("simulate", "1W1S", "quiet"))
    stdout_file = tmp_path / "stdout.txt"
    with stdout_file.open("w") as fh, contextlib.redirect_stdout(fh):
        _call(list(op.argv))
    stdout = stdout_file.read_text()
    csv_path, svg_path = op.outputs
    csv, svg = Path(csv_path).read_text(), Path(svg_path).read_text()
    workloads.check_waveform("1W1S", "quiet", lines["1W1S"], stdout, csv, svg)

    rows = csv.splitlines(keepends=True)
    t, a, b, c = rows[100].rstrip("\n").split(",")
    shifted = float(b) + 2e-4 * lines["1W1S"].v_dd
    rows[100] = f"{t},{a},{shifted:.9e},{c}\n"
    with pytest.raises(CheckFailed, match="deviates"):
        workloads.check_waveform("1W1S", "quiet", lines["1W1S"], stdout, "".join(rows), svg)
    with pytest.raises(CheckFailed, match="truncated"):
        workloads.check_waveform("1W1S", "quiet", lines["1W1S"], stdout, csv, svg[:-20])


VALIDATE_OK = """model validation report

geometry 1W1S
  distributed(50) / lump quiet delay: 0.6059 [expected 0.35..0.65; pass]

geometry 1W2S
  distributed(50) / lump quiet delay: 0.6116 [expected 0.35..0.65; pass]

overall: pass
"""


def test_validate_check_rejects_a_failed_run_or_a_ratio_outside_the_window():
    workloads.check_validate(VALIDATE_OK)
    for corrupted in (
        VALIDATE_OK.replace("overall: pass", "overall: FAIL"),
        VALIDATE_OK.replace("0.6116", "0.6616"),
        VALIDATE_OK.replace("geometry 1W2S", "geometry 1W3S"),
    ):
        with pytest.raises(CheckFailed):
            workloads.check_validate(corrupted)


def test_extraction_check_rejects_wrong_values_and_non_canonical_json(tmp_path):
    pool = workloads.write_report_inputs(ROOT, tmp_path, 6)
    for (path, truth), command in zip(pool[:2], ("report", "extract")):
        for fmt in workloads.FORMATS:
            out = tmp_path / f"out-{path.stem}.{fmt}"
            _call([command, "--config", str(tmp_path / "reports.cfg"),
                   "--measurements", str(path), "--format", fmt, "--out", str(out)])
            text = out.read_text()
            compared = command == "report"
            workloads.check_extraction(fmt, text, compared, truth)
            with pytest.raises(CheckFailed):
                workloads.check_extraction(fmt, text, not compared, truth)
            if fmt == "json":
                payload = json.loads(text)
                payload["geometries"]["1W1S"]["extraction"]["r_sw"] *= 1.02
                wrong = json.dumps(payload, sort_keys=True, indent=2) + "\n"
                with pytest.raises(CheckFailed):
                    workloads.check_extraction(fmt, wrong, compared, truth)
                with pytest.raises(CheckFailed, match="round-trip"):
                    workloads.check_extraction(fmt, json.dumps(json.loads(text)), compared, truth)
            else:
                lines = text.splitlines(keepends=True)
                dropped = "".join(line for line in lines if "c_int" not in line)
                with pytest.raises(CheckFailed):
                    workloads.check_extraction(fmt, dropped, compared, truth)


# ---------------------------------------------------------------------------
# BENCHMARK.json matches what the runner reports


def test_benchmark_file_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.metric_unit(name) for name in tracing.metric_names()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
