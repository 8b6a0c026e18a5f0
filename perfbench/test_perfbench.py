"""Checks of the benchmark itself: the tracer's wiring and the runner's
failure path.  Run with ``python3 -m pytest perfbench`` from the repository
root; one traced pass of every workload takes about half a minute.
"""

import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))


def _traced_pass(workload, tmp_path):
    with tracing.Tracer() as setup_tracer:
        workloads, queries = run._setup(workload, tmp_path)
    runner = run.Runner(workloads, queries, tmp_path, seed=0)
    _, _, plain = runner.run_pass(parity=0)
    with tracing.Tracer() as tracer:
        _, _, traced = runner.run_pass(parity=0, tracer=tracer)
    return workloads, setup_tracer.spans + tracer.spans, plain, traced


@pytest.mark.parametrize("workload", ["corpus-cli", "exhaustion-deep", "finite-large"])
def test_listed_spans_fire_and_no_others(workload, tmp_path):
    workloads, spans, plain, traced = _traced_pass(workload, tmp_path)
    assert {s.name for s in spans} == workloads.SPANS[workload]

    metrics = tracing.layer_metrics(spans)
    if workload == "finite-large":
        for layer in ("sset.Exhaustion.truncate", "sset.is_locally_finite"):
            assert metrics[f"{layer}.calls"] == 0
            assert metrics[f"{layer}.self_s"] == 0
    if workload == "corpus-cli":
        # tracing leaves every --json document byte for byte as it was
        assert {q.label: a.stdout for q, a, _ in traced} \
            == {q.label: a.stdout for q, a, _ in plain}
        assert metrics["cli.main.calls"] == len(plain)
        assert metrics["laws.run_all.cases"] > 40000


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (top,) = by_name["outer"]
    assert all(s.parent is top for s in by_name["inner"])
    children = sum(s.duration for s in by_name["inner"])
    assert 0 <= top.self_s <= top.duration - children


def test_uninstall_restores_every_binding(tmp_path):
    run._setup("finite-large", tmp_path)
    from ctlhom import chainalg, cli, snf, sset

    before = (chainalg.smith_normal_form, cli.is_locally_finite,
              chainalg.THEORY_DRIVERS["H"], snf.IntMatrix.__matmul__,
              sset.Exhaustion.truncate)
    with tracing.Tracer():
        assert chainalg.smith_normal_form is not before[0]
        assert cli.is_locally_finite is not before[1]
        assert chainalg.THEORY_DRIVERS["H"] is not before[2]
    after = (chainalg.smith_normal_form, cli.is_locally_finite,
             chainalg.THEORY_DRIVERS["H"], snf.IntMatrix.__matmul__,
             sset.Exhaustion.truncate)
    assert all(a is b for a, b in zip(before, after))


def test_oracle_applies_universal_coefficients(tmp_path):
    workloads, _ = run._setup("finite-large", tmp_path)
    expect = workloads.expected_groups
    assert expect("H", "rp2", "z/2") == {0: (1, ()), 1: (1, ()), 2: (1, ())}
    assert expect("H_co", "rp2", "z/3") == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    assert expect("H_co", "rp2", "q") == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    assert expect("H_BM", "cylinder") == {0: (0, ()), 1: (1, ()), 2: (1, ())}


def test_runner_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_scales_calibration_work_to_the_reference():
    """Timing calibrate() itself reads its reference time per call, whatever
    the host's speed, and leaves the handler's own time out."""
    with run.SpeedProbe() as probe:
        start = probe.mark()
        for _ in range(400):
            run.calibrate()
        end = probe.mark()
    raw, scaled = probe.elapsed(start, end)
    assert len(probe.samples) > 2 * run.PROBE_MIN_SAMPLES
    assert raw < end[0] - start[0]
    assert scaled == pytest.approx(400 * run.REFERENCE_CALIBRATION_S, rel=0.3)
