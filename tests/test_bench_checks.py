"""The benchmark's own output checks (``bench/workloads.py``) on the outputs
of its workloads, so that a wrong answer fails here before a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from qnichols.cli import main

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def cli_problems(capsys, tmp_path, name: str, seed: int = 1) -> list[str]:
    workload = workloads.CLI_WORKLOADS[name]
    argv = workload.prepare(seed, tmp_path)
    assert main(argv) == 0
    return workload.check(capsys.readouterr().out.encode())


@pytest.mark.parametrize("name", ["classify6", "adjoint-s4-m3"])
def test_cli_workload_output_passes_its_check(capsys, tmp_path, name):
    assert cli_problems(capsys, tmp_path, name) == []


@pytest.mark.slow
def test_charseqs12_output_passes_its_check(capsys, tmp_path):
    assert cli_problems(capsys, tmp_path, "charseqs12") == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_envelopes_sweep_passes_its_checks(seed):
    env = workloads.Envelopes
    ops = env(seed).sweep()
    assert {kind for kind, _, _ in ops} == {"envelope", "post_filter"}
    for kind, args, expected in ops:
        result, _ = env.run(kind, args)
        assert env.check(kind, args, expected, result) == [], (kind, args)
