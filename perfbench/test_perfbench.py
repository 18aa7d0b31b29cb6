"""Tiny-size runs of every workload through the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import dataclasses
import importlib
import json

import pytest

import run
from pipeline import WORKLOADS
from tracer import COUNTED, SPANNED

TINY_SYNTH = {"n_classes": "2", "d": "4", "source_per_class": "2",
              "target_train": "4", "target_test": "3", "frames": "[8,10]"}
TINY = {name: dataclasses.replace(
            wl, synth=TINY_SYNTH, timed_iterations=2,
            train={**wl.train, "iterations": "3", "batch_size": "2",
                   "attention_hidden": "4", "classifier_hidden": "4"})
        for name, wl in WORKLOADS.items()}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_named_and_repeatable(capsys, workload):
    first_record, first = _run(capsys, workload, 0)
    second_record, second = _run(capsys, workload, 0)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name in ("accuracy_fused", "map_iou0.5", "map_avg"):
        assert first["metrics"][name] == second["metrics"][name]
    digests = [[r["digests"] for r in rec["runs"]] for rec in (first_record, second_record)]
    assert digests[0] == digests[1] and all(digests[0])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_wtal(capsys, workload):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in SPANNED + COUNTED}
    _, result = _run(capsys, workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"
