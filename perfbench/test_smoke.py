"""Tiny-scale smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _run(argv, tamper=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, tamper)
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _tiny(workload, trace=0, tamper=None):
    return _run(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", str(trace), "--tiny"], tamper)


def _declared(key):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", ["assoc-dense", "assoc-binding", "figures-l100",
                                      "ser-localscat"])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, key):
    doc = _tiny(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    printed = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert printed == _declared(key)
    if trace == 0:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        assert doc["metrics"]["ok_frac"]["value"] == 1.0


def _edit_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def test_infeasible_association_is_a_failure():
    def overfill_ap0(rep_dir):
        def edit(header, rows):
            a, ap, masked = header.index("a_lk"), header.index("ap_id"), header.index("masked")
            for row in rows:
                if row[ap] == "0":
                    row[a], row[masked] = "1", "0"
        _edit_csv(os.path.join(rep_dir, "associate_sua.csv"), edit)

    doc = _tiny("assoc-binding", tamper=overfill_ap0)
    assert not doc["correct"] and doc["failed"] > 0
    assert doc["metrics"]["ok_frac"]["value"] < 1.0


def test_tampered_pd_row_is_a_failure():
    def shift_one_pd_row(rep_dir):
        def edit(header, rows):
            i = header.index("pd_mc")
            rows[0][i] = repr(min(1.0, float(rows[0][i]) + 0.2) if float(rows[0][i]) < 0.5
                              else float(rows[0][i]) - 0.2)
        _edit_csv(os.path.join(rep_dir, "pd_sua.csv"), edit)

    doc = _tiny("figures-l100", tamper=shift_one_pd_row)
    assert not doc["correct"] and doc["failed"] > 0
    assert doc["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "assoc-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
