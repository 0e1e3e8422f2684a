"""Self-test of the benchmark, in short mode (60 s streams, one pass).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import CheckError, check_session  # noqa: E402
from streamsim import load_scenario, run_session  # noqa: E402
from streamsim.radio import RadioInterval  # noqa: E402
from streamsim.streams import StreamSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def short_run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = short_run(workload, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for m in listed:
        assert f"  {m['name']} = " in "\n".join(lines)
        assert all(line.endswith(f" {m['unit']}") for line in lines
                   if line.startswith(f"  {m['name']} = "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_and_digest_repeat(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    runs = [short_run(workload, 1) for _ in range(2)]
    counts = [{m: v["value"] for m, v in res["metrics"].items()
               if units[m] in ("count", "B")} for _, res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["delivery.events"] > 0
    digests = [line for lines, _ in runs for line in lines
               if line.startswith("digest: ")]
    assert len(digests) == 2 and digests[0] == digests[1]


@pytest.fixture
def session_result():
    sc = load_scenario(str(ROOT / "src" / "streamsim" / "scenarios"
                           / "youtube_onoffm_hspa.scn"))
    return run_session(replace(sc, stream=StreamSpec(60.0, 2e6)))


def test_check_accepts_a_real_session(session_result):
    summary = json.loads(check_session(session_result))
    assert summary["wall_time_s"] > 60.0


def test_check_rejects_nan_in_summary(session_result):
    session_result.summary.stall_total_s = math.nan
    with pytest.raises(CheckError, match="summary"):
        check_session(session_result)


def test_check_rejects_lost_bytes(session_result):
    session_result.dlog.bytes_delivered += 1e6
    with pytest.raises(CheckError, match="bytes delivered"):
        check_session(session_result)


def test_check_rejects_radio_gap(session_result):
    ivs = session_result.radio.intervals
    first = ivs[0]
    ivs[0] = RadioInterval(first.state, first.t_start_s, first.t_end_s - 0.5,
                           first.current_ma)
    with pytest.raises(CheckError, match="radio timeline"):
        check_session(session_result)
