"""The benchmark's own tests: inputs, the output check, repeatable
counts, and the driver-facing contract.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import run as bench
from perfbench.check import OutputCheck, drive, make_devices, seed_arp
from perfbench.traffic import POOL_FRAMES, Stream, firewall_pool, iprouter_pool
from perfbench.workloads import FDD, WORKLOADS, Run
from repro.configs.firewall import FIREWALL_RULES
from repro.configs.iprouter import ip_router_config
from repro.core import Pipeline, load_config, named_pipeline, save_config
from repro.elements.runtime import Router

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The counts that must repeat exactly across two runs of one seed.
EXACT = (
    "core.elements_out",
    "runtime.fastpath.specialized",
    "runtime.fastpath.inlined_calls",
    "runtime.fastpath.source_lines",
    "runtime.fdd.nodes",
    "runtime.fdd.paths",
    "runtime.fdd.loads_saved",
    "runtime.fdd.diagram_rebuilds",
    "runtime.tier2_frac",
    "runtime.deopts",
    "runtime.recompiles",
    "runtime.codegen_cache.hits",
    "runtime.codegen_cache.misses",
    "shard.balance",
    "sim.modeled_ns_per_pkt",
)


def test_firewall_traffic_hits_every_rule_evenly():
    _pool, rules = firewall_pool(5)
    hits = Counter(rules)
    assert sorted(hits) == list(range(len(FIREWALL_RULES)))
    dns5 = [name for name, _ in FIREWALL_RULES].index("DNS-5")
    assert hits[dns5] <= 1.25 * POOL_FRAMES / len(FIREWALL_RULES)


def test_pools_depend_on_the_seed_only():
    assert iprouter_pool(3) == iprouter_pool(3)
    assert iprouter_pool(3) != iprouter_pool(4)
    assert firewall_pool(3) == firewall_pool(3)


def test_pass_by_pass_setup_matches_the_named_pipeline():
    """Setup times each pass on its own; the result must be exactly what
    ``named_pipeline("paper")`` (click-optimize's default) produces."""
    text = ip_router_config()
    whole = named_pipeline("paper").run(load_config(text)).graph
    graph = load_config(text)
    for pass_ in named_pipeline("paper").passes:
        graph = Pipeline([pass_], name=pass_.name).run(graph).graph
    assert save_config(graph) == save_config(whole)


def _measured_iprouter(bursts):
    devices = make_devices(("eth0", "eth1"))
    router = Router(load_config(ip_router_config()), devices=devices, profile=FDD)
    seed_arp(router)
    drive(router, devices, bursts)
    return devices


def test_check_counts_a_corrupted_frame():
    stream = Stream(iprouter_pool(1), 16)
    bursts = [stream.next_burst() for _ in range(8)]
    check = OutputCheck(ip_router_config(), ("eth0", "eth1"), arp=True)
    assert check.run(bursts, _measured_iprouter(bursts)) == 0

    devices = _measured_iprouter(bursts)
    frame = bytearray(devices["eth1"].transmitted[3])
    frame[-1] ^= 0xFF
    devices["eth1"].transmitted[3] = bytes(frame)
    assert check.run(bursts, devices) == 1
    assert check.failed == 1

    devices = _measured_iprouter(bursts)
    del devices["eth1"].transmitted[0]
    assert check.run(bursts, devices) == 1


def test_sharded_check_allows_cross_flow_reordering_only():
    stream = Stream(iprouter_pool(2), 16)
    bursts = [stream.next_burst() for _ in range(8)]
    check = OutputCheck(ip_router_config(), ("eth0", "eth1"), arp=True, sharded=True)
    devices = _measured_iprouter(bursts)
    devices["eth1"].transmitted.reverse()  # many flows: order within each breaks
    assert check.run(bursts, devices) >= 1

    devices = _measured_iprouter(bursts)
    frame = bytearray(devices["eth1"].transmitted[0])
    frame[-1] ^= 0x01
    devices["eth1"].transmitted[0] = bytes(frame)
    assert check.run(bursts, devices) == 1


def _counts(name, seed):
    run = Run(WORKLOADS[name], seed, 0.2, trace=True).run()
    assert run.failed == 0
    metrics = run.per_layer()
    return {key: metrics[key][0] for key in EXACT if key in metrics}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed(name):
    first = _counts(name, 7)
    assert first == _counts(name, 7)
    assert "sim.modeled_ns_per_pkt" in first
    # Another seed changes the traffic and still forwards correctly.
    _counts(name, 8)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_contract(trace):
    done = _run(["--workload", "iprouter-skew", "--seed", "3", "--seconds", "0.3", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(bench.PER_LAYER)


def _group_members(group):
    """Pids of live or unreaped processes in process group ``group``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == group:
                members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_a_sharded_run_leaves_no_process_behind():
    # Its own session, so every process the run starts (shard workers,
    # the multiprocessing resource tracker) shares its process group.
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "iprouter-shard2",
         "--seed", "3", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=170) == 0
    assert _group_members(process.pid) == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(["--workload", "iprouter-skew", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
