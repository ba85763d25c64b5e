"""Self-tests of the benchmark: oracle, generator, tracer and contract.

    python3 -m pytest -q bench/test_bench.py

They do not time anything.  The traced self-check runs a few ops of each
workload with every span kept and checks that the span tree accounts
for each op's wall time exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle as orc  # noqa: E402
import ops as workload_ops  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402


# -- oracle ----------------------------------------------------------------------


def test_oracle_known_answers():
    assert orc.render(orc.expand_sqrt(2)) == "[1; (2)]"
    assert orc.render(orc.expand_sqrt(7)) == "[2; (1, 1, 1, 4)]"
    assert orc.render(orc.expand_surd(1, 1, 2, 5)) == "[(1)]"
    assert orc.render(orc.expand_form("defect", 5, 13, 7)) == "[1, 1; (5)]"
    assert orc.render(orc.expand_form("excess", 1, 0, 2)) == "[1; (2)]"
    assert orc.render(orc.expand_rational(17, 5)) == "[3, 2, 2]"
    assert orc.render(orc.expand_sqrt(16)) == "[4]"


def test_oracle_sqrt_shortcut_matches_general_recurrence():
    for n in list(range(2, 400)) + [10**6 + 3, 10**9 + 7]:
        if orc.expand_sqrt(n)[1] is not None:
            assert orc.expand_sqrt(n) == orc.expand_pqd(0, 1, n)
            assert orc.sqrt_prefix(n, 50) == orc.head(orc.expand_sqrt(n), 50)


def test_oracle_values_below_one_and_conjugates():
    # 1/sqrt(2) = [0; 1, (2)], and (3 - sqrt(2))/7 has a negative surd part
    assert orc.expand_surd(0, 1, 2, 2) == ((0, 1), (2,))
    pre, per = orc.expand_surd(3, -1, 7, 2)
    assert pre[0] == 0 and per


def test_oracle_too_long():
    with pytest.raises(orc.TooLong):
        orc.expand_sqrt(10**9 + 7, 100)


# -- generator ----------------------------------------------------------------------


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gen, "SQRT_BLOCKS", 2)
    monkeypatch.setattr(gen, "RATIO_BLOCKS", 2)
    monkeypatch.setattr(gen, "VERIFY_ROUNDS", 2)
    monkeypatch.setattr(gen, "CLI_BLOCKS", 1)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, small_blocks):
    a = gen.canonical_bytes(gen.generate(workload, 7))
    b = gen.canonical_bytes(gen.generate(workload, 7))
    c = gen.canonical_bytes(gen.generate(workload, 8))
    assert a == b
    assert a != c


def test_generator_block_composition(small_blocks):
    data = gen.generate("ratio_verdicts", 3)
    kinds = [op[0] for op in data["ops"]]
    per_block = len(kinds) // gen.RATIO_BLOCKS
    assert kinds[:per_block].count("eq") == 12 and kinds[:per_block].count("prop") == 2
    eq = [want for op, want in zip(data["ops"], data["expect"]) if op[0] == "eq"]
    assert eq.count(True) == eq.count(False)


# -- traced-run self-check --------------------------------------------------------------


def _tiny_traced_run(workload: str, n_ops: int):
    import anthyphairesis as pkg

    data = gen.generate(workload, 5)
    run, answer = workload_ops.runner(workload, pkg)
    t = tr.Tracer(keep=10**7)
    t.install(pkg)
    try:
        res = worker.closed_loop(data["ops"], run, answer, 3600, 0, data["block"],
                                 limit=n_ops, tracer=t)
    finally:
        t.uninstall()
    assert res["answers"] == data["expect"][:n_ops]
    return t, res


def _check_accounting(t: tr.Tracer, walls):
    per_op = tr.self_times_from_spans(t.spans)
    for op, wall in enumerate(walls):
        own, top = per_op.get(op, (0, 0))
        assert own == top  # every child span is accounted in exactly one parent
        assert 0 <= wall - top  # spans lie inside the op
    by_id = {s[0]: s for s in t.spans}
    for sid, name, t0, t1, parent, op in t.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= t0 <= t1 <= p[3] and p[5] == op
    c = t.counters()
    total_self = sum(c[layer + ".self_ns"] for layer in tr.LAYERS)
    assert total_self == sum(own for own, _ in per_op.values())
    # per-layer self times plus the untraced remainder add up to the op walls
    assert total_self + c["untraced_ns"] == sum(walls) == c["wall_ns"]
    return c


@pytest.mark.parametrize("workload, n_ops, dominant", [
    ("sqrt_expand", 14, "engine"),
    ("ratio_verdicts", 40, "exactarith"),
    ("verify_suites", 80, "exactarith"),
])
def test_traced_self_check(workload, n_ops, dominant, small_blocks):
    t, res = _tiny_traced_run(workload, n_ops)
    c = _check_accounting(t, res["lat_ns"])
    assert tr.dominant_layer(c) == dominant
    m = tr.metrics(c)
    assert set(m) | {"trace.overhead"} | {k for k in bench_run.PER_LAYER if k.startswith("cli.")} \
        == set(bench_run.PER_LAYER)
    if workload == "sqrt_expand":
        assert m["exactarith.square_free_split.calls"] == 0
        assert m["engine.expansions"] == 1
    if workload == "ratio_verdicts":
        assert m["ratios.via_surd_cf_share"] > 0
    if workload == "verify_suites":
        assert m["properties.trials"] == 1 and m["areas.calls"] > 0


def test_tracer_uninstall_restores_package():
    import anthyphairesis as pkg
    import anthyphairesis.ratios as ratios

    before = (pkg.run_anthyphairesis, ratios.surd_cf, pkg.QuadSurd.__dict__["floor"])
    t = tr.Tracer()
    t.install(pkg)
    assert ratios.surd_cf is not before[1]
    t.uninstall()
    assert (pkg.run_anthyphairesis, ratios.surd_cf, pkg.QuadSurd.__dict__["floor"]) == before


def test_cli_launcher_self_check(small_blocks):
    data = gen.generate("cli_session", 4)
    launches, outside = [], 0
    short = [(argv, want) for argv, want in zip(data["ops"], data["expect"]) if want["exit"] == 0]
    for argv, want in short[:4]:
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, str(BENCH / "cli_launcher.py"),
                               str(ROOT / "src")] + argv,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter_ns() - t0
        launch = json.loads(proc.stdout)
        assert workload_ops.check_cli(want, launch["code"], launch["out"]) is None
        c = launch["counters"]
        assert sum(c[layer + ".self_ns"] for layer in tr.LAYERS) + c["untraced_ns"] \
            == c["wall_ns"]
        assert c["cli.main.calls"] == 1
        launches.append(c)
        outside += wall - c["wall_ns"]
    merged = tr.merge(launches)
    assert tr.metrics(merged)["cli.main.s"] > 0
    # interpreter start and import outweigh the library on short commands
    assert tr.dominant_layer(merged, outside) == "cli"


# -- host-speed scaling ------------------------------------------------------------------


def test_latencies_are_scaled_by_their_blocks_reference():
    half = bench_run.calib.NOMINAL_S / 2
    result = {"lat_ns": [10**6] * 6, "ref_s": [half, half, 2 * half], "ref_every": 2}
    scaled = bench_run.nominal_seconds(result)
    assert scaled == pytest.approx([2e-3] * 4 + [1e-3] * 2)
    # three blocks of two ops: 4 ms, 4 ms and 2 ms; the median block is 4 ms
    assert bench_run.throughput(scaled, 2) == pytest.approx(2 / 4e-3)


def test_reference_kernel_is_fixed_work():
    import calib

    assert calib.kernel() == calib.kernel()
    assert calib.measure() > 0


# -- contract ------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sqrt_expand",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
