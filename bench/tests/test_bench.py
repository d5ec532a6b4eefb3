"""Tests of the benchmark itself: oracles, seeding and a smoke run.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Plain  # noqa: E402


def test_catalan_known_values():
    assert [oracles.catalan(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_pp_derivation_counts_match_known_parses():
    # k=6 gives 429 derivations and k=8 gives 4,862 (cap 5000).
    assert oracles.pp_derivations(6, 10**6) == 429
    assert oracles.pp_derivations(8, 5000) == 4862
    assert oracles.pp_derivations(8, 500) == 500


def test_projectivity_oracle_on_corpus_figures():
    # fig7: likes(0) -> John(1):1, Lyn(2):2, really(3):ATTR; "John really likes Lyn".
    assert oracles.is_projective([-1, 0, 0, 0], [1, 3, 0, 2])
    # fig8: think(0) -> you(1), claimed(2) -> Mary(3), liked(4) -> Sarah(5), who(6);
    # "who (do) you think (that) Mary claimed (that) Sarah liked".
    fig8 = [-1, 0, 0, 2, 2, 4, 4]
    assert not oracles.is_projective(fig8, [6, 1, 0, 3, 2, 5, 4])
    # fig12: omdat(0) -> zag(1) -> Wim(2), helpen(3) -> Jan(4), leren(5) -> Marie(6),
    # zwemmen(7) -> kinderen(8) -> de(9);
    # "omdat Wim Jan Marie de kinderen zag helpen leren zwemmen".
    fig12 = [-1, 0, 1, 1, 3, 3, 5, 5, 7, 8]
    assert not oracles.is_projective(fig12, [0, 2, 4, 6, 9, 8, 1, 3, 5, 7])
    # The same tree in head-first preorder is projective.
    children = [[1], [2, 3], [], [4, 5], [], [6, 7], [], [8], [9], []]
    assert oracles.is_projective(fig12, oracles.preorder(children, 0))


def test_membership_regexes():
    assert oracles.ADVERB_MEMBER.match("John really really likes Lyn")
    assert not oracles.ADVERB_MEMBER.match("John likes really Lyn")
    assert oracles.PP_MEMBER.match("Lyn saw John with telescope with Lyn")
    assert not oracles.PP_MEMBER.match("Lyn saw John with")


def _inputs(name: str, seed: int, deck: int = 0) -> list[str]:
    workload = workloads.WORKLOADS[name](seed)
    workload.load(Plain)
    return [op.input for op in workload.deck(deck)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)
    assert _inputs(name, 7, deck=0) != _inputs(name, 7, deck=1)


def test_random_orders_agree_with_oracle_by_construction():
    import random

    rng = random.Random(3)
    for size, chain in [(30, 0.0), (30, 0.5), (30, 1.0)]:
        parent, children = workloads.random_tree(rng, size, chain)
        assert oracles.is_projective(parent, workloads.projective_order(rng, children, 0))


def _bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_every_workload(name):
    # --seconds 0 still runs one whole deck.
    result = _bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "dep-pipeline", "--seed", "1", "--seconds", "0", "--trace", "1")
    metrics = result["metrics"]
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["chart.parse.calls"]["value"] == 0
    assert metrics["dependency.is_projective.calls"]["value"] > 0
    assert metrics["probe.deep.attempted"]["value"] == len(run.DEEP_CHAINS) * 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dep-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == "" or not done.stdout.strip().splitlines()[-1].startswith("{")
