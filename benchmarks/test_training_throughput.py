"""Training throughput benchmark: the fused training engine vs the seed path.

Acceptance gates for the fused training engine:

* it runs more trainer steps/sec than the seed full-graph path (the
  ``"reference"`` engine, which preserves the seed implementation op by op)
  at every profile.  The gate is deliberately not a fixed multiple: the
  margin depends on the core count and BLAS build, and speed itself is
  tracked by the repo benchmark (``python3 -m bench``),
* it stays strictly faithful: its per-step losses match the reference
  trajectory to 1e-10 (observed: ~1e-15) on the very steps being timed.

Run with ``pytest benchmarks/test_training_throughput.py -s`` to see the
throughput table.
"""

import pytest

from repro.core import CDRIBTrainer
from repro.experiments import format_rows, run_training_benchmark

SCENARIO = "game_video"
ENGINES = CDRIBTrainer.ENGINES


@pytest.fixture(scope="module")
def throughput_rows(profile):
    rows = run_training_benchmark(SCENARIO, engines=ENGINES,
                                  steps_per_block=15, repeats=5,
                                  profile=profile)
    print("\n" + format_rows(rows))
    return rows


def _by_engine(rows):
    return {row["engine"]: row for row in rows}


class TestTrainingThroughput:
    def test_row_schema(self, throughput_rows):
        assert {"engine", "steps_per_sec", "speedup_vs_reference",
                "max_loss_deviation"} <= set(throughput_rows[0])
        assert [row["engine"] for row in throughput_rows] == list(ENGINES)

    def test_fused_engine_faster_than_reference(self, throughput_rows):
        by_engine = _by_engine(throughput_rows)
        assert by_engine["fused"]["speedup_vs_reference"] > 1.0, (
            f"fused engine speedup "
            f"{by_engine['fused']['speedup_vs_reference']:.2f}x is not above 1x"
        )

    def test_reference_row_is_the_baseline(self, throughput_rows):
        by_engine = _by_engine(throughput_rows)
        assert by_engine["reference"]["speedup_vs_reference"] == pytest.approx(1.0)
        assert by_engine["reference"]["max_loss_deviation"] == 0.0


class TestTrainingFaithfulness:
    def test_timed_losses_match_seed_to_1e10(self, throughput_rows):
        """Acceptance: the fused engine's losses equal the seed trajectory.

        The deviation is computed over the exact steps used for timing, so
        the benchmark cannot pass by trading correctness for speed.
        """
        for row in throughput_rows:
            assert row["max_loss_deviation"] <= 1e-10, (
                f"engine {row['engine']!r} deviated by "
                f"{row['max_loss_deviation']:.3e}"
            )
