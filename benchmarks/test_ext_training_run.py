"""Extension: full-job amortization of on-the-fly profiling (section 3.1).

The paper's profiling costs one unoffloaded epoch; "a typical training job
spans over 50 epochs", so the plan's savings dwarf the profiling epoch.
This benchmark runs complete jobs (profile + planned epochs) and shows the
end-to-end speedup converging to the steady-state per-epoch speedup as the
job grows.
"""

import pytest

from benchmarks.conftest import run_once
from repro.baselines import NoOff
from repro.cluster.spec import standard_cluster
from repro.core.sophon import Sophon
from repro.harness.adaptive import AdaptiveTrainingRun
from repro.utils.tables import render_table

EPOCH_COUNTS = (2, 5, 10)


def test_ext_full_training_run(benchmark, openimages):
    spec = standard_cluster(storage_cores=48)

    def regenerate():
        outcome = {}
        for epochs in EPOCH_COUNTS:
            sophon = AdaptiveTrainingRun(
                openimages, spec, policy=Sophon(), batch_size=256, seed=7
            ).run(epochs)
            base = AdaptiveTrainingRun(
                openimages, spec, policy=NoOff(), batch_size=256, seed=7
            ).run(epochs)
            outcome[epochs] = (sophon, base)
        return outcome

    outcome = run_once(benchmark, regenerate)

    print("\nEnd-to-end job speedup (profiling epoch included):")
    print(render_table(
        ("Epochs", "No-Off total", "SOPHON total", "Job speedup", "Steady speedup"),
        [
            (
                epochs,
                f"{base.total_time_s:.1f}s",
                f"{sophon.total_time_s:.1f}s",
                f"{sophon.speedup_over(base):.2f}x",
                f"{base.steady_epoch_time_s / sophon.steady_epoch_time_s:.2f}x",
            )
            for epochs, (sophon, base) in outcome.items()
        ],
    ))

    steady = None
    previous = 0.0
    for epochs in EPOCH_COUNTS:
        sophon, base = outcome[epochs]
        # Epoch 0 is a plain No-Off epoch: zero profiling overhead.
        assert sophon.profile_epoch_time_s == pytest.approx(
            base.profile_epoch_time_s
        )
        speedup = sophon.speedup_over(base)
        steady = base.steady_epoch_time_s / sophon.steady_epoch_time_s
        # Speedup grows with job length and is bounded by steady state.
        assert speedup > previous
        assert speedup < steady
        previous = speedup

    # Steady-state matches the Figure 3 headline (~2.2x).
    assert steady == pytest.approx(2.2, rel=0.1)
    # At 10 epochs the job is already within ~15% of steady state.
    sophon10, base10 = outcome[10]
    assert sophon10.speedup_over(base10) > steady * 0.85
