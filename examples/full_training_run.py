"""A complete training job: profile on epoch 1, offload from epoch 2 on.

Shows the paper's on-the-fly profiling discipline (section 3.1): the first
epoch runs unoffloaded while SOPHON collects per-sample metrics, and the
plan pays for itself over the remaining epochs.

Run:  python examples/full_training_run.py
"""

from repro import NoOff, Sophon, make_openimages, standard_cluster
from repro.harness.adaptive import AdaptiveTrainingRun
from repro.utils.units import format_bytes, format_seconds


def main() -> None:
    dataset = make_openimages(num_samples=1000, seed=17)
    spec = standard_cluster(storage_cores=48)
    epochs = 8

    def run(policy):
        return AdaptiveTrainingRun(
            dataset, spec, policy=policy, batch_size=256, seed=17
        ).run(epochs)

    sophon = run(Sophon())
    baseline = run(NoOff())

    print(f"plan: {sophon.epochs[-1].plan.reason}\n")
    print("epoch  no-off      sophon      offloaded  traffic")
    for b, s in zip(baseline.epochs, sophon.epochs):
        print(
            f"{s.epoch:>5}  {format_seconds(b.stats.epoch_time_s):>9}  "
            f"{format_seconds(s.stats.epoch_time_s):>9}  "
            f"{s.stats.offloaded_samples:>9}  {format_bytes(s.stats.traffic_bytes):>10}"
        )

    print(f"\njob total: {format_seconds(baseline.total_time_s)} -> "
          f"{format_seconds(sophon.total_time_s)} "
          f"({sophon.speedup_over(baseline):.2f}x; steady-state "
          f"{baseline.steady_epoch_time_s / sophon.steady_epoch_time_s:.2f}x)")
    print("epoch 0 is the profiling epoch: identical to no-off, no extra pass.")


if __name__ == "__main__":
    main()
