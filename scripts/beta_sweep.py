"""Sweep the corruption rate on the path protocol and tabulate overheads.

Runs every built-in adversary strategy at each beta and prints mean
rounds, source sends, and target receives next to the resampling
prediction expected_resamples(beta) = 1/(1 - beta).  Useful for eyeballing
how far the simulator sits from the analytic ceiling before trusting a new
strategy.

    python3 scripts/beta_sweep.py --n 200 --trials 100
    python3 scripts/beta_sweep.py --betas 0,0.02,0.05,0.0833 --strategies random_mix
"""

import argparse

from supsim.adversary import builtin_strategies, expected_resamples
from supsim.harness import ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="path length")
    ap.add_argument("--trials", type=int, default=100, help="seeds per cell")
    ap.add_argument(
        "--betas", default="0,0.02,0.05,0.0833",
        help="comma-separated corruption rates",
    )
    ap.add_argument(
        "--strategies", default="always_reject,silent,corrupt_output,random_mix",
        help="comma-separated strategy names, or 'all'",
    )
    args = ap.parse_args()

    betas = [float(x) for x in args.betas.split(",")]
    if args.strategies == "all":
        strategies = sorted(builtin_strategies())
    else:
        strategies = args.strategies.split(",")

    print(f"path n={args.n}, {args.trials} seeds per cell")
    header = f"{'beta':>7} {'strategy':<16} {'rounds':>8} {'sends':>7} {'recvs':>7} {'1/(1-b)':>9}"
    print(header)
    print("-" * len(header))
    for beta in betas:
        pred = expected_resamples(beta)
        for strat in strategies:
            cfg = ExperimentConfig(
                app="path", n=args.n, beta=beta, strategy=strat,
                seeds=tuple(range(args.trials)),
            )
            s = run_experiment(cfg).summary
            print(
                f"{beta:>7.4f} {strat:<16} {s['mean_rounds']:>8.1f} "
                f"{s['mean_source_sends']:>7.3f} {s['mean_target_receives']:>7.3f} "
                f"{pred:>9.3f}"
            )


if __name__ == "__main__":
    main()
