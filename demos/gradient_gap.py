"""Agreement of the two training objectives' gradients.

The distillation-style objective differentiates through a one-step
numerical solve of the probability-flow equation; the self-consistency
objective replaces that solve by an exact re-noising construction.  Both
are evaluated on common random draws, so their parameter gradients agree
to second order in the grid spacing: the gap should shrink with slope ~2
on a log-log plot.

Usage: python3 demos/gradient_gap.py [seed]
"""

import sys

from cmlab.harness import gradcheck_experiment


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    res = gradcheck_experiment(seed=seed)
    print(f"{'dt':>8}  {'gap':>12}  {'std_err':>10}")
    for row in res["rows"]:
        print(f"{row['dt']:>8g}  {row['gap']:>12.6e}  "
              f"{row['std_err']:>10.2e}")
    fit = res["fit"]
    print(f"\nfitted slope: {fit['slope']:.3f}  "
          f"(r^2 = {fit['r_squared']:.5f}, expected ~2)")


if __name__ == "__main__":
    main()
