"""Step-size scaling of the one-step sampler.

Runs the grid-discretized consistency map at several uniform-stage step
sizes h, subtracts the h-independent floor obtained by Richardson
extrapolation on the uniform-grid family, and fits a log-log line to the
excess error.  The fitted slope should sit near 1: the discretization
contribution to the Wasserstein-2 error is first order in h.

Usage: python3 demos/h_scaling.py [seed]
"""

import sys

from cmlab.harness import fit_loglog, h_sweep_one_step


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    # the defaults are criterion 1's pinned run
    rep = h_sweep_one_step(seed=seed)

    print(f"floor (Richardson, at h={rep['floor_h']}): {rep['floor']:.6f}")
    print(f"{'h':>8}  {'w2':>10}  {'excess':>10}")
    for row in rep["rows"]:
        print(f"{row['h']:>8g}  {row['w2']:>10.6f}  "
              f"{row['w2_excess']:>10.6f}")
    fit = fit_loglog([r["h"] for r in rep["rows"]],
                     [r["w2_excess"] for r in rep["rows"]])
    print(f"\nfitted slope: {fit['slope']:.3f}  "
          f"(r^2 = {fit['r_squared']:.5f}, expected ~1)")


if __name__ == "__main__":
    main()
