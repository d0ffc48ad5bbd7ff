"""Multistep sampling: geometric contraction to an error plateau.

Each multistep round re-noises the previous output to a fixed
intermediate time chosen from the estimated Lipschitz constant of the
map, then applies the consistency map again.  With an imperfect map the
per-round error contracts geometrically until it hits a plateau set by
the injected consistency error; the plateau should be no worse than the
plain one-step error.

Usage: python3 demos/multistep_plateau.py [seed]
"""

import sys

from cmlab.harness import multistep_contraction


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    # the defaults are criterion 4's pinned run
    rep = multistep_contraction(seed=seed)
    print(f"estimated Lipschitz constant: {rep['lipschitz_hat']:.4f}")
    print(f"re-noising time t-hat: {rep['t_hat']:.4f}")
    print(f"\n{'round':>6}  {'w2':>10}  {'ratio':>8}")
    for row in rep["rows"]:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['k']:>6}  {row['w2']:>10.6f}  {ratio:>8}")
    print(f"\nplateau detected at round {rep['plateau_k']} "
          f"(ratio > {rep['ratio_cut']})")
    print(f"plateau error {rep['plateau_w2']:.6f} vs one-step "
          f"{rep['one_step_w2']:.6f}")


if __name__ == "__main__":
    main()
