"""Error-injection scaling of the one-step sampler.

Injects a controlled perturbation either into the score model ("sc") or
directly into the consistency map ("cm"), re-measures the achieved error
level, and plots (numerically) the excess output error against it.  The
excess is the Wasserstein-2 distance between the perturbed and
unperturbed output laws under common random numbers, so the shared
Monte-Carlo and discretization floors cancel exactly.  Both injections
should show slope ~1: the sampler's error budget is additive and first
order in each error source.

Usage: python3 demos/error_injection.py [seed]
"""

import sys

from cmlab.harness import eps_sweep_one_step, fit_loglog


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    # the defaults are the pinned runs of criteria 2 and 3
    for inject in ("sc", "cm"):
        rep = eps_sweep_one_step(inject=inject, seed=seed)
        label = "score" if inject == "sc" else "consistency"
        print(f"\n{label} error injection "
              f"(baseline w2 = {rep['baseline_w2']:.5f})")
        print(f"{'target':>8}  {'measured':>10}  {'excess':>10}")
        for row in rep["rows"]:
            print(f"{row['eps_target']:>8g}  {row['eps_hat']:>10.6f}  "
                  f"{row['w2_excess']:>10.6f}")
        fit = fit_loglog([r["eps_hat"] for r in rep["rows"]],
                         [r["w2_excess"] for r in rep["rows"]])
        print(f"fitted slope: {fit['slope']:.3f}  "
              f"(r^2 = {fit['r_squared']:.5f}, expected ~1)")


if __name__ == "__main__":
    main()
