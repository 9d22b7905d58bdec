#!/usr/bin/env python3
"""Neural transport maps: the maximin game, conditions, and the weight knob.

Part 1 trains the map/potential pair on a plain Gaussian-shift problem and
checks the map against the known answer (x + shift) on held-out points.

Part 2 trains ONE conditional map on two opposite shifts at once; the
condition vector passed at apply time selects which shift the map performs.

Part 3 is the extremal variant. The target is 70% a near cluster and 30% a
far outlier arm, and the maximin game at w=1 is a lottery: depending on the
seed it can settle the whole map onto the outlier arm (this seed does, at
tens of times the quadratic cost). Raising the weight to w=12 strengthens
the pull toward the source and reliably parks the map in the near cluster —
at *lower* cost, not higher.

Run: python3 demos/04_neural_ot_maps.py   (about a minute)
"""

import numpy as np

from otconvert.neural import (NotConfig, apply_map, dataset_from_arrays,
                              not_train)
from otconvert.rng import make_rng
from otconvert.synth import clusters_outlier, gauss_shift, two_conditions

FAST = dict(hidden_dims=(64, 64), batch_size=128, lr_decay="cosine",
            checkpoint_every=10_000)


def shift_part() -> None:
    task = gauss_shift(1500, 2, make_rng(1))
    shift = np.array(task.truth["shift"])
    ds = dataset_from_arrays([("only", [1.0], task.source, task.target)])
    pair, _ = not_train(ds, NotConfig(total_outer_iterations=800, **FAST),
                        make_rng(1, "train"))
    held = make_rng(101).normal(size=(400, 2))
    err = np.linalg.norm(apply_map(pair, held, np.array([1.0]))
                         - (held + shift), axis=1).mean()
    print(f"[1] Gaussian shift |m| = {np.linalg.norm(shift):.2f}: "
          f"held-out map error {err:.3f}")


def conditional_part() -> None:
    task = two_conditions(1500, 2, make_rng(7))
    pair, _ = not_train(dataset_from_arrays(task.entries),
                        NotConfig(total_outer_iterations=2000,
                                  batch_size=256, hidden_dims=(64, 64),
                                  lr_decay="cosine", checkpoint_every=10_000),
                        make_rng(7, "train"))
    held = make_rng(107).normal(size=(400, 2))
    print("[2] one map, two conditions:")
    for label, vector, _, _ in task.entries:
        shift = np.array(task.truth["shifts"][label])
        err = np.linalg.norm(apply_map(pair, held, np.asarray(vector))
                             - (held + shift), axis=1).mean()
        print(f"    condition {label!r:>8} -> shift {np.round(shift, 1)}, "
              f"error {err:.3f} ({err / np.linalg.norm(shift):.1%})")


def extremal_part() -> None:
    print("[3] extremal maps on a 70/30 near-cluster / outlier-arm target:")
    task = clusters_outlier(1000, 2, make_rng(3))
    ds = dataset_from_arrays([("only", [1.0], task.source, task.target)])
    held = 0.3 * make_rng(2003).normal(size=(400, 2))
    near = np.array(task.truth["near_center"])
    far = np.array(task.truth["outlier_center"])
    for w in (1.0, 12.0):
        cfg = NotConfig(hidden_dims=(64, 64), batch_size=128, extremal=True,
                        w=w, total_outer_iterations=2000,
                        checkpoint_every=10_000)
        pair, _ = not_train(ds, cfg, make_rng(3, "train"))
        mapped = apply_map(pair, held, np.array([1.0]))
        frac_near = float(np.mean(
            np.linalg.norm(mapped - near, axis=1)
            < np.linalg.norm(mapped - far, axis=1)))
        cost = float(np.mean(0.5 * np.sum((held - mapped) ** 2, axis=1)))
        print(f"    w = {w:>4.0f}: {frac_near:.1%} of points land near, "
              f"mean quadratic cost {cost:.3f}")


def main() -> None:
    shift_part()
    conditional_part()
    extremal_part()


if __name__ == "__main__":
    main()
