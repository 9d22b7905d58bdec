#!/usr/bin/env python3
"""Flow matching on transport-plan pairs, and why it likes small references.

Part 1 trains a time-conditioned velocity field on the simplest possible
coupling — every point moves by the same constant shift — and shows that the
learned field is (a) close to that constant everywhere on the bridge and
(b) integrates to the right endpoints along nearly straight paths.

Part 2 runs the full conversion pipeline (entropic plan -> pair sampling ->
velocity field -> ODE integration) on the rotated-clusters task from demo 02,
with a healthy and then with a starved reference (50 frames). The discrete
matcher's outputs collapse onto the few frames it has; the flow averages its
way to a field that barely notices.

Run: python3 demos/03_flow_matching_conversion.py   (about a minute)
"""

import numpy as np

from otconvert.convert import sinkvc_convert
from otconvert.discrete import SinkhornConfig
from otconvert.flow import (FlowConfig, fm_apply, fm_pipeline, fm_train,
                            straight_path_deviation)
from otconvert.rng import make_rng
from otconvert.synth import conversion_clusters

SMALL = FlowConfig(hidden_dims=(64, 64), batch_size=256, iterations=500,
                   learning_rate=1e-3, ode_steps=100, ode_method="euler")


def constant_shift_part() -> None:
    c = np.array([2.0, -1.0, 1.5])
    print(f"[1] constant shift c = {np.round(c, 2)}, |c| = {np.linalg.norm(c):.3f}")

    def sampler(count, rng):
        x = rng.normal(size=(count, 3))
        return x, x + c

    field = fm_train(sampler, SMALL, make_rng(11, "train"))
    ev = make_rng(12)
    x0 = ev.normal(size=(300, 3))
    t = ev.uniform(size=300)
    v = field.velocity(t, x0 + t[:, None] * c)
    v_err = np.linalg.norm(v - c, axis=1).mean()
    end_err = np.linalg.norm(fm_apply(field, x0, SMALL) - (x0 + c), axis=1).mean()
    bend = straight_path_deviation(field, x0[:50], x0[:50] + c, SMALL)
    print(f"    mean velocity error   {v_err:.4f}  ({v_err / np.linalg.norm(c):.1%} of |c|)")
    print(f"    mean endpoint error   {end_err:.4f}")
    print(f"    path bend vs chord    {bend:.4f}  (0 = perfectly straight)")


def conversion_part() -> None:
    sink = SinkhornConfig(epsilon=0.1, max_iterations=10_000, tolerance=1e-6)
    sharp = SinkhornConfig(epsilon=0.005, max_iterations=20_000, tolerance=1e-9)
    print("\n[2] rotated-clusters conversion, healthy vs starved reference")
    print(f"{'reference frames':>17} {'converter':>10} {'frame fidelity':>15}")

    for n_reference in (1500, 50):
        task = conversion_clusters(600, n_reference, 6, make_rng(0))
        directions = np.array(task.truth["directions"])
        shifted = np.array(task.truth["shifted_directions"])
        ideal = (task.source - directions[task.source_labels]
                 + shifted[task.source_labels])
        idn = ideal / np.linalg.norm(ideal, axis=1, keepdims=True)

        def fidelity(outputs):
            on = outputs / np.linalg.norm(outputs, axis=1, keepdims=True)
            return float(np.mean(1.0 - np.sum(on * idn, axis=1) <= 0.12))

        discrete, _ = sinkvc_convert(task.source, task.target, cfg=sharp, k=1)
        _, flowed, _ = fm_pipeline(task.source, task.target, sink, SMALL,
                                   make_rng(0, "train"),
                                   cost_kind="cosine_distance")
        print(f"{n_reference:>17d} {'sinkvc k=1':>10} {fidelity(discrete):>14.1%}")
        print(f"{n_reference:>17d} {'fmvc':>10} {fidelity(flowed):>14.1%}")

    print()
    print("Fidelity = fraction of frames within cosine distance 0.12 of the")
    print("ideal converted frame (same content, rotated cluster). The k=1")
    print("matcher must output one of the 50 literal frames; the flow field,")
    print("trained on plan-sampled pairs, interpolates past the shortage.")


def main() -> None:
    constant_shift_part()
    conversion_part()


if __name__ == "__main__":
    main()
