# Walk through the two built-in environments: roll out fixed policies,
# enumerate every deterministic policy exactly, and look at the geometry
# of the treasure corridor's front.

import numpy as np

from paretoq import (
    TabularPolicy,
    dst_corridor,
    enumerate_deterministic_policies,
    rollout,
    tiny_tree,
)


def dominates(a, b):
    """Whether ``a`` is at least as good as ``b`` everywhere and better somewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(a >= b) and np.any(a > b))


def mixture_value(values, probabilities):
    """The value of playing policy ``i`` for a whole episode with probability ``p_i``."""
    return sum(p * np.asarray(v, dtype=float) for p, v in zip(probabilities, values))


env = dst_corridor()
print(f"{env.name}: {env.n_states} states, {env.n_actions} actions, "
      f"{env.n_objectives} objectives")

# Action 0 advances along the corridor, action 1 dives for the treasure.
# A policy is just a preference table; argmax with low-index ties picks
# the action.
for column in range(5):
    prefs = {s: np.array([0.0, 1.0]) if s == column else np.array([1.0, 0.0])
             for s in range(env.n_states)}
    trace, ret = rollout(env, TabularPolicy(preferences=prefs), rng_seed=0)
    print(f"  dive at column {column}: {len(trace)} steps, return {ret}")

# The exhaustive oracle evaluates every deterministic policy by exact
# dynamic programming. On the corridor the distinct returns are exactly
# the five treasure points.
values = {tuple(map(float, v)) for _, v in enumerate_deterministic_policies(env, gamma=1.0)}
print("\nall deterministic returns:", sorted(values))

front = sorted(values)
print("\nevery return is Pareto optimal:",
      all(not any(dominates(np.array(b), a) for b in front) for a in front))

# Only the two extremes lie on the convex hull: every interior point is
# dominated by some episode-level coin flip between them.
extremes = [np.array([1.0, -1.0]), np.array([10.0, -5.0])]
for point in [(2.0, -2.0), (3.0, -3.0), (5.0, -4.0)]:
    p = next(p for p in np.arange(0, 1.001, 0.001)
             if dominates(mixture_value(extremes, [p, 1 - p]), point))
    mix = mixture_value(extremes, [p, 1 - p])
    print(f"  mixture p={p:.3f} of the extremes gives {mix}, dominating {point}")

# The tiny tree is even smaller: four leaves, four policies, four returns.
tree = tiny_tree()
print(f"\n{tree.name}:",
      sorted({tuple(map(float, v)) for _, v in enumerate_deterministic_policies(tree, 1.0)}))
