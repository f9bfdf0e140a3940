# Train each learner kind on its own and compare the greedy policies it
# produces against the exhaustive enumeration oracle. Everything here is
# offline: we sweep the full transition table instead of sampling.

import numpy as np

from paretoq import (
    QTableEnvelope,
    QTableEsr,
    QTableScalar,
    QTableVector,
    ReferencePoint,
    Scalarization,
    dst_corridor,
    enumerate_deterministic_policies,
    evaluate_policy,
    generate_weights_uniform,
    greedy_policy,
    rollout,
    update_envelope_q,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from paretoq.momdp import Experience

env = dst_corridor()
ws = Scalarization("weighted-sum")
optima = [v for _, v in enumerate_deterministic_policies(env, 1.0)]


def transition_sweep():
    out = []
    for s in range(env.n_states):
        for a in range(env.n_actions):
            _, ns, r, term = env.outcomes(s, a)[0]
            out.append(Experience(s, a, r, ns, term, np.zeros(2)))
    return out


SWEEP = transition_sweep()

# Scalarized and vector Q-learning, one weight at a time. With a full sweep
# and learning rate 1 on a deterministic environment they hit the exact
# optimum for their weight.
print("scalarized and vector learners:")
for lam in generate_weights_uniform(2, 5):
    scalar = QTableScalar(env.n_actions, alpha=1.0, gamma=1.0)
    vector = QTableVector(env.n_actions, 2, alpha=1.0, gamma=1.0)
    for _ in range(10):
        update_scalarized_q(scalar, SWEEP, ws, lam)
        update_vector_q(vector, SWEEP, lam)
    v_scalar = evaluate_policy(env, greedy_policy(scalar), 1, 1.0, 0)
    v_vector = evaluate_policy(env, greedy_policy(vector, lam), 1, 1.0, 0)
    best = max(float(lam @ v) for v in optima)
    print(f"  lam {tuple(map(float, lam))}: scalar {v_scalar} vector {v_vector} "
          f"(optimum {best:.2f})")

# The envelope learner trains all weights inside one table; its bootstrap
# peeks across the whole weight set.
lattice = generate_weights_uniform(2, 3)
envelope = QTableEnvelope(env.n_actions, 2, lattice, alpha=1.0, gamma=1.0)
for _ in range(10):
    for e in SWEEP:
        for lam in lattice:
            update_envelope_q(envelope, e, lam)
print("\nenvelope learner:")
for lam in lattice:
    value = evaluate_policy(env, greedy_policy(envelope, lam), 1, 1.0, 0)
    print(f"  lam {tuple(map(float, lam))}: greedy value {value}")

# The accrued-reward Monte-Carlo learner scalarizes whole episodic returns,
# so with a Tchebycheff objective it can prefer a concave front point that
# no weighted sum would pick.
z = ReferencePoint(values=(10.5, -0.5), mode="fixed")
tch = Scalarization("tchebycheff", z)
lam = np.array([0.2, 0.8])
esr = QTableEsr(env.n_actions, 2, alpha=0.2, gamma=1.0)
explore = np.random.default_rng(5)
for episode in range(4000):
    epsilon = max(0.05, 1.0 - episode / 2000)
    trace, _ = rollout(env, greedy_policy(esr), explore, lambda t: epsilon)
    update_esr_mc(esr, trace, tch, lam)
_, final = rollout(env, greedy_policy(esr), 0)
print(f"\naccrued-reward learner, lam {tuple(map(float, lam))}: greedy return {final} "
      "(a concave front point)")
