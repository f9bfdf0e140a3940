# The external archive keeps every non-dominated evaluation seen during a
# run. This script feeds it a stream of candidates, shows the pruning rules
# at work, and scores the surviving front with all four quality indicators.

import numpy as np

from paretoq import (
    ParetoArchive,
    crowding_distance,
    expected_utility,
    generate_weights_uniform,
    hypervolume,
    hypervolume_monte_carlo,
    igd,
    sparsity,
)

archive = ParetoArchive()
stream = [(1.0, -1.0), (0.5, -2.0), (2.0, -2.0), (1.0, -1.0),
          (10.0, -5.0), (3.0, -3.0), (5.0, -4.0), (2.0, -3.0)]
for step, candidate in enumerate(stream):
    accepted = archive.insert(candidate, payload=b"", subproblem=0, step=step)
    verdict = "accepted" if accepted else "rejected"
    print(f"insert {candidate}: {verdict:8s} archive size {len(archive)}")

front = archive.evals()
print("\nfinal archive front:", sorted(tuple(map(float, v)) for v in front))

# Crowding distance measures how isolated each point is; boundary points are
# infinitely uncrowded, so diverse-crowding buffers evict interior episodes first.
print("crowding distances:", crowding_distance(front))

# Hypervolume: exact sweep for two objectives, cross-checked by the
# Monte-Carlo estimator.
z_ref = (0.0, -50.0)
exact = hypervolume(front, z_ref)
estimate, stderr = hypervolume_monte_carlo(front, z_ref, samples=200_000,
                                           rng=np.random.default_rng(0))
print(f"\nhypervolume: exact {exact:.1f}, Monte-Carlo {estimate:.1f} "
      f"(standard error {stderr:.2f})")

# Convergence and diversity indicators against the known best front.
reference = [(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (5.0, -4.0), (10.0, -5.0)]
print(f"igd vs the true front: {igd(front, reference):.4f}")
print(f"sparsity: {sparsity(front):.2f}")
print(f"expected utility over 101 weights: "
      f"{expected_utility(front, generate_weights_uniform(2, 101)):.4f}")
