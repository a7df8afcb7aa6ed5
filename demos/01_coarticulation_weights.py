"""Where do the coarticulation weights put their mass?

A mouth that snaps open between two held poses should dominate the weight
vector: the windowed motion energy peaks at the jump, the softmax sharpens
it, and the held frames share what is left.
"""

import numpy as np

from visemekit import MeshSequence, coarticulation_weights

# one vertex, 12 frames: closed for 5 frames, open for the rest
frames = np.zeros((12, 1, 3))
frames[5:, 0, 0] = 1.0
track = MeshSequence(frames, fps=30.0)

weights = coarticulation_weights(track, sigma=2)
print("frame  raw_energy  weight")
for i in range(track.num_frames):
    marker = "  <-- the jump" if i == 5 else ""
    print(f"{i + 1:5d}  {weights.raw_energy[i]:10.4f}  {weights.weights[i]:.4f}{marker}")
print(f"sum of weights: {weights.weights.sum():.12f}")

# a wider window spreads the energy
for sigma in (1, 2, 4):
    w = coarticulation_weights(track, sigma)
    print(f"sigma={sigma}: peak weight {w.weights.max():.4f} at frame {w.weights.argmax() + 1}")

# the softmax takes the energies unscaled; they are squared step lengths, so
# scaling the coordinates by c scales them by c^2 and sharpens the peak
for scale in (0.5, 1.0, 2.0):
    w = coarticulation_weights(MeshSequence(frames * scale, fps=30.0), 2)
    print(f"coordinates x{scale}: peak weight {w.weights.max():.4f}")
