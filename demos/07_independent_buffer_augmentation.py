"""
Independent re-augmentation of replay draws
===========================================

When the training stream is augmented, a rehearsal buffer has two options:
store the augmented tensors and replay them as-is, or store the raw items
and apply a fresh random transform every time one is drawn. The second
option rehearses on a slightly different version of the item each time,
which combats overfitting to a small buffer.

The demo stores one raw image in a buffer, draws it repeatedly under a
small random-shift policy, and shows that (a) the drawn copies almost never
repeat and (b) the stored item itself never changes.
"""

import numpy as np

from replay_lab.augmentation import AugPolicy, replay_with_iba
from replay_lab.sampling import ReplayBuffer

rng = np.random.default_rng(0)
image = rng.uniform(size=28 * 28)

buf = ReplayBuffer(1, "reservoir", class_count=10)
buf.update(image[None], labels=[3], losses=[0.0], rng=rng)  # the buffer keeps a copy of the row
policy = AugPolicy(image_dims=(28, 28, 1), max_shift=2, hflip_prob=0.0)

seen = set()
draws = 500
for _ in range(draws):
    _, feats, _ = replay_with_iba(buf, 1, policy, rng, rng)
    seen.add(feats[0].tobytes())

print(f"{draws} draws of the single stored item produced {len(seen)} distinct "
      f"augmented versions (25 shifts are possible at max_shift=2)")
print("stored item unchanged after all draws:",
      np.array_equal(buf.features[0], image))

# with zero shift and no flip the draw is the raw item, bit for bit
raw_policy = AugPolicy(image_dims=(28, 28, 1))
_, feats, _ = replay_with_iba(buf, 1, raw_policy, rng, rng)
print("zero shift, no flip returns the raw item:", np.array_equal(feats[0], image))
