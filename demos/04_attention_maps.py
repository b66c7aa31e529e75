"""Export received-attention profiles from a trained model.

The head's map averages, per key position, the attention mass arriving
from every query and head; the baseline export is the final encoder
block's first-token query row. Writes one CSV per example plus a PGM
heatmap, and prints where the trained head concentrates relative to the
planted cue positions.
"""

import os

from inceptive.data import SyntheticSpec, encode_batch, generate_synthetic, split_records
from inceptive.encoder import EncoderConfig
from inceptive.head import ModelConfig, received_entropy, write_attention_csv, write_attention_pgm
from inceptive.model import SequenceClassifier
from inceptive.tensor import Rng
from inceptive.training import TrainConfig, run_training

out_dir = "attention_maps"
os.makedirs(out_dir, exist_ok=True)

spec = SyntheticSpec(task="phrase-cue-multiclass", n_examples=600, seq_len=24,
                     vocab_size=32, n_classes=4, noise_rate=0.1, seed=21)
data = generate_synthetic(spec)
train, val, test = split_records(data.records)
splits = [encode_batch(part, data.vocab, spec.seq_len, spec.n_classes, False)
          for part in (train, val, test)]

enc_cfg = EncoderConfig(vocab_size=max(data.vocab.values()) + 1, d=16, n_layers=2,
                        n_heads=2, ffn_size=32, max_len=spec.seq_len)
model_cfg = ModelConfig(d=16, c=8, n_heads=2, dense_dim=8, n_classes=4, dropout_rate=0.1)
train_cfg = TrainConfig(seq_len=spec.seq_len, batch_size=32, epochs=8, lr=2e-3)

rng = Rng(5)
model = SequenceClassifier(enc_cfg, model_cfg, "inceptive", rng.child("init"))
run_training(model, splits[0], splits[1], splits[2], train_cfg, rng.child("train"))

model.set_mode(False)
n_show = 8
mp = model.forward(splits[2][0][:n_show])
received = model.attention_export(mp)

for i in range(n_show):
    write_attention_csv(os.path.join(out_dir, f"example_{i:03d}.csv"), received[i])
write_attention_pgm(os.path.join(out_dir, "heatmap.pgm"), received)
print(f"wrote {n_show} CSVs and heatmap.pgm to {out_dir}/")

# cue positions are known for synthetic data, so report where the mass went;
# test examples start at index 1800 of the generator's bookkeeping
test_offset = len(train) + len(val)
print(f"\nuniform level would be {1 / spec.seq_len:.4f}")
print(f"{'example':>7s} {'entropy':>8s} {'mass on cue':>12s} {'cue span':>10s}")
for i in range(n_show):
    log = data.cues[test_offset + i]
    lo = log["position"] + 1  # +1 for the aggregation slot prepended at encoding
    hi = lo + log["length"]
    cue_mass = received[i, lo:hi].sum()
    uniform_mass = (hi - lo) / spec.seq_len
    marker = "*" if cue_mass > uniform_mass else " "
    print(f"{i:7d} {received_entropy(received[i:i+1])[0]:8.3f} "
          f"{cue_mass:11.3f}{marker} [{lo},{hi})")
print("\n(* marks examples whose cue span receives more than its uniform share)")
