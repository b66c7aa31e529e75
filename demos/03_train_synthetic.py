"""Train the enrichment head against the first-token baseline on a planted
phrase-cue task.

Each example hides a class-specific token n-gram inside filler text, with a
fifth of the background drawn from the full vocabulary so stray cue tokens
appear. The convolution branches can match the cue n-grams directly, which
is the architecture's whole point.
"""

from inceptive.data import SyntheticSpec, encode_batch, generate_synthetic, split_records
from inceptive.encoder import EncoderConfig
from inceptive.head import ModelConfig
from inceptive.model import SequenceClassifier
from inceptive.tensor import Rng
from inceptive.training import TrainConfig, run_training

spec = SyntheticSpec(task="phrase-cue-multiclass", n_examples=600, seq_len=24,
                     vocab_size=32, n_classes=4, noise_rate=0.2, seed=7)
data = generate_synthetic(spec)
print(f"cue phrases: {[' '.join(c) for c in data.cue_phrases]}")

train, val, test = split_records(data.records)
splits = [encode_batch(part, data.vocab, spec.seq_len, spec.n_classes, False)
          for part in (train, val, test)]

enc_cfg = EncoderConfig(vocab_size=max(data.vocab.values()) + 1, d=16, n_layers=2,
                        n_heads=2, ffn_size=32, max_len=spec.seq_len)
model_cfg = ModelConfig(d=16, c=8, n_heads=2, dense_dim=8, n_classes=4, dropout_rate=0.1)
train_cfg = TrainConfig(seq_len=spec.seq_len, batch_size=32, epochs=8, lr=2e-3,
                        weight_decay=1e-3)

for kind in ("inceptive", "baseline"):
    rng = Rng(123)
    model = SequenceClassifier(enc_cfg, model_cfg, kind, rng.child("init"))
    report, _ = run_training(model, splits[0], splits[1], splits[2], train_cfg,
                             rng.child("train"), {"model": kind})
    curve = " ".join(f"{e['val']['accuracy']:.2f}" for e in report.epochs)
    print(f"\n{kind}")
    print(f"  val accuracy by epoch: {curve}")
    print(f"  best epoch {report.best_epoch}, test accuracy {report.test['accuracy']:.3f}, "
          f"test F1 (micro) {report.test['f1_micro']:.3f}")
