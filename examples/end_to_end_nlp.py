"""End-to-end NLP pipeline: corpus → BPE → ConcatBatching → beam search.

Chains every substrate layer on real text:

1. synthesise a corpus and train a BPE tokenizer on it,
2. derive a request workload whose lengths come from the tokenised
   sentences (the ParaCrawl/GLUE stand-in mechanism),
3. pack a batch with ConcatBatching and show it (ASCII, Fig. 1c style),
4. decode every request three ways — greedy (KV-cached), the
   full-recompute baseline and beam-4 — verifying the first two agree
   exactly and that beam scores dominate.

Run:  python examples/end_to_end_nlp.py
"""

import numpy as np

from repro.config import ModelConfig
from repro.core.packing import pack_first_fit
from repro.core.render import render_layout, render_positions
from repro.experiments.ablations import recompute_decode
from repro.model.beam import beam_decode
from repro.model.seq2seq import Seq2SeqModel
from repro.workload.corpus import CorpusWorkload, synthetic_corpus


def main() -> None:
    # 1. Corpus + tokenizer.
    corpus = synthetic_corpus(200, seed=11, max_words=10)
    workload = CorpusWorkload(
        corpus, rate=60.0, horizon=1.0, seed=3, num_merges=80
    )
    stats = workload.length_stats()
    print(
        f"trained BPE: vocab {workload.tokenizer.vocab_size}, "
        f"{len(workload.tokenizer.merges)} merges; corpus token lengths "
        f"mean {stats['mean']:.1f} (min {stats['min']:.0f}, max {stats['max']:.0f})"
    )

    # 2. Requests with real token ids, remapped into the model's vocab.
    cfg = ModelConfig.tiny(vocab_size=max(64, workload.tokenizer.vocab_size))
    model = Seq2SeqModel(cfg, seed=8)
    requests = [r for r in workload.generate() if r.length <= 20][:6]
    print(f"\nserving {len(requests)} tokenised requests, lengths "
          f"{[r.length for r in requests]}")

    # 3. One concatenated batch.
    layout = pack_first_fit(requests, num_rows=2, row_length=40).layout
    print("\nbatch layout (each letter = one request, '.' = padding):")
    print(render_layout(layout))
    print("separate positional encoding (restarts per request):")
    print(render_positions(layout))

    # 4. Three decoders over the same batch.
    greedy = model.greedy_decode(layout, max_new_tokens=6)
    recomputed = recompute_decode(model, layout, max_new_tokens=6)
    assert greedy == recomputed, "KV cache must be exact"
    beams = beam_decode(model, layout, max_new_tokens=6, beam_width=4)

    print("\nper-request decodes (greedy == recompute; beam-4 score ≥ greedy):")
    for r in requests:
        g = greedy.outputs[r.request_id]
        b = beams.outputs[r.request_id]
        marker = "=" if g == b else "≠"
        print(
            f"  req {r.request_id}: greedy {g} {marker} beam {b} "
            f"(beam score {beams.scores[r.request_id]:.2f})"
        )


if __name__ == "__main__":
    main()
