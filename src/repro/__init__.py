"""repro — reproduction of CDRIB (Cao et al., ICDE 2022).

Cross-Domain Recommendation to Cold-Start Users via Variational Information
Bottleneck, reimplemented from scratch on a numpy autograd substrate.

Public entry points:

* :mod:`repro.core` — the CDRIB model, the VBGE encoder and the trainer.
* :mod:`repro.baselines` — the thirteen comparison methods of the paper.
* :mod:`repro.data` — synthetic cross-domain data, preprocessing, splits.
* :mod:`repro.eval` — leave-one-out protocol, MRR/NDCG/HR, significance.
* :mod:`repro.experiments` — one runner per paper table / figure.
* :mod:`repro.serve` — batched cold-start serving (item index, per-checkpoint
  user-latent table, request batching).
* :mod:`repro.io` — versioned checkpoints (npz payload + JSON manifest) for
  the train→publish→serve pipeline.
"""

from . import autograd, baselines, core, data, eval, experiments, graph, io, nn, optim, serve

__version__ = "1.2.0"

__all__ = [
    "autograd",
    "nn",
    "optim",
    "graph",
    "data",
    "core",
    "baselines",
    "eval",
    "experiments",
    "serve",
    "io",
    "__version__",
]
