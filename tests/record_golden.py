"""Print the golden digest tables of tests/test_pipeline.py from the current code.

    PYTHONPATH=src python tests/record_golden.py

prints the OpenBLAS kernel family numpy runs on, then ``_GOLDEN_FEATURES``
and ``_GOLDEN_TRAINING_SETS`` as Python source.  sgemm rounds differently
per kernel family, so the digests hold for the printed kernel only; to
record another family on the same host, set ``OPENBLAS_CORETYPE`` (for
example ``Haswell``) for this process.  Like every memefuse command, it
computes on one OpenBLAS thread.  pytest does not collect this file.
"""

import hashlib
import os

# OpenBLAS reads the count only while numpy loads, so before any import loads it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from memefuse import VARIANTS
from memefuse.pipeline import build_feature_space, build_training_set, encoded_blocks
# a script's own directory leads sys.path, so the test modules import as they are
from openblas import kernel_name
from test_pipeline import _golden_corpus, _golden_labels, _stacked, _training_set_digest


def main() -> None:
    ids, toks = _golden_corpus()
    labels = _golden_labels()
    features, training_sets = {}, {}
    for kind in sorted(VARIANTS):
        space = build_feature_space(kind, 0)
        feats = _stacked(ids, encoded_blocks(ids, toks, space, kind))
        features[kind] = (feats.shape, hashlib.sha256(feats.tobytes()).hexdigest())
        ts = build_training_set(*encoded_blocks(ids, toks, space, kind), labels, k=5, seed=0)
        training_sets[kind] = (ts.features.shape[0], _training_set_digest(ts))
    print(f"# OpenBLAS kernel: {kernel_name()}")
    for name, table in (("_GOLDEN_FEATURES", features), ("_GOLDEN_TRAINING_SETS", training_sets)):
        print(f"{name} = {{")
        for kind, (size, digest) in table.items():
            print(f'    "{kind}": ({size}, "{digest}"),')
        print("}")


if __name__ == "__main__":
    main()
