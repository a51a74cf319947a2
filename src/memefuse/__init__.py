"""Multimodal meme sentiment classification.

Three pipeline variants over meme image/text pairs:

* ``imgtxt`` -- image patch sequence fused with the token sequence
* ``imgsen`` -- image patch sequence fused with a sentence embedding
* ``capsen`` -- generated-caption embedding fused with the text embedding

Fused sequences feed a bidirectional-LSTM classifier with four task
heads (humor, sarcasm, motivation, sentiment).  Everything runs at a
small, fully testable scale with from-scratch numpy encoders; real
pretrained embeddings enter through the exchange-file interface.
"""

__version__ = "0.1.0"

TASKS = ("humor", "sarcasm", "motivation", "sentiment")

TASK_CLASSES = {
    "humor": ("funny", "not_funny"),
    "sarcasm": ("sarcastic", "not_sarcastic"),
    "motivation": ("motivational", "not_motivational"),
    "sentiment": ("positive", "neutral", "negative"),
}

VARIANTS = ("imgtxt", "imgsen", "capsen")


class NumericError(RuntimeError):
    """Raised when training math or prediction input holds non-finite values.

    Defined here, not in ``model``, so the command line can catch it
    without importing numpy; ``model`` re-exports it.
    """


def bundled_data(name: str):
    """Absolute path of a data file shipped inside the package."""
    from pathlib import Path

    return Path(__file__).parent / "data" / name
