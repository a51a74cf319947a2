"""Deterministic cleaning pipeline for meme inscriptions.

Fixed stage order: lowercase -> emoji-to-words -> strip handles and
hashtag marks -> tokenize on non-letters -> stem -> vocabulary filter.
Lowercasing first means the emoji lexicon and vocabulary only ever need
lowercase forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .porter import porter_stem

# Pictographic codepoint ranges; anything here without a lexicon entry
# is deleted like other non-letter content.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
    (0x2300, 0x23FF),
    (0x25A0, 0x25FF),
    (0xFE00, 0xFE0F),
    (0x200D, 0x200D),
    (0x1F1E6, 0x1F1FF),
)

_TOKEN = re.compile(r"[a-zA-Z]+")
_LEXICON_VALUE = re.compile(r"[a-z ]+\Z")


def _is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


@dataclass
class PreprocessConfig:
    emoji_lexicon: dict[str, str]
    vocabulary: set[str]

    def __post_init__(self):
        for key, value in self.emoji_lexicon.items():
            if not _LEXICON_VALUE.match(value):
                raise ValueError(f"lexicon value for {key!r} must be lowercase words, got {value!r}")
        if not self.vocabulary:
            raise ValueError("vocabulary must be non-empty")

    @cached_property
    def _filter_set(self) -> frozenset[str]:
        # Porter output is often not a dictionary word ("funni"), so the
        # filter accepts the vocabulary and its stemmed image.
        stemmed = {porter_stem(w) for w in self.vocabulary if _TOKEN.fullmatch(w)}
        return frozenset(self.vocabulary | stemmed)

    @cached_property
    def _kept_stems(self) -> dict[str, str | None]:
        """Memo of word -> its stem, or None when the filter drops it; filled
        by preprocess, so each distinct word is stemmed once per config."""
        return {}

    @cached_property
    def _ascii_keys(self) -> bool:
        """Whether any lexicon key starts with an ASCII character; when none
        does, ASCII text holds nothing demojize could replace or delete."""
        return any(head.isascii() for head in self._lexicon_by_head)

    @cached_property
    def _lexicon_by_head(self) -> dict[str, list[str]]:
        """Lexicon keys grouped by first char, longest first (greedy match)."""
        by_head: dict[str, list[str]] = {}
        for key in self.emoji_lexicon:
            by_head.setdefault(key[0], []).append(key)
        for keys in by_head.values():
            keys.sort(key=len, reverse=True)
        return by_head


@dataclass
class CleanText:
    tokens: list[str]


def demojize(text: str, config: PreprocessConfig) -> str:
    """Replace known emoji with their name words; delete unknown emoji.

    Replacement names are set off by single spaces.  Whitespace is left
    untouched when the input contains no emoji at all.  Lexicon keys are
    matched longest first through the config's cached index.
    """
    if text.isascii() and not config._ascii_keys:
        return text
    lexicon, by_head = config.emoji_lexicon, config._lexicon_by_head
    parts: list[str] = []
    changed = False
    i = 0
    while i < len(text):
        matched = None
        for key in by_head.get(text[i], ()):
            if text.startswith(key, i):
                matched = key
                break
        if matched is not None:
            parts.append(f" {lexicon[matched]} ")
            i += len(matched)
            changed = True
        elif _is_emoji_char(text[i]):
            i += 1
            changed = True
        else:
            parts.append(text[i])
            i += 1
    if not changed:
        return text
    return " ".join("".join(parts).split())


def strip_handles_and_hashtags(text: str) -> str:
    """Drop @-handles entirely; strip the leading '#' off hashtags.

    Only a token-initial '#' is stripped, so inner marks survive.
    Returns the input unchanged when no token carries either mark.
    """
    tokens = text.split()
    if not any(t.startswith(("@", "#")) for t in tokens):
        return text
    kept = []
    for token in tokens:
        if token.startswith("@"):
            continue
        if token.startswith("#"):
            token = token[1:]
            if not token:
                continue
        kept.append(token)
    return " ".join(kept)


def preprocess(raw: str, config: PreprocessConfig) -> CleanText:
    """Run the full pipeline on one raw inscription."""
    text = raw.lower()
    text = demojize(text, config)
    text = strip_handles_and_hashtags(text)
    kept = config._kept_stems
    tokens = []
    for word in _TOKEN.findall(text):
        if word not in kept:
            stem = porter_stem(word)
            kept[word] = stem if stem in config._filter_set else None
        if kept[word] is not None:
            tokens.append(kept[word])
    return CleanText(tokens=tokens)


def load_lexicon(path: str | Path) -> dict[str, str]:
    """Read the two-column (emoji TAB name words) lexicon file."""
    lexicon: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                key, value = line.split("\t", 1)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected two tab-separated columns") from exc
            if not key:
                raise ValueError(f"{path}:{lineno}: empty emoji column")
            lexicon[key] = value
    return lexicon


def load_vocabulary(path: str | Path) -> set[str]:
    """Read the one-word-per-line vocabulary file."""
    with open(path, encoding="utf-8-sig") as fh:
        return {line.strip() for line in fh if line.strip()}
