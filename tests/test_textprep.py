"""Cleaning pipeline: stage behavior plus a frozen 20-case golden corpus.

Golden expectations were derived by hand, stage by stage: lowercase,
emoji replacement, handle/hashtag stripping, letter-run tokenization,
suffix stripping, then the vocabulary filter (which accepts a token when
it equals a vocabulary word or the stem of one).
"""

from collections import Counter

import pytest

from memefuse import bundled_data, textprep
from memefuse.textprep import (CleanText, PreprocessConfig, demojize,
                               load_lexicon, load_vocabulary, preprocess,
                               strip_handles_and_hashtags)
from memefuse.porter import porter_stem

LEXICON = {
    "\U0001F602": "face with tears of joy",
    "\U0001F525": "fire",
    "\U0001F4AF": "hundred points",
    "❤": "red heart",
}

VOCAB = {
    "wow", "win", "face", "with", "tears", "of", "joy", "fire", "hundred",
    "points", "red", "heart", "funny", "meme", "cat", "cats", "dog",
    "monday", "morning", "feel", "like", "when", "you", "see", "it",
    "love", "this", "is", "very", "nice", "best", "friend", "running",
    "man", "hello", "world", "happy", "day", "team", "work", "makes",
    "the", "dream",
}

# (raw input, expected token list); every expectation hand-walked through
# all six stages against LEXICON/VOCAB above
GOLDEN = [
    ("WOW \U0001F602 @bob #winning",
     ["wow", "face", "with", "tear", "of", "joi", "win"]),
    ("", []),
    ("HELLO", ["hello"]),
    ("This is VERY funny \U0001F602\U0001F602",
     ["thi", "is", "veri", "funni", "face", "with", "tear", "of", "joi",
      "face", "with", "tear", "of", "joi"]),
    ("@user1 @user2 nice #meme", ["nice", "meme"]),
    ("no marks here", []),
    ("Cats CATS cats", ["cat", "cat", "cat"]),
    ("\U0001F525\U0001F525\U0001F4AF", ["fire", "fire", "hundr", "point"]),
    ("I ❤ mondays", ["red", "heart", "mondai"]),
    ("When you see it... \U0001F440", ["when", "you", "see", "it"]),
    ("#MondayMorning feels", ["feel"]),
    ("running RUNNING Running", ["run", "run", "run"]),
    ("best friend's dog!!!", ["best", "friend", "dog"]),
    ("TEAM work makes the DREAM work",
     ["team", "work", "make", "the", "dream", "work"]),
    ("@ALLCAPS #HashTag mixed", []),
    ("wow wow WOW", ["wow", "wow", "wow"]),
    ("a2b3c", []),
    ("\U0001F602", ["face", "with", "tear", "of", "joi"]),
    ("#cats @cats cats", ["cat", "cat"]),
    ("MONDAY morning I feel like a dog \U0001F525",
     ["mondai", "morn", "feel", "like", "dog", "fire"]),
]


@pytest.fixture(scope="module")
def config():
    return PreprocessConfig(emoji_lexicon=dict(LEXICON), vocabulary=set(VOCAB))


class TestGoldenCorpus:
    @pytest.mark.parametrize("raw,expected", GOLDEN,
                             ids=[f"case{i:02d}" for i in range(len(GOLDEN))])
    def test_expected_tokens(self, config, raw, expected):
        assert preprocess(raw, config).tokens == expected

    @pytest.mark.parametrize("raw,expected", GOLDEN,
                             ids=[f"case{i:02d}" for i in range(len(GOLDEN))])
    def test_idempotent_on_own_output(self, config, raw, expected):
        again = preprocess(" ".join(expected), config)
        assert again.tokens == expected

    def test_original_preserved(self, config):
        raw = GOLDEN[0][0]
        out = preprocess(raw, config)
        assert isinstance(out, CleanText)

    def test_output_alphabet(self, config):
        for raw, _ in GOLDEN:
            for token in preprocess(raw, config).tokens:
                assert token and all("a" <= c <= "z" for c in token)


CONFIG = PreprocessConfig(emoji_lexicon=LEXICON, vocabulary=VOCAB)


class TestDemojize:
    def test_single_known_emoji(self):
        assert demojize("ok \U0001F602", CONFIG) == "ok face with tears of joy"

    def test_identity_without_emoji(self):
        assert demojize("plain text", CONFIG) == "plain text"

    def test_each_occurrence_replaced(self):
        assert demojize("\U0001F602\U0001F602", CONFIG) == \
            "face with tears of joy face with tears of joy"

    def test_unknown_emoji_deleted(self):
        assert demojize("a\U0001F63Ab", CONFIG) == "ab"


class TestFastPathAndMemo:
    """demojize's ASCII fast path and the config's word -> kept-stem memo."""

    def test_ascii_lexicon_key_still_replaced(self):
        config = PreprocessConfig(emoji_lexicon={":)": "smile"}, vocabulary={"smile"})
        assert demojize("so :) ok", config) == "so smile ok"
        assert preprocess("So :) ok", config).tokens == ["smile"]

    def test_non_ascii_text_without_emoji(self):
        config = PreprocessConfig(emoji_lexicon=dict(LEXICON), vocabulary={"caf", "latte"})
        assert demojize("café latte", config) == "café latte"
        # é is not a letter of the tokenizer, so it splits the word
        assert preprocess("Café latte", config).tokens == ["caf", "latt"]
        assert preprocess("naïve café \U0001F602", config).tokens == ["caf"]

    def test_configs_do_not_share_memo_entries(self):
        cats = PreprocessConfig(emoji_lexicon={}, vocabulary={"cat"})
        dogs = PreprocessConfig(emoji_lexicon={}, vocabulary={"dog"})
        assert preprocess("cats dogs", cats).tokens == ["cat"]
        assert preprocess("cats dogs", dogs).tokens == ["dog"]
        assert preprocess("cats dogs", cats).tokens == ["cat"]
        # each memo is seeded with its own vocabulary's stems
        assert cats._kept_stems == {"cat": "cat", "cats": "cat", "dogs": None}
        assert dogs._kept_stems == {"dog": "dog", "cats": None, "dogs": "dog"}

    def test_vocabulary_words_are_stemmed_once(self, monkeypatch):
        # building the filter stems every vocabulary word and seeds the memo
        # with it, so preprocessing them stems nothing again
        calls = Counter()

        def counted(word):
            calls[word] += 1
            return porter_stem(word)

        monkeypatch.setattr(textprep, "porter_stem", counted)
        config = PreprocessConfig(emoji_lexicon={}, vocabulary=set(VOCAB))
        texts = [" ".join(sorted(VOCAB)), "Cats running with the dream team", "funny cat " * 3]
        for text in texts:
            preprocess(text, config)
        assert calls and set(calls.values()) == {1}
        assert set(calls) == VOCAB

    @pytest.mark.parametrize("raw,expected", GOLDEN)
    def test_repeat_call_returns_equal_tokens(self, raw, expected):
        config = PreprocessConfig(emoji_lexicon=dict(LEXICON), vocabulary=set(VOCAB))
        first = preprocess(raw, config).tokens
        first.append("mutated")
        assert preprocess(raw, config).tokens == expected


class TestStripMarks:
    def test_handles_removed_hashtags_kept(self):
        assert strip_handles_and_hashtags("@user nice #meme") == "nice meme"

    def test_identity(self):
        assert strip_handles_and_hashtags("no marks here") == "no marks here"

    def test_only_token_initial_hash_stripped(self):
        assert strip_handles_and_hashtags("#a#b") == "a#b"

    def test_bare_marks_vanish(self):
        assert strip_handles_and_hashtags("# @ x") == "x"


class TestStemOp:
    def test_porter_mode(self):
        assert porter_stem("running") == "run"
        assert porter_stem("cat") == "cat"

    def test_uppercase_rejected(self):
        with pytest.raises(ValueError):
            porter_stem("Running")


class TestConfig:
    def test_lexicon_values_must_be_lowercase_words(self):
        with pytest.raises(ValueError):
            PreprocessConfig(emoji_lexicon={"x": "Fire!"}, vocabulary={"a"})

    def test_empty_vocab_with_filter_rejected(self):
        with pytest.raises(ValueError):
            PreprocessConfig(emoji_lexicon={}, vocabulary=set())

    def test_single_word_vocab(self):
        config = PreprocessConfig(emoji_lexicon={}, vocabulary={"hello"})
        assert preprocess("HELLO", config).tokens == ["hello"]


class TestBundledFiles:
    def test_lexicon_parses(self):
        lexicon = load_lexicon(bundled_data("emoji_lexicon.tsv"))
        assert lexicon
        config = PreprocessConfig(emoji_lexicon=lexicon,
                                  vocabulary={"placeholder"})
        assert config.emoji_lexicon == lexicon

    def test_vocabulary_parses(self):
        vocab = load_vocabulary(bundled_data("vocabulary.txt"))
        assert len(vocab) > 100
        assert all(w == w.lower() for w in vocab)

    def test_vocabulary_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("\ufeffmeme\ntext\n".encode("utf-8"))
        assert load_vocabulary(path) == {"meme", "text"}

    def test_pipeline_runs_with_bundled_config(self):
        config = PreprocessConfig(
            emoji_lexicon=load_lexicon(bundled_data("emoji_lexicon.tsv")),
            vocabulary=load_vocabulary(bundled_data("vocabulary.txt")))
        out = preprocess("When you WIN the argument \U0001F602", config)
        assert out.tokens  # non-empty under the bundled vocabulary
        for token in out.tokens:
            assert all("a" <= c <= "z" for c in token)
