"""Figure 8: tokenization in action.

Reproduces the token table of Figure 8 for the paper's example line (a
Nuclear-style obfuscated eval lookup) and runs the tokenizer on a full packed
sample, since tokenization is the first stage of the per-day pipeline.
"""

from __future__ import annotations

import datetime
import random

from repro.ekgen import TelemetryGenerator
from repro.evalharness import format_table
from repro.jstoken import TokenClass, tokenize

FIGURE_8_SOURCE = 'var Euur1V = this["l9D"]("ev#333399al");'

EXPECTED = [
    ("var", "Keyword"),
    ("Euur1V", "Identifier"),
    ("=", "Punctuation"),
    ("this", "Keyword"),
    ("[", "Punctuation"),
    ('"l9D"', "String"),
    ("]", "Punctuation"),
    ("(", "Punctuation"),
    ('"ev#333399al"', "String"),
    (")", "Punctuation"),
    (";", "Punctuation"),
]


def test_fig08_tokenization(generator: TelemetryGenerator):
    sample = generator.kits["nuclear"].generate(datetime.date(2014, 8, 5),
                                                random.Random(8))
    tokens = tokenize(sample.content)
    assert len(tokens) > 100

    figure_tokens = tokenize(FIGURE_8_SOURCE)
    rows = [[token.value, token.cls.value] for token in figure_tokens]
    print()
    print(format_table(["Token", "Class"], rows,
                       title="Figure 8: tokenization in action"))

    observed = [(token.value, token.cls.value) for token in figure_tokens]
    # ``this`` is a reserved word, so unlike the paper's simplified table we
    # class it as Keyword; everything else matches Figure 8 exactly.
    assert observed == EXPECTED
    assert all(token.cls is not TokenClass.COMMENT for token in figure_tokens)
