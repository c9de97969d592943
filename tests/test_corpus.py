import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmnec import (
    Candidate,
    ConfigError,
    DataFormatError,
    Sentence,
    corpus_stats,
    extract_candidates,
    filter_unknown,
    format_stats_table,
    parse_column_file,
    read_candidates_tsv,
    repair_bio,
    write_candidates_tsv,
)


def sent(*pairs):
    return Sentence(list(pairs))


class TestParseColumnFile:
    def write(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        return path

    def test_column_selection(self, tmp_path):
        path = self.write(tmp_path, "EU NNP B-NP B-ORG\n")
        [sentence] = parse_column_file(path, token_column=0, tag_column=3)
        assert sentence.tokens == (("EU", "B-ORG"),)

    def test_blank_line_separates_sentences(self, tmp_path):
        path = self.write(tmp_path, "a X X O\n\nb X X O\n")
        sentences = parse_column_file(path)
        assert [s.words for s in sentences] == [["a"], ["b"]]

    def test_docstart_skipped(self, tmp_path):
        path = self.write(tmp_path, "-DOCSTART- -X- -X- O\n\na X X O\n")
        sentences = parse_column_file(path)
        assert [s.words for s in sentences] == [["a"]]

    def test_orphan_inside_tag_promoted(self, tmp_path):
        path = self.write(tmp_path, "John X X I-PER\nSmith X X I-PER\n")
        [sentence] = parse_column_file(path)
        assert sentence.tags == ["B-PER", "I-PER"]

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a X X O\nb X\n")
        with pytest.raises(DataFormatError) as err:
            parse_column_file(path, token_column=0, tag_column=3)
        assert err.value.line == 2

    @pytest.mark.parametrize("tag", ["B-", "I-"])
    def test_untyped_tag_reports_line(self, tmp_path, tag):
        path = self.write(tmp_path, f"John NNP B-NP B-PER\nSmith NNP B-NP {tag}\n")
        with pytest.raises(DataFormatError, match="no entity type") as err:
            parse_column_file(path)
        assert err.value.line == 2

    def test_negative_column_index(self, tmp_path):
        path = self.write(tmp_path, "EU NNP B-NP B-ORG\n")
        [sentence] = parse_column_file(path, token_column=0, tag_column=-1)
        assert sentence.tokens == (("EU", "B-ORG"),)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_column_file(tmp_path / "missing.txt")

    def test_parsed_sentence_cannot_be_changed(self, tmp_path):
        # its candidates skip the checks, so tokens added after parsing would skip them too
        [sentence] = parse_column_file(self.write(tmp_path, "EU NNP B-NP B-ORG\n"))
        with pytest.raises(AttributeError):
            sentence.tokens.append(("two words", "B-PER"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sentence.tokens = [("two words", "B-PER")]
        assert sentence.tokens == (("EU", "B-ORG"),)

    @pytest.mark.parametrize("pair, message", [
        (("two words", "B-PER"), "tokens must be non-empty and whitespace-free: 'two words'"),
        (("Zed", "B-"), "gold tag must be non-empty and whitespace-free: ''"),
    ])
    def test_parsed_tokens_in_a_new_sentence_are_checked(self, tmp_path, pair, message):
        [parsed] = parse_column_file(self.write(tmp_path, "EU NNP B-NP B-ORG\n"))
        with pytest.raises(ValueError) as err:
            extract_candidates([Sentence(parsed.tokens + (pair,))])
        assert str(err.value) == message


class TestRepairBio:
    def test_start_promoted(self):
        assert repair_bio(["I-PER", "I-PER"]) == ["B-PER", "I-PER"]

    def test_type_break_promoted(self):
        assert repair_bio(["B-PER", "I-LOC"]) == ["B-PER", "B-LOC"]

    def test_after_o_promoted(self):
        assert repair_bio(["O", "I-ORG"]) == ["O", "B-ORG"]

    def test_well_formed_untouched(self):
        tags = ["B-PER", "I-PER", "O", "B-LOC"]
        assert repair_bio(tags) == tags


class TestExtractCandidates:
    def test_entity_span(self):
        [c] = extract_candidates(
            [sent(("John", "B-PER"), ("Smith", "I-PER"), ("spoke", "O"))]
        )
        assert c.span_tokens == ("John", "Smith")
        assert c.left_context == ()
        assert c.right_context == ("spoke",)
        assert c.gold_tag == "PER"

    def test_capitalized_non_entity_becomes_o_candidate(self):
        [c] = extract_candidates([sent(("on", "O"), ("Monday", "O"), ("it", "O"))])
        assert c.span_tokens == ("Monday",)
        assert c.gold_tag == "O"
        assert c.left_context == ("on",)
        assert c.right_context == ("it",)

    def test_lowercase_non_entity_excluded(self):
        assert extract_candidates([sent(("spoke", "O"))]) == []

    def test_contexts_partition_sentence(self):
        sentences = [
            sent(("a", "O"), ("B", "B-LOC"), ("c", "O"), ("D", "B-PER"), ("e", "O"))
        ]
        for c in extract_candidates(sentences):
            rebuilt = list(c.left_context) + list(c.span_tokens) + list(c.right_context)
            assert rebuilt == ["a", "B", "c", "D", "e"]

    def test_adjacent_spans(self):
        cands = extract_candidates(
            [sent(("EU", "B-ORG"), ("Japan", "B-LOC"), ("talks", "O"))]
        )
        assert [(c.surface, c.gold_tag) for c in cands] == [("EU", "ORG"), ("Japan", "LOC")]


class TestFilterUnknown:
    def make(self, *surfaces, tag="PER"):
        return [Candidate(s.split("_"), gold_tag=tag) for s in surfaces]

    def test_set_difference(self):
        train = self.make("John", "Paris")
        eval_ = self.make("John", "Berlin")
        assert [c.surface for c in filter_unknown(eval_, train)] == ["Berlin"]

    def test_case_insensitive(self):
        train = self.make("John")
        eval_ = self.make("JOHN")
        assert filter_unknown(eval_, train) == []

    def test_empty_training_keeps_all(self):
        eval_ = self.make("Anyone")
        assert filter_unknown(eval_, []) == eval_

    def test_idempotent(self):
        train = self.make("John")
        eval_ = self.make("John", "Berlin", "Tokyo")
        once = filter_unknown(eval_, train)
        assert filter_unknown(once, train) == once

    def test_never_removes_unseen_surface(self):
        import numpy as np

        rng = np.random.default_rng(9)
        pool = [f"Tok{int(i)}" for i in rng.integers(0, 40, size=60)]
        train = self.make(*pool[:30])
        eval_ = self.make(*pool[30:])
        train_surfaces = {c.surface.lower() for c in train}
        kept = filter_unknown(eval_, train)
        removed = [c for c in eval_ if c not in kept]
        assert all(c.surface.lower() in train_surfaces for c in removed)
        assert all(c.surface.lower() not in train_surfaces for c in kept)

    def test_multi_token_surface(self):
        train = [Candidate(["New", "York"], gold_tag="LOC")]
        eval_ = [Candidate(["new", "york"], gold_tag="LOC"), Candidate(["York"], gold_tag="LOC")]
        kept = filter_unknown(eval_, train)
        assert [c.surface for c in kept] == ["York"]


class TestCorpusStats:
    def test_hand_count(self):
        cands = [
            Candidate(["A"], gold_tag="PER"),
            Candidate(["a"], gold_tag="PER"),
            Candidate(["B"], gold_tag="LOC"),
        ]
        stats = corpus_stats(cands)
        assert stats["PER"].tokens == 2
        assert stats["PER"].types == 1  # case-insensitive types
        assert stats["LOC"].tokens == 1
        assert stats["LOC"].types == 1

    def test_empty(self):
        assert corpus_stats([]) == {}

    def test_tokens_sum_to_candidate_count(self):
        cands = [Candidate([t], gold_tag=tag) for t, tag in
                 [("A", "PER"), ("B", "LOC"), ("C", "PER"), ("D", "O")]]
        assert sum(tc.tokens for tc in corpus_stats(cands).values()) == len(cands)

    def test_untagged_candidate_rejected(self):
        with pytest.raises(ConfigError):
            corpus_stats([Candidate(["A"])])

    def test_table_layout(self):
        stats = corpus_stats([Candidate(["A"], gold_tag="PER"), Candidate(["B"], gold_tag="O")])
        table = format_stats_table({"training": stats})
        lines = table.splitlines()
        assert lines[0].split() == ["tag", "training"]
        assert lines[1].startswith("PER")
        assert lines[-1].startswith("O")  # non-entity tag last


class TestCandidatesTsv:
    def test_round_trip(self, tmp_path):
        cands = [
            Candidate(["John", "Smith"], ["mr"], ["spoke", "today"], "PER"),
            Candidate(["Monday"], [], [], "O"),
            Candidate(["Untagged"], ["x"], []),
        ]
        path = tmp_path / "c.tsv"
        write_candidates_tsv(path, cands)
        assert read_candidates_tsv(path) == cands

    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(st.text(alphabet="aZ\t\n\r \u00a0\x85\u2028", max_size=3), max_size=4),
        tag=st.one_of(st.none(), st.text(alphabet="OG\t\n\r \u00a0\x85\u2028", max_size=3)),
    )
    def test_written_file_reads_back(self, tmp_path_factory, words, tag):
        # whatever Candidate accepts, the file writer must write readably
        try:
            candidate = Candidate(["Acme", *words[:1]], words[1:2], words[2:], tag)
        except ValueError:
            return
        path = tmp_path_factory.mktemp("tsv") / "c.tsv"
        write_candidates_tsv(path, [candidate])
        assert read_candidates_tsv(path) == [candidate]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="aZ. \x85\u3000\x1c\x0b", max_size=5), min_size=4, max_size=4))
    def test_rows_read_as_the_public_constructor_builds(self, tmp_path_factory, fields):
        # rows whose span and tag pass are built unchecked; every other row must
        # fail exactly as the public constructor does, naming path and line
        tag, span, left, right = fields
        path = tmp_path_factory.mktemp("tsv") / "c.tsv"
        path.write_text("Acme\tAcme\t\t\n" + "\t".join(fields) + "\n", encoding="utf-8")
        try:
            expected = Candidate(span.split(), left.split(), right.split(), tag or None)
        except ValueError as exc:
            with pytest.raises(DataFormatError) as err:
                read_candidates_tsv(path)
            assert str(err.value) == f"{path}:2: {exc}"
            return
        got = read_candidates_tsv(path)[1]
        assert got == expected and hash(got) == hash(expected)
        assert vars(got) == vars(expected)  # the same field types (tuples), nothing more

    def test_field_layout(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_candidates_tsv(path, [Candidate(["a", "b"], ["l"], ["r"], "LOC")])
        assert path.read_text() == "LOC\ta b\tl\tr\n"

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("PER\tJohn\t\tspoke\n\nLOC\tRome\tin\t\n")
        assert read_candidates_tsv(path) == [Candidate(["John"], [], ["spoke"], "PER"),
                                             Candidate(["Rome"], ["in"], [], "LOC")]

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("PER\tJohn\n")
        with pytest.raises(DataFormatError) as err:
            read_candidates_tsv(path)
        assert err.value.line == 1

    def test_rejects_empty_span(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("PER\t\tl\tr\n")
        with pytest.raises(DataFormatError):
            read_candidates_tsv(path)


def assert_one_object_per_value(strings):
    first = {}
    for s in strings:
        assert first.setdefault(s, s) is s, s


class TestSharedStrings:
    """The readers keep one str object per distinct token and tag."""

    TEXT = (
        "-DOCSTART- -X- -X- O\n\n"
        "Maria NNP B-NP B-PER\nKoch NNP I-NP I-PER\nvisited VBD B-VP O\nBerlin NNP B-NP B-LOC\n\n"
        "Berlin NNP B-NP I-LOC\nwelcomed VBD B-VP O\nMaria NNP B-NP B-PER\nKoch NNP I-NP I-PER\n\n"
    )

    def test_parse_column_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(self.TEXT)
        sentences = parse_column_file(path)
        pairs = [pair for sentence in sentences for pair in sentence.tokens]
        assert_one_object_per_value(word for word, _ in pairs)
        # "I-LOC" at the start of a sentence is promoted to a new "B-LOC" string
        assert [tag for _, tag in pairs].count("B-LOC") == 2
        assert_one_object_per_value(tag for _, tag in pairs)

    def test_extract_candidates(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(self.TEXT)
        candidates = extract_candidates(parse_column_file(path))
        assert [c.gold_tag for c in candidates] == ["PER", "LOC", "LOC", "PER"]
        assert_one_object_per_value(c.gold_tag for c in candidates)
        assert_one_object_per_value(
            token for c in candidates
            for token in (*c.span_tokens, *c.left_context, *c.right_context)
        )

    def test_read_candidates_tsv(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "PER\tMaria Koch\t\tvisited Berlin\n"
            "LOC\tBerlin\tMaria Koch visited\t\n"
            "LOC\tBerlin\t\twelcomed Maria Koch\n"
            "\tWelcomed\tBerlin\tBerlin Maria\n"
        )
        candidates = read_candidates_tsv(path)
        assert_one_object_per_value(c.gold_tag for c in candidates[:3])
        assert candidates[3].gold_tag is None
        assert_one_object_per_value(
            token for c in candidates
            for token in (*c.span_tokens, *c.left_context, *c.right_context)
        )


@pytest.mark.parametrize("pairs, message", [
    ([("New York", "B-LOC"), ("fell", "O")], "tokens must be non-empty and whitespace-free: 'New York'"),
    ([("in", "O"), ("Rome", "B-")], "gold tag must be non-empty and whitespace-free: ''"),
    ([("Rome", "I-")], "gold tag must be non-empty and whitespace-free: ''"),
    ([("Rome", "B-A B")], "gold tag must be non-empty and whitespace-free: 'A B'"),
    ([("x y", "O"), ("Rome", "O")], "tokens must be non-empty and whitespace-free: 'x y'"),
])
def test_hand_built_sentence_gets_the_constructors_error(pairs, message):
    # parse_column_file never makes these; extract_candidates checks them as Candidate does
    with pytest.raises(ValueError) as err:
        extract_candidates([sent(*pairs)])
    assert str(err.value) == message
