import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmnec import Candidate, ConfigError, DataFormatError, FeatureSpace, SparseVector, extract_features
from fmnec.fm import _Batch

# tokens are non-empty and whitespace-free; mix plain ASCII with cased
# unicode, digits, and punctuation to stress the character-class predicates
token_chars = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd", "Po", "Sc"), blacklist_characters=" \t\n"
)
tokens = st.text(alphabet=token_chars, min_size=1, max_size=8).filter(
    lambda s: not any(ch.isspace() for ch in s)
)
candidates = st.builds(
    Candidate,
    span_tokens=st.lists(tokens, min_size=1, max_size=4),
    left_context=st.lists(tokens, max_size=5),
    right_context=st.lists(tokens, max_size=5),
)


class TestCandidate:
    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            Candidate([])

    def test_rejects_whitespace_token(self):
        with pytest.raises(ValueError):
            Candidate(["two words"])

    def test_rejects_empty_gold_tag(self):
        with pytest.raises(ValueError):
            Candidate(["x"], gold_tag="")

    def test_surface(self):
        assert Candidate(["John", "Smith"]).surface == "John Smith"

    @pytest.mark.parametrize("where", ["span_tokens", "left_context", "right_context", "gold_tag"])
    @pytest.mark.parametrize(
        "odd", ["", "a\u00a0b", "\u2028", "x\u3000", "\x1c", "\x85y", "\tz", "\u200b", "ok"]
    )
    def test_token_check(self, where, odd):
        fields = {"span_tokens": ["Big", "Co"], "left_context": ["in"], "right_context": ["said"]}
        if where == "gold_tag":
            fields[where] = odd
            what = "gold tag"
        else:
            fields[where] = [*fields[where], odd]
            what = "tokens"
        if odd and not any(ch.isspace() for ch in odd):
            value = getattr(Candidate(**fields), where)
            assert (value if where == "gold_tag" else value[-1]) == odd
        else:
            with pytest.raises(ValueError) as err:
                Candidate(**fields)
            assert str(err.value) == f"{what} must be non-empty and whitespace-free: {odd!r}"

    @pytest.mark.parametrize(
        "span, left, right, first",
        [
            (["a\u3000b"], ["\x1c"], [""], "a\u3000b"),
            (["ok"], ["fine", "l\x85"], ["\t"], "l\x85"),
            (["ok"], ["fine"], ["r", "", "r\u00a0"], ""),
        ],
    )
    def test_token_check_names_first_bad_token(self, span, left, right, first):
        with pytest.raises(ValueError) as err:
            Candidate(span, left, right)
        assert str(err.value) == f"tokens must be non-empty and whitespace-free: {first!r}"

    def test_split_separators_are_exactly_isspace(self):
        # the one-pass token check rests on this: str.split() breaks a string
        # at a character exactly when str.isspace() is true for it
        chars = [chr(i) for i in range(sys.maxunicode + 1)]
        spaces = [ch for ch in chars if ch.isspace()]
        others = "".join(ch for ch in chars if not ch.isspace())
        assert others.split() == [others]
        assert ("x" + "x".join(spaces) + "x").split() == ["x"] * (len(spaces) + 1)


def parent_extract_features(candidate):
    """The character-class templates written one generator per predicate: the
    oracle for the faster form in extract_features."""
    feats = {f"ctx={token}" for token in (*candidate.left_context, *candidate.right_context)}
    chars = "".join(candidate.span_tokens)
    feats.add(f"cap={int(candidate.span_tokens[0][0].isupper())}")
    feats.add(f"all-low={int(all(ch.islower() for ch in chars))}")
    feats.add(f"all-cap1={int(all(ch.isupper() for ch in chars))}")
    feats.add(f"all-cap2={int(all(ch.isupper() or ch == '.' for ch in chars))}")
    count = len(candidate.span_tokens)
    feats.add("num-tokens=1" if count == 1 else "num-tokens=2" if count == 2 else "num-tokens>2")
    feats.add("dummy")
    return feats


# cased, uncased, titlecase and other-lowercase letters, digits, "." and "-"
cased_tokens = st.text(alphabet="aZ.1\u00dfI\u0130\u01c5\u4e2d\u00aa-", min_size=1, max_size=6)


class TestExtractFeatures:
    def test_capitalized_two_token_span(self):
        c = Candidate(["John", "Smith"], ["said"], ["yesterday"])
        assert extract_features(c) == {
            "ctx=said",
            "ctx=yesterday",
            "cap=1",
            "all-low=0",
            "all-cap1=0",
            "all-cap2=0",
            "num-tokens=2",
            "dummy",
        }

    def test_lowercase_single_token(self):
        assert extract_features(Candidate(["the"])) == {
            "cap=0",
            "all-low=1",
            "all-cap1=0",
            "all-cap2=0",
            "num-tokens=1",
            "dummy",
        }

    def test_acronym_with_periods(self):
        # '.' blocks all-cap1 but is admitted by all-cap2
        assert extract_features(Candidate(["U.N."])) == {
            "cap=1",
            "all-low=0",
            "all-cap1=0",
            "all-cap2=1",
            "num-tokens=1",
            "dummy",
        }

    def test_all_uppercase(self):
        feats = extract_features(Candidate(["EU"]))
        assert "all-cap1=1" in feats
        assert "all-cap2=1" in feats

    def test_digits_break_letter_predicates(self):
        feats = extract_features(Candidate(["B52"]))
        assert "all-low=0" in feats
        assert "all-cap1=0" in feats
        assert "all-cap2=0" in feats

    def test_three_or_more_tokens(self):
        feats = extract_features(Candidate(["a", "b", "c"]))
        assert "num-tokens>2" in feats

    def test_context_pooled_unordered(self):
        left = Candidate(["x"], ["in"], [])
        right = Candidate(["x"], [], ["in"])
        assert extract_features(left) == extract_features(right)

    @given(st.builds(Candidate, st.lists(cased_tokens, min_size=1, max_size=3),
                     st.lists(cased_tokens, max_size=3)))
    @settings(max_examples=500, deadline=None)
    def test_same_features_as_one_generator_per_predicate(self, candidate):
        assert extract_features(candidate) == parent_extract_features(candidate)

    @given(candidates)
    @settings(max_examples=200, deadline=None)
    def test_exactly_one_feature_per_template(self, candidate):
        feats = extract_features(candidate)
        for prefix in ("cap=", "all-low=", "all-cap1=", "all-cap2="):
            matching = {f for f in feats if f.startswith(prefix)}
            assert len(matching) == 1
            assert matching <= {prefix + "0", prefix + "1"}
        counts = {f for f in feats if f.startswith("num-tokens")}
        assert len(counts) == 1
        assert "dummy" in feats

    @given(candidates)
    @settings(max_examples=200, deadline=None)
    def test_all_cap1_implies_all_cap2(self, candidate):
        feats = extract_features(candidate)
        if "all-cap1=1" in feats:
            assert "all-cap2=1" in feats

    @given(candidates, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_context_order_and_duplicates(self, candidate, rnd):
        shuffled = list(candidate.left_context + candidate.right_context)
        rnd.shuffle(shuffled)
        cut = rnd.randrange(len(shuffled) + 1)
        doubled = Candidate(
            candidate.span_tokens,
            shuffled[:cut] + shuffled[:cut],
            shuffled[cut:],
            candidate.gold_tag,
        )
        assert extract_features(doubled) == extract_features(
            Candidate(candidate.span_tokens, shuffled, (), candidate.gold_tag)
        )


class TestFeatureSpace:
    def test_lexicographic_assignment(self):
        space = FeatureSpace(["a", "b", "c"])
        assert space.name_to_index == {"a": 0, "b": 1, "c": 2}
        assert space.index_to_name == ["a", "b", "c"]

    def test_fit_unions_and_sorts(self):
        cands = [Candidate(["Aa"], [], ["z"]), Candidate(["Aa"], ["b"], [])]
        space = FeatureSpace.fit(cands)
        union = extract_features(cands[0]) | extract_features(cands[1])
        assert space.index_to_name == sorted(union)

    def test_fit_is_deterministic(self):
        cands = [Candidate(["One"], ["x"], ["y"]), Candidate(["two"], [], [])]
        assert FeatureSpace.fit(cands) == FeatureSpace.fit(cands)

    def test_fit_rejects_empty(self):
        with pytest.raises(ConfigError):
            FeatureSpace.fit([])

    def test_unseen_feature_not_indexed(self):
        space = FeatureSpace.fit([Candidate(["word"])])
        assert "ctx=only-in-dev" not in space

    def test_vectorize_known_names(self):
        space = FeatureSpace(["a", "b", "c"])
        x = space.vectorize({"c", "a"})
        assert x.nnz == 2
        assert x.indices.tolist() == [0, 2] and x.values.tolist() == [1.0, 1.0]

    def test_vectorize_drops_unknown(self):
        space = FeatureSpace(["a"])
        assert space.vectorize({"nope", "also-nope"}).nnz == 0

    def test_vectorize_empty(self):
        space = FeatureSpace(["a"])
        assert space.vectorize(set()).nnz == 0

    @given(candidates)
    @settings(max_examples=100, deadline=None)
    def test_vectorize_output_well_formed(self, candidate):
        space = FeatureSpace.fit([candidate])
        x = space.vectorize_candidate(candidate)
        assert np.all(np.diff(x.indices) > 0)
        assert np.all(x.values == 1.0)
        assert x.nnz == len(extract_features(candidate))

    @given(st.lists(candidates, min_size=1, max_size=4), candidates, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_vectorize_meets_the_checked_invariants(self, training, candidate, rnd):
        # any name order a loaded space file may have, not only fit's sorted one
        names = FeatureSpace.fit(training).index_to_name
        space = FeatureSpace(rnd.sample(names, len(names)))
        for c in (*training, candidate):
            x = space.vectorize_candidate(c)
            assert SparseVector(x.indices, x.values) == x
            assert x.indices.dtype == np.int64 and x.values.dtype == np.float64
            assert x.indices.max() < len(space)
            assert not x.indices.flags.writeable and not x.values.flags.writeable

    def test_save_load_round_trip(self, tmp_path):
        space = FeatureSpace.fit([Candidate(["Mix"], ["l1", "l2"], ["r1"])])
        path = tmp_path / "space.txt"
        space.save(path)
        assert FeatureSpace.load(path) == space

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("a\na\n")
        with pytest.raises(DataFormatError):
            FeatureSpace.load(path)

    @pytest.mark.parametrize("bad", ["", "b\nc", "b c", "b\x1cc", "\u00a0"])
    def test_names_follow_the_token_rule(self, bad):
        # "b\nc" would save as two lines and load back as two names
        with pytest.raises(ValueError, match="feature names must be non-empty and whitespace-free"):
            FeatureSpace(["a", bad, "d"])

    @given(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_accepted_names_round_trip(self, tmp_path_factory, names):
        try:
            space = FeatureSpace(names)
        except ValueError:
            assume(False)
        path = tmp_path_factory.mktemp("space") / "space.txt"
        space.save(path)
        assert FeatureSpace.load(path) == space

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("a\n\nb\n", 2, "feature names must be non-empty and whitespace-free: ''"),
            ("a\nb\na\n", 3, "duplicate feature name 'a'"),
            ("a\nb\x1cc\nd\n", 2, "feature names must be non-empty and whitespace-free: 'b\\x1cc'"),
        ],
    )
    def test_load_names_the_bad_line(self, tmp_path, text, line, message):
        path = tmp_path / "space.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            FeatureSpace.load(path)
        assert str(info.value) == f"{path}:{line}: {message}"


# the lookup builds "ctx=" + token itself: tokens that hold "=" or already
# begin with "ctx=" must find exactly the names extract_features makes
lookup_tokens = st.text(alphabet="aZ.1\u00df\u0130\u01c5\u4e2d=-", min_size=1, max_size=5)
lookup_tokens = st.one_of(lookup_tokens, lookup_tokens.map("ctx=".__add__))
lookup_candidates = st.builds(
    Candidate,
    st.lists(lookup_tokens, min_size=1, max_size=4),
    st.lists(lookup_tokens, max_size=4),
    st.lists(lookup_tokens, max_size=4),
)


class TestTokenLookup:
    """vectorize_candidate and fit look names up by token and by span shape;
    both must agree with the names extract_features defines."""

    @given(st.lists(lookup_candidates, min_size=1, max_size=4),
           st.lists(lookup_candidates, max_size=6), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_vectorize_candidate_is_vectorize_of_the_names(self, training, others, rnd):
        names = FeatureSpace.fit(training).index_to_name
        # fit's order and any order a loaded space file may have
        for space in (FeatureSpace(names), FeatureSpace(rnd.sample(names, len(names)))):
            for c in (*training, *others, *training):  # the repeats look up again
                assert space.vectorize_candidate(c) == space.vectorize(extract_features(c))

    @given(st.lists(lookup_candidates, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_fit_is_the_sorted_union_of_the_names(self, cs):
        assert FeatureSpace.fit(cs) == FeatureSpace(sorted(set().union(*map(extract_features, cs))))


# a context that repeats one of its tokens, or is empty on both sides
repeating_candidates = st.builds(
    lambda span, left, right, twice: Candidate(span, (*left, *right[:1]) if twice else left,
                                               right),
    st.lists(lookup_tokens, min_size=1, max_size=3), st.lists(lookup_tokens, max_size=3),
    st.lists(lookup_tokens, max_size=3), st.booleans(),
)
batch_candidates = st.one_of(lookup_candidates, repeating_candidates,
                             st.lists(lookup_tokens, min_size=1, max_size=3).map(Candidate))


class TestBatchVectorizer:
    """vectorize_batch builds the rows of a whole batch, ``_CHUNK`` candidates at a time;
    each row must hold the candidate's own vector."""

    @given(st.lists(batch_candidates, min_size=1, max_size=4), st.lists(batch_candidates,
           max_size=8), st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_the_candidates_vector(self, training, others, keep, crowd, rnd):
        names = FeatureSpace.fit(training).index_to_name
        # a space without some names, shape names among them, has rows with few or none
        kept = [name for name in names if rnd.random() < keep]
        space = FeatureSpace(rnd.sample(kept, len(kept)))
        batch = [*training, *others]
        if crowd:  # more rows than one step takes: rows on both sides of every step
            size = FeatureSpace._CHUNK + rnd.randrange(1, 2 * FeatureSpace._CHUNK)
            batch = [rnd.choice(batch) for _ in range(size)]
        counts, indices = space.vectorize_batch(batch)
        assert counts.dtype == indices.dtype == np.int64
        assert counts.size == len(batch) and counts.sum() == indices.size
        ends = np.cumsum(counts).tolist()
        assert _Batch(counts, indices).bounds.tolist() == [0, *ends]  # the rows SGD visits
        for c, start, end in zip(batch, [0, *ends], ends):
            expected = space.vectorize(extract_features(c))
            assert SparseVector(indices[start:end], np.ones(end - start)) == expected
        for c in batch[:10]:
            x = space.vectorize_candidate(c)
            assert x == space.vectorize(extract_features(c))
            assert x.values.dtype == np.float64 and not x.indices.flags.writeable

    def test_no_candidates(self):
        counts, indices = FeatureSpace(["dummy"]).vectorize_batch([])
        assert counts.tolist() == indices.tolist() == []
        assert counts.dtype == indices.dtype == np.int64
        assert len(_Batch(counts, indices)) == 0
