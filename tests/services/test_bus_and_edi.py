"""Tests for the retained-message buffer and the EDI codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.engine import ProcessEngine
from repro.services.edi import (
    EdiDecodeError,
    EdiMessage,
    EdiSegment,
    decode_edi,
    encode_edi,
)


class TestMessageBus:
    """The retained buffer, fed the way the engine feeds it: a message
    ``correlate_message`` finds no receiver for lands on ``engine.bus``."""

    def test_unconsumed_messages_are_retained(self):
        engine = ProcessEngine()
        engine.correlate_message("ping")
        assert engine.bus.retained_count == 1
        assert len(engine.bus.retained("ping")) == 1

    def test_consume_retained_by_correlation(self):
        engine = ProcessEngine()
        engine.correlate_message("reply", correlation="a")
        engine.correlate_message("reply", correlation="b")
        message = engine.bus.consume_retained("reply", correlation="b")
        assert message.correlation == "b"
        assert engine.bus.retained_count == 1
        assert engine.bus.consume_retained("reply", correlation="zzz") is None

    def test_consume_retained_match_any_takes_oldest(self):
        engine = ProcessEngine()
        engine.correlate_message("reply", correlation="a")
        engine.correlate_message("reply", correlation="b")
        message = engine.bus.consume_retained("reply", match_any=True)
        assert message.correlation == "a"

    def test_empty_name_rejected(self):
        engine = ProcessEngine()
        with pytest.raises(ValueError):
            engine.correlate_message("")
        assert engine.bus.retained_count == 0

    def test_ids_are_monotonic(self):
        engine = ProcessEngine()
        a = engine.correlate_message("x")
        b = engine.correlate_message("x")
        assert b.id > a.id
        assert [m.id for m in engine.bus.retained("x")] == [a.id, b.id]


class TestEdiCodec:
    def sample(self):
        return EdiMessage(
            segments=[
                EdiSegment("UNH", (("1",), ("CUSDEC", "D", "96B"))),
                EdiSegment("BGM", (("929",), ("DOC123",))),
                EdiSegment("LOC", (("9",), ("ESALG", "139"))),
                EdiSegment("UNT", (("4",), ("1",))),
            ]
        )

    def test_encode_format(self):
        text = encode_edi(self.sample())
        assert text.startswith("UNH+1+CUSDEC:D:96B'")
        assert text.endswith("UNT+4+1'")

    def test_roundtrip(self):
        message = self.sample()
        assert decode_edi(encode_edi(message)) == message

    def test_special_characters_escaped(self):
        message = EdiMessage(
            segments=[EdiSegment("FTX", (("it's+tricky:here?",),))]
        )
        text = encode_edi(message)
        decoded = decode_edi(text)
        assert decoded.segments[0].elements[0][0] == "it's+tricky:here?"

    def test_first_and_all_accessors(self):
        message = EdiMessage(
            segments=[
                EdiSegment("LOC", (("5",),)),
                EdiSegment("LOC", (("9",),)),
                EdiSegment("BGM", ()),
            ]
        )
        assert message.first("LOC").element(0) == "5"
        assert len(message.all("LOC")) == 2
        assert message.first("ZZZ") is None

    def test_element_accessor_defaults(self):
        segment = EdiSegment("BGM", (("929",),))
        assert segment.element(0) == "929"
        assert segment.element(5) == ""
        assert segment.element(5, default="?") == "?"

    def test_empty_text_decodes_to_empty_message(self):
        assert len(decode_edi("")) == 0
        assert encode_edi(EdiMessage()) == ""

    def test_unterminated_segment_rejected(self):
        with pytest.raises(EdiDecodeError, match="unterminated"):
            decode_edi("UNH+1")

    def test_bad_tag_rejected(self):
        with pytest.raises(EdiDecodeError):
            decode_edi("TOOLONG+1'")

    def test_dangling_escape_rejected(self):
        with pytest.raises(EdiDecodeError):
            decode_edi("UNH+abc?")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["UNH", "BGM", "LOC", "FTX", "UNT"]),
                st.lists(
                    st.lists(
                        st.text(
                            alphabet="abc123'+:? ", max_size=8
                        ),
                        min_size=1,
                        max_size=3,
                    ).map(tuple),
                    max_size=3,
                ).map(tuple),
            ),
            max_size=6,
        )
    )
    def test_any_message_roundtrips(self, raw_segments):
        message = EdiMessage(
            segments=[EdiSegment(tag, elements) for tag, elements in raw_segments]
        )
        assert decode_edi(encode_edi(message)) == message
