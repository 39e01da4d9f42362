"""Each record states each field once: its layout is its annotated fields.

A record class annotates every field as ``Annotated[python_type, kind]``
in byte order, and ``Record`` builds the class's ``LAYOUT`` from them. So
the object's fields and the encoded fields are one list, a field that
names no kind is refused where the class is defined, and README's
normative table, which restates the layouts for readers, must list the
same fields in the same order. README's wire-message table restates
``wire.EXCHANGES`` in the same way.
"""

import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Annotated

import pytest

import expunge  # noqa: F401  (importing the package defines every record)
from expunge.cloud import Transition
from expunge.encoding import U64, Layout, Record
from expunge.wire import EXCHANGES

README = Path(__file__).resolve().parent.parent / "README.md"


def _records() -> list[type]:
    """Every ``Record`` subclass of the package."""
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted((c for c in found if c.__module__.startswith("expunge.")), key=lambda c: c.__name__)


def test_field_that_names_no_kind_is_refused_at_definition():
    with pytest.raises(TypeError, match=r"Row\.spare names no kind"):

        @dataclass(frozen=True)
        class Row(Record):
            TYPE = None
            kept: Annotated[int, U64]
            spare: int = 0


def test_layout_follows_the_annotated_fields():
    @dataclass(frozen=True)
    class Row(Record):
        TYPE = None
        kept: Annotated[int, U64]
        spare: Annotated[int, U64] = 7

    assert Row(kept=1).to_bytes() == bytes(7) + b"\x01" + bytes(7) + b"\x07"
    assert Row.from_bytes(Row(kept=1, spare=2).to_bytes()) == Row(kept=1, spare=2)


def test_the_package_defines_every_record():
    assert [c.__name__ for c in _records()] == [
        "AccumulatorParams", "AccumulatorValue", "AttestationBundle", "DeletionProof",
        "EpochRecord", "MetaDataRow", "QueryRecord", "SealedBlock", "SensorDataRow",
        "SensorReading", "Transition",
    ]


@pytest.mark.parametrize("cls", _records(), ids=lambda c: c.__name__)
def test_dataclass_fields_are_the_layout_fields_in_order(cls):
    assert [f.name for f in fields(cls)] == [name for name, _ in cls.LAYOUT.fields]


def field_names(cell: str) -> list[str]:
    """A README cell's fields, split at commas outside parentheses; each name is its first word."""
    if cell == "none":
        return []
    return [entry.split()[0] for entry in re.split(r",\s*(?![^()]*\))", cell)]


def names(layout: Layout) -> list[str]:
    return [name for name, _ in layout.fields]


def readme_record_table(text: str) -> dict[str, tuple[int, list[str]]]:
    """``{record: (type byte, field names)}`` from README's normative record table.

    A row's fields are its third cell up to the first ``;``.
    """
    return {
        name: (int(type_hex, 16), field_names(cell.split(";")[0]))
        for type_hex, name, cell in re.findall(r"^\| `0x(\w\w)` \| `(\w+)` \| (.*) \|$", text, re.M)
    }


def readme_wire_table(text: str) -> dict[int, tuple]:
    """``{type: (request, its fields, reply, reply type, its fields)}`` from README's wire table."""
    row = r"^\| `(\d+)` \| `(\w+)` \| (.*) \| `(\w+)` `(\d+)` \| (.*) \|$"
    return {
        int(msg_type): (request, field_names(fields), reply, int(reply_type), field_names(reply_fields))
        for msg_type, request, fields, reply, reply_type, reply_fields in re.findall(row, text, re.M)
    }


def test_readme_table_is_parsed():
    text = (
        "| `0x10` | `Rec` | a u64, b list of (state u8, at u64); c is sealed, d |\n"
        "| `0x02` | retired | the old window |\n"
    )
    assert readme_record_table(text) == {"Rec": (0x10, ["a", "b"])}


def test_readme_wire_table_is_parsed():
    text = (
        "| `7` | `ASK` | a u64, b vbytes (a `0x0B` record) | `ANSWER` `30` | none |\n"
        "| `0x10` | `Rec` | a u64 |\n"
    )
    assert readme_wire_table(text) == {7: ("ASK", ["a", "b"], "ANSWER", 30, [])}


def test_readme_lists_each_record_in_layout_order():
    table = readme_record_table(README.read_text())
    expected = {
        cls.__name__: (cls.TYPE, [name for name, _ in cls.LAYOUT.fields])
        for cls in _records()
        if cls.TYPE is not None  # a headerless record has no row of its own
    }
    assert table == expected


def test_readme_lists_each_wire_message_in_layout_order():
    expected = {
        int(msg_type): (
            msg_type.name, names(request), reply_type.name, int(reply_type), names(reply)
        )
        for msg_type, (request, reply_type, reply) in EXCHANGES.items()
    }
    assert readme_wire_table(README.read_text()) == expected


def test_readme_lists_the_tick_reply_element_in_layout_order():
    (cell,) = re.findall(r"^\| `Transition` \| (.*) \|$", README.read_text(), re.M)
    assert field_names(cell) == names(Transition.LAYOUT)
