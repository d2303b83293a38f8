"""The fault table's snippets are still in the source, each exactly once.

``tests/fault_table.py`` plants each fault by replacing one snippet; a
snippet that an edit moved or rewrote is found otherwise only by a full
run of the table.  This reads the files' text and takes milliseconds.
"""

import pytest

from fault_table import FAULTS, ROOT


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.name for fault in FAULTS])
def test_every_fault_snippet_occurs_once(fault):
    text = (ROOT / fault.path).read_text(encoding="utf-8")
    assert text.count(fault.old) == 1, f"{fault.name}: snippet found {text.count(fault.old)} times in {fault.path}"
