"""The entries of the mutation registry (``tools/mutate.py``) still match the code they break.

Running the registry takes minutes, so Tier-1 checks only that each snippet
occurs exactly once in its file and that each named test is still defined.
"""

import re

import pytest

from tools.mutate import REGISTRY, ROOT


def test_names_are_unique():
    assert len({m.name for m in REGISTRY}) == len(REGISTRY)


@pytest.mark.parametrize("mutation", REGISTRY, ids=[m.name for m in REGISTRY])
def test_snippet_occurs_once_and_tests_exist(mutation):
    assert (ROOT / mutation.file).read_text(encoding="utf-8").count(mutation.snippet) == 1
    for test in mutation.tests:
        path, *names = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert all(re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.MULTILINE) for name in names), test
