"""pytest set-up shared by the test modules."""

import pytest

# oracles guards its arguments by assert; rewritten, those guards also run
# under python -O, which strips plain assert statements
pytest.register_assert_rewrite("oracles")
