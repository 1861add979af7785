"""The package's public names."""

from __future__ import annotations

import haltonlab


def test_star_import_and_every_public_name_resolves():
    namespace: dict = {}
    exec("from haltonlab import *", namespace)
    missing = [name for name in haltonlab.__all__
               if not hasattr(haltonlab, name)]
    assert missing == []
    assert set(haltonlab.__all__) <= set(namespace)
