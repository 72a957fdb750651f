from __future__ import annotations

import qlax


def test_public_api_resolves():
    # a name left in __all__ after its definition is deleted must fail here
    missing = [name for name in qlax.__all__ if not hasattr(qlax, name)]
    assert missing == []
    assert len(set(qlax.__all__)) == len(qlax.__all__)
