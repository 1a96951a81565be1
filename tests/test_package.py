"""The package's public surface."""

import amlgraph


def test_every_exported_name_resolves():
    missing = [name for name in amlgraph.__all__ if not hasattr(amlgraph, name)]
    assert missing == []
    assert len(set(amlgraph.__all__)) == len(amlgraph.__all__)
