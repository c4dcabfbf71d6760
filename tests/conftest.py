"""Shared fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _cert_cache(tmp_path_factory):
    """One base-certificate cache for the whole session, set before the
    first default_cache() call: the table is filled once, and no test
    writes to ~/.cache/torfill."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TORFILL_CERT_CACHE", str(tmp_path_factory.mktemp("certs")))
        yield
