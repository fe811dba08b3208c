def pytest_sessionstart(session):
    """Keep hypothesis's caches in pytest's temp directory, out of the checkout.

    With ``database=None`` hypothesis still caches the constants it reads
    from the local sources and its Unicode category table in its storage
    directory, by default ``.hypothesis/`` in the working directory. Its
    pytest plugin reads the constants while collecting, before any fixture
    runs, so the directory moves at session start. The caches change no
    generated example.
    """
    try:
        from hypothesis import configuration
    except ImportError:  # no property tests run without hypothesis
        return
    configuration.set_hypothesis_home_dir(session.config._tmp_path_factory.mktemp("hypothesis"))
