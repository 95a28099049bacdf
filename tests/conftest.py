import warnings

# On a falsifying example, hypothesis' pytest plugin imports this module
# while it builds the report; its dependencies raise DeprecationWarnings,
# which the suite's filterwarnings = error turns into an INTERNALERROR
# that ends the session.  Importing it once here, with those warnings
# silenced, leaves every later import a cache hit.  Without libcst the
# plugin skips the import itself.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
