import warnings

from hypothesis import settings

# On a failure the hypothesis plugin imports its patch writer, which imports
# libcst; a DeprecationWarning raised on that import fails the run as an
# internal error under filterwarnings = error, and every later test is lost.
# Import it once here, with that warning ignored; without libcst it is absent.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")
