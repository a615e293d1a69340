"""The test configuration itself: what a failing test reports under it."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(pytester):
    """Under the project's warning filters a failing `@given` test ends in a
    plain failure with its falsifying example, not an INTERNALERROR."""
    test = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 10
        """
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", str(test))
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_small(*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
