"""The test configuration itself: a failing property test reports its example."""
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_example(pytester):
    # Run under the repository's own warning filters, in a fresh interpreter,
    # so Hypothesis's reporting imports happen as they would in a real run.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers(0, 100))
        def test_small(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_fails.py")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
