"""The public name list stays sorted, unique and resolvable."""
import selftrig


def test_all_is_sorted_unique_and_resolves():
    names = selftrig.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(selftrig, name)]
    assert not missing
