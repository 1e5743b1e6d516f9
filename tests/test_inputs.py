"""tests/inputs.py writes each input file once, in a directory of its own."""

from pathlib import Path

import pytest

from inputs import InputDir


def test_a_written_file_is_never_written_over(inputs):
    path = inputs.write("curve.json", {"f": ["1", "6", "5"]})
    with pytest.raises(FileExistsError):
        inputs.write("curve.json", text="{}")
    assert Path(path).read_text() == '{"f": ["1", "6", "5"]}'


def test_each_input_dir_starts_new_and_empty(inputs, tmp_path):
    inputs.write("curve.json", {"f": ["1", "6", "5"]})
    other = InputDir(tmp_path)
    assert other.path != inputs.path and not any(other.path.iterdir())
    assert Path(other.write("curve.json", text="{}")).read_text() == "{}"
