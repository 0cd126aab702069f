"""The README's library quick start runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # the block ends with its own output, as a comment
    expected = code.rstrip().splitlines()[-1].removeprefix("# ")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == expected + "\n"
