import contextlib
import io
import re
from pathlib import Path

from dephasim import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # the documented library surface: a name the example imports that is gone fails here
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert 0.0 < float(out.getvalue()) <= 1.0


def test_configuration_schema_example_parses():
    # the schema example cannot document a key the parser rejects
    section = README.read_text().split("## Configuration schema", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    cfg = parse_config(example)
    assert cfg.cutoff == "auto"
    assert len(cfg.model.segments) == 3
