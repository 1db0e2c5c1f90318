"""scripts/lint_src.py: unused module-level imports under src/."""

from __future__ import annotations

import importlib.util
import os
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(REPO, "scripts", "lint_src.py")
    spec = importlib.util.spec_from_file_location("lint_src", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_script()


def _hits(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return lint.unused_imports(path)


def test_src_has_no_unused_imports(capsys):
    assert lint.main([]) == 0, capsys.readouterr().out


def test_flags_unused_and_keeps_used(tmp_path):
    hits = _hits(tmp_path, """\
        from __future__ import annotations
        import os
        import os.path as osp
        import collections.abc
        from typing import Dict, List, Optional

        def f(x: "Optional[int]") -> List[int]:
            return [collections.abc.Sized, x]
        """)
    assert hits == [(2, "os"), (3, "osp"), (5, "Dict")]


def test_exports_noqa_and_local_imports_are_exempt(tmp_path):
    hits = _hits(tmp_path, """\
        from json import dumps
        from json import loads  # noqa: F401
        from json import (  # noqa: F401
            JSONDecoder,
        )
        try:
            import pickle
        except ImportError:
            import marshal

        __all__ = ["dumps"]

        def g():
            import re
        """)
    assert hits == [(7, "pickle"), (9, "marshal")]
