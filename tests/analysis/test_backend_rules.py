"""Fixture snippets for R007 (dense-kernel purity)."""

from repro.analysis import lint_sources


def rules_in(sources, **kwargs):
    return [d.rule for d in lint_sources(sources, **kwargs)]


class TestR007BackendSeam:
    def test_einsum_in_model_module_flagged(self):
        source = (
            "import numpy as np\n"
            "def score(u, v):\n"
            '    return np.einsum("bf,bf->b", u, v)\n'
        )
        assert rules_in({"src/repro/models/foo.py": source}) == ["R007"]

    def test_matmul_and_dot_in_eval_and_serve_flagged(self):
        eval_src = "import numpy as np\ny = np.matmul(a, b)\n"
        serve_src = "import numpy as np\ny = np.dot(a, b)\n"
        assert rules_in({"src/repro/eval/foo.py": eval_src}) == ["R007"]
        assert rules_in({"src/repro/serve/foo.py": serve_src}) == ["R007"]

    def test_aliased_import_resolved(self):
        source = "import numpy.linalg\nimport numpy as xp\nz = xp.tensordot(a, b)\n"
        assert rules_in({"src/repro/models/foo.py": source}) == ["R007"]

    def test_from_import_resolved(self):
        source = "from numpy import einsum\nz = einsum('ij,jk->ik', a, b)\n"
        assert rules_in({"src/repro/eval/foo.py": source}) == ["R007"]

    def test_backend_package_exempt(self):
        source = (
            "import numpy as np\n"
            "def pair_dot(a, b):\n"
            '    return np.einsum("bf,bf->b", a, b)\n'
        )
        assert rules_in({"src/repro/backend/numpy_backend.py": source}) == []

    def test_out_of_scope_modules_pass(self):
        source = "import numpy as np\ny = np.einsum('ij->i', a)\n"
        assert rules_in({"src/repro/samplers/foo.py": source}) == []
        assert rules_in({"src/repro/data/foo.py": source}) == []

    def test_elementwise_numpy_still_allowed_in_scope(self):
        source = (
            "import numpy as np\n"
            "def stable(x):\n"
            "    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))\n"
        )
        assert rules_in({"src/repro/models/foo.py": source}) == []

    def test_justified_noqa_suppresses(self):
        source = (
            "import numpy as np\n"
            "def grad(u, v):\n"
            '    return np.einsum("bf,bf->b", u, v)  '
            "# repro: noqa[R007] -- host-mirror training math\n"
        )
        assert rules_in({"src/repro/models/foo.py": source}) == []

    def test_instance_attribute_einsum_passes(self):
        # `self.xp.einsum` is not a module-level numpy call.
        source = (
            "class M:\n"
            "    def f(self, a, b):\n"
            "        return self.xp.einsum('bf,bf->b', a, b)\n"
        )
        assert rules_in({"src/repro/models/foo.py": source}) == []
