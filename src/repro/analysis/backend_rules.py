"""Kernel-purity rule: R007 (no direct numpy dense algebra in kernels).

:data:`repro.backend.kernels` names every dense contraction the hot
paths run — model scoring and training dots, LightGCN propagation, the
evaluator's and serving's top-K — so a profiler can attribute kernel
time by wrapping those few methods, as the repository benchmark does
(its ``backend.*`` spans).  That attribution only holds if the kernel
modules actually call them: one stray ``np.einsum`` in a scoring path
is time no ``backend.*`` span sees.  R007 bans the numpy dense-algebra
entry points in ``models/``, ``eval/`` and ``serve/``; the backend
package itself is exempt (it *is* the kernel set), and a justified
exception carries an auditable ``# repro: noqa[R007] -- why``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.determinism import build_import_table, resolve_dotted
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import LintContext, ModuleFile, Rule, register

__all__ = ["BackendSeamRule"]

#: Modules whose dense contractions must call ``repro.backend.kernels``.
_KERNEL_PATH_MARKERS = ("/repro/models/", "/repro/eval/", "/repro/serve/")

#: The backend package holds the kernels themselves — exempt.
_SEAM_PATH_MARKER = "/repro/backend/"

#: numpy's dense-algebra entry points: every one has a kernel
#: counterpart (``pair_dot``/``gather_dot``/``gemm_nt``/``matvec``/
#: ``spmm``).  Elementwise numpy (``+``, ``np.maximum``, reductions)
#: stays allowed — the rule covers the *contraction* kernels, where the
#: time goes.
_DENSE_ALGEBRA = frozenset(
    {
        "numpy.einsum",
        "numpy.matmul",
        "numpy.dot",
        "numpy.inner",
        "numpy.vdot",
        "numpy.tensordot",
    }
)


def in_kernel_path(relpath: str) -> bool:
    """True for modules whose dense algebra R007 audits."""
    probe = "/" + relpath
    if _SEAM_PATH_MARKER in probe:
        return False
    return any(marker in probe for marker in _KERNEL_PATH_MARKERS)


@register
class BackendSeamRule(Rule):
    """R007: kernel modules call ``repro.backend.kernels``, not numpy
    contractions.

    Scope is ``repro/models/``, ``repro/eval/`` and ``repro/serve/``.  A
    direct ``np.einsum`` / ``np.matmul`` / ``np.dot`` there computes the
    same numbers but runs outside the named kernels, so per-kernel
    timings (and any future change to a kernel) silently miss it.
    """

    id = "R007"
    title = "dense-kernel-purity"
    invariant = (
        "dense contractions in models/eval/serve call "
        "repro.backend.kernels, never numpy directly"
    )

    def check_file(
        self, module: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        if not in_kernel_path(module.relpath):
            return
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted in _DENSE_ALGEBRA:
                yield self.diagnostic(
                    module.path,
                    node,
                    f"call to {dotted} bypasses repro.backend.kernels",
                    hint="call repro.backend.kernels (pair_dot/gather_dot/"
                    "gemm_nt/matvec/spmm), or justify the exception with "
                    "`# repro: noqa[R007] -- why`",
                )
