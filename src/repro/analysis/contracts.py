"""Contract rules: R003 (run-key coverage) and R004 (sampler contract).

These are *project* rules: they cross-check declarations that live in
different files — dataclass fields against the run-key serializer's
coverage manifest, registry entries against class bodies and the
RNG-parity test file — so a contract-breaking diff fails lint even when
each individual file looks locally fine.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import LintContext, ModuleFile, Rule, register

__all__ = ["RunKeyCoverageRule", "SamplerContractRule"]


# ---------------------------------------------------------------------- #
# Shared AST helpers
# ---------------------------------------------------------------------- #


def find_module(
    modules: Sequence[ModuleFile], suffix: str
) -> Optional[ModuleFile]:
    """The scanned module whose posix path ends with *suffix* (or None)."""
    for module in modules:
        if module.relpath.endswith(suffix):
            return module
    return None


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, int]]:
    """``(name, lineno)`` of each dataclass field (ClassVar excluded)."""
    fields: List[Tuple[str, int]] = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = stmt.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else None
        names = [
            getattr(expr, "id", getattr(expr, "attr", None))
            for expr in (annotation, base)
            if expr is not None
        ]
        if "ClassVar" in names:
            continue
        fields.append((stmt.target.id, stmt.lineno))
    return fields


def module_tuple_assignment(
    tree: ast.Module, name: str
) -> Optional[Tuple[List[str], int]]:
    """Resolve a module-level ``NAME = ("a", "b", ...)`` string tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
            value = node.value
        else:
            continue
        if name not in targets or value is None:
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            items = [
                element.value
                for element in value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
            return items, node.lineno
    return None


# ---------------------------------------------------------------------- #
# R003 — run-key coverage
# ---------------------------------------------------------------------- #

_CONFIG_SUFFIX = "experiments/config.py"
_REQUEST_SUFFIX = "experiments/engine/request.py"


@register
class RunKeyCoverageRule(Rule):
    """R003: every ``RunSpec``/``EngineRequest`` field is folded into
    ``run_key``.

    The content-addressed cache serves a stored payload whenever the key
    matches; a dataclass field that does not participate in the key means
    two *different* runs share one address — a stale-cache incident that
    no test notices until results disagree.  ``request.py`` declares its
    coverage in ``KEYED_SPEC_FIELDS``/``KEYED_REQUEST_FIELDS`` (and
    enforces them against the live dataclasses at import time); this rule
    pins the declarations to the dataclass definitions and to the
    serializer body, so adding a field without folding it into the key is
    a lint error on the new field's own line.
    """

    id = "R003"
    title = "run-key-coverage"
    invariant = (
        "every RunSpec/EngineRequest field participates in run_key; new "
        "fields cannot silently alias cached payloads"
    )

    def check_project(
        self, modules: Sequence[ModuleFile], context: LintContext
    ) -> Iterator[Diagnostic]:
        config = find_module(modules, _CONFIG_SUFFIX)
        request = find_module(modules, _REQUEST_SUFFIX)
        if config is None or request is None:
            # Partial scans (single files, fixtures) cannot check the
            # cross-file contract; the full-tree CI run always can.
            return
        yield from self._check_dataclass(
            config, request, "RunSpec", "KEYED_SPEC_FIELDS"
        )
        yield from self._check_dataclass(
            request, request, "EngineRequest", "KEYED_REQUEST_FIELDS"
        )
        yield from self._check_serializer(request)

    def _check_dataclass(
        self,
        holder: ModuleFile,
        request: ModuleFile,
        class_name: str,
        manifest_name: str,
    ) -> Iterator[Diagnostic]:
        cls = find_class(holder.tree, class_name)
        if cls is None:
            yield self.diagnostic(
                holder.path,
                1,
                f"expected dataclass {class_name} in this module (run-key "
                "coverage cannot be checked)",
            )
            return
        manifest = module_tuple_assignment(request.tree, manifest_name)
        if manifest is None:
            yield self.diagnostic(
                request.path,
                1,
                f"missing {manifest_name} string-tuple declaration (the "
                f"run-key coverage manifest for {class_name})",
                hint=f"declare {manifest_name} = (<every {class_name} "
                "field>, ...) next to canonical_payload",
            )
            return
        declared, manifest_line = manifest
        declared_set = set(declared)
        fields = dataclass_fields(cls)
        for name, lineno in fields:
            if name not in declared_set:
                yield self.diagnostic(
                    holder.path,
                    lineno,
                    f"{class_name} field {name!r} is not declared in "
                    f"{manifest_name} — it would not participate in "
                    "run_key and cached payloads would alias",
                    hint=f"fold {name!r} into canonical_payload and add it "
                    f"to {manifest_name} in {request.path}",
                )
        field_names = {name for name, _ in fields}
        for name in declared:
            if name not in field_names:
                yield self.diagnostic(
                    request.path,
                    manifest_line,
                    f"{manifest_name} lists {name!r} which is not a "
                    f"{class_name} field (stale manifest entry)",
                    hint=f"remove {name!r} from {manifest_name}",
                )

    def _check_serializer(self, request: ModuleFile) -> Iterator[Diagnostic]:
        serializer = None
        for node in request.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "canonical_payload":
                serializer = node
                break
        if serializer is None:
            yield self.diagnostic(
                request.path,
                1,
                "missing canonical_payload(request) serializer function",
            )
            return
        calls_asdict = any(
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "asdict")
                or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "asdict"
                )
            )
            for node in ast.walk(serializer)
        )
        # Iterating the manifest is as structural as asdict: the checks
        # above pin KEYED_SPEC_FIELDS to RunSpec's fields.
        reads_manifest = any(
            isinstance(node, ast.comprehension)
            and isinstance(node.iter, ast.Name)
            and node.iter.id == "KEYED_SPEC_FIELDS"
            for node in ast.walk(serializer)
        )
        if not (calls_asdict or reads_manifest):
            yield self.diagnostic(
                request.path,
                serializer,
                "canonical_payload neither calls dataclasses.asdict on the "
                "spec nor reads it through KEYED_SPEC_FIELDS — spec fields "
                "would need manual (and forgettable) enumeration",
                hint="serialize the spec via asdict(request.spec) or {name: "
                "getattr(request.spec, name) for name in KEYED_SPEC_FIELDS} "
                "so new RunSpec fields flow into the key structurally",
            )
        payload_keys: Set[str] = set()
        for node in ast.walk(serializer):
            if isinstance(node, ast.Dict):
                payload_keys.update(
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
        manifest = module_tuple_assignment(
            request.tree, "KEYED_REQUEST_FIELDS"
        )
        if manifest is None:
            return  # already reported by _check_dataclass
        declared, _ = manifest
        for name in declared:
            if name not in payload_keys:
                yield self.diagnostic(
                    request.path,
                    serializer,
                    f"KEYED_REQUEST_FIELDS entry {name!r} never appears as "
                    "a payload key in canonical_payload — the manifest "
                    "claims coverage the serializer does not provide",
                    hint=f"emit {name!r} (or its resolved form) into the "
                    "canonical payload dict",
                )


# ---------------------------------------------------------------------- #
# R004 — sampler contract
# ---------------------------------------------------------------------- #

_VARIANTS_SUFFIX = "samplers/variants.py"
_SAMPLERS_MARKER = "/samplers/"
_BASE_CLASS = "NegativeSampler"
_PARITY_TEST = Path("tests") / "property" / "test_property_sampler_batch.py"


class _ClassInfo:
    """What R004 needs to know about one class definition."""

    def __init__(self, node: ast.ClassDef, module: ModuleFile) -> None:
        self.name = node.name
        self.module = module
        self.lineno = node.lineno
        self.col = node.col_offset
        self.bases = [
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        ]
        self.defined: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                self.defined.update(
                    target.id
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.defined.add(stmt.target.id)


@register
class SamplerContractRule(Rule):
    """R004: registered samplers implement the batched contract and carry
    RNG-parity coverage.

    Every sampler reachable from the registry must (a) define
    ``score_request`` — the trainer's dispatch key — and ``sample_batch``
    — the vectorized path whose bit-for-bit parity with the scalar path
    is the pipeline's central invariant — and (b) have its registry name
    listed in ``tests/property/test_property_sampler_batch.py`` so the
    parity property actually runs against it.  A sampler that genuinely
    has no profitable vectorization (PNS's rejection loop) opts out with
    a justified ``# repro: noqa[R004]`` on its class line, keeping the
    exception auditable.
    """

    id = "R004"
    title = "sampler-contract"
    invariant = (
        "every registered sampler defines score_request + sample_batch "
        "and is covered by the RNG-parity property test"
    )

    def check_project(
        self, modules: Sequence[ModuleFile], context: LintContext
    ) -> Iterator[Diagnostic]:
        variants = find_module(modules, _VARIANTS_SUFFIX)
        classes = self._collect_classes(modules)
        if _BASE_CLASS in classes:
            yield from self._check_class_contracts(classes)
        if variants is not None:
            yield from self._check_parity_coverage(variants, context)

    # -- class contracts ------------------------------------------------ #

    def _collect_classes(
        self, modules: Sequence[ModuleFile]
    ) -> Dict[str, _ClassInfo]:
        classes: Dict[str, _ClassInfo] = {}
        for module in modules:
            if _SAMPLERS_MARKER not in "/" + module.relpath:
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = _ClassInfo(node, module)
        return classes

    def _sampler_subclasses(
        self, classes: Dict[str, _ClassInfo]
    ) -> List[_ClassInfo]:
        """Transitive in-package subclasses of ``NegativeSampler``."""
        family: Set[str] = {_BASE_CLASS}
        changed = True
        while changed:
            changed = False
            for info in classes.values():
                if info.name in family:
                    continue
                if any(base in family for base in info.bases):
                    family.add(info.name)
                    changed = True
        return [
            classes[name]
            for name in sorted(family)
            if name != _BASE_CLASS and name in classes
        ]

    def _inherited_definitions(
        self, info: _ClassInfo, classes: Dict[str, _ClassInfo]
    ) -> Set[str]:
        """Names defined by the class or in-package ancestors (base excluded).

        The abstract base's fallback ``sample_batch`` deliberately does
        not count: the contract is that concrete samplers own their
        batched path (or justify not having one).
        """
        defined: Set[str] = set()
        stack = [info.name]
        seen: Set[str] = set()
        while stack:
            name = stack.pop()
            if name in seen or name == _BASE_CLASS or name not in classes:
                continue
            seen.add(name)
            defined |= classes[name].defined
            stack.extend(classes[name].bases)
        return defined

    def _check_class_contracts(
        self, classes: Dict[str, _ClassInfo]
    ) -> Iterator[Diagnostic]:
        for info in self._sampler_subclasses(classes):
            defined = self._inherited_definitions(info, classes)
            if "sample_for_user" not in defined:
                continue  # abstract intermediate: not a concrete sampler
            for required, why in (
                (
                    "score_request",
                    "the trainer cannot know what score data to provide",
                ),
                (
                    "sample_batch",
                    "the batched pipeline would fall back to the scalar "
                    "path silently",
                ),
            ):
                if required not in defined:
                    yield self.diagnostic(
                        info.module.path,
                        info.lineno,
                        f"sampler class {info.name} does not define "
                        f"{required!r}: {why}",
                        hint="implement it (keeping the RNG-parity "
                        "contract), or suppress with `# repro: "
                        "noqa[R004] -- <why the fallback is correct>`",
                    )

    # -- parity-test coverage ------------------------------------------- #

    def _registry_names(
        self, variants: ModuleFile
    ) -> List[Tuple[str, int]]:
        for node in variants.tree.body:
            if isinstance(node, ast.Assign):
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                targets = [node.target.id]
                value = node.value
            else:
                continue
            if "_FACTORIES" not in targets:
                continue
            if isinstance(value, ast.Dict):
                return [
                    (key.value, key.lineno)
                    for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ]
        return []

    def _check_parity_coverage(
        self, variants: ModuleFile, context: LintContext
    ) -> Iterator[Diagnostic]:
        names = self._registry_names(variants)
        if not names:
            yield self.diagnostic(
                variants.path,
                1,
                "could not locate the _FACTORIES sampler registry dict",
            )
            return
        parity_path = context.root / _PARITY_TEST
        if not parity_path.is_file():
            # Linting outside a repo checkout (e.g. an installed package):
            # the class contract above still applies, coverage cannot.
            return
        try:
            parity_tree = ast.parse(parity_path.read_text())
        except SyntaxError:
            yield self.diagnostic(
                variants.path,
                1,
                f"RNG-parity test file {parity_path} does not parse",
            )
            return
        covered = {
            node.value
            for node in ast.walk(parity_tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for name, lineno in names:
            if name not in covered:
                yield self.diagnostic(
                    variants.path,
                    lineno,
                    f"registered sampler {name!r} has no RNG-parity "
                    f"coverage in {_PARITY_TEST.as_posix()}",
                    hint="add the registry name to that test's REGISTRY "
                    "list so the scalar/batched parity property runs "
                    "against it",
                )
