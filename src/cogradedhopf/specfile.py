"""Self-describing JSON spec files and the built-in structure registry.

One document describes a structure completely: group (table or named
built-in), mode, components with structure constants, comultiplication
blocks, counit, antipode, optional star, and optionally an action and a
pairing stub. Scalars are strings in the exact formats "a/b" and
"a/b+c/d*i"; every matrix is a row-major list of such strings. A saved file
is its canonical JSON (sorted keys, fixed separators) and a newline, and its
digest is the sha256 of that JSON, so digests are stable across write/read
round trips; any other layout of the same document loads to the same digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

from .algebras import COGRADED, GRADED, ComponentAlgebra, GradedAlgebra
from .cograded import Action
from .exact import GR, Matrix, ZERO
from .groups import (
    GroupAxiomError,
    GroupOracle,
    GroupSelfAction,
    Window,
    cyclic_group,
    finite_group_from_table,
    integers_group,
    s3_group,
)
from .hopf import (
    CogradedBlockDelta,
    ComponentMap,
    DiagonalDelta,
    MhaStructure,
    make_constant_family,
    make_group_algebra,
    make_kg,
    make_ungraded_group_algebra,
)

FORMAT = "cogradedhopf-1"


class SpecFormatError(ValueError):
    """A spec file failed to parse; the message names the offending section."""


# scalars are immutable, so each text (most are "0") is parsed once; errors are not cached
_parse = functools.lru_cache(maxsize=4096)(GR.parse)


def _scalar(s) -> GR:
    if isinstance(s, str):
        try:
            return _parse(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError("bad scalar %r: %s" % (s, exc))
    if type(s) is int:
        return GR(s)
    raise SpecFormatError("bad scalar %r: not a string or an integer" % (s,))


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError("%s is not a list: %r" % (what, value))
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError("%s is not an object: %r" % (what, value))
    return value


def _vector(raw, section: str) -> tuple:
    return tuple(_scalar(x) for x in _list(raw, section))


def _matrix(rows, section: str) -> Matrix:
    try:
        return Matrix.from_rows([_vector(row, "row") for row in _list(rows, "matrix")])
    except ValueError as exc:
        raise SpecFormatError("bad matrix in %s: %s" % (section, exc))


def _shaped(m: Matrix, rows: int, cols: int, what: str) -> Matrix:
    if (m.rows, m.cols) != (rows, cols):
        raise SpecFormatError(
            "%s has shape %dx%d, expected %dx%d" % (what, m.rows, m.cols, rows, cols)
        )
    return m


def _matrix_out(m: Matrix) -> list:
    return [[str(x) for x in row] for row in m.entries]


def _sparse_out(nrows: int, ncols: int, entries) -> list:
    """The dense row-major JSON matrix with the given (row, column, coefficient)
    entries and zeros elsewhere."""
    rows = [["0"] * ncols for _ in range(nrows)]
    for i, j, c in entries:
        rows[i][j] = str(c)
    return rows


def _columns_out(cols: list, nrows: int) -> list:
    """A block given by its sparse columns, as a JSON matrix."""
    return _sparse_out(nrows, len(cols), (
        (i, j, c) for j, col in enumerate(cols) for i, c in col.items()))


def _table_out(table: dict, nrows: int, ncols: int, dq: int) -> list:
    """A product table (i, j) -> {k: coeff}, as the JSON matrix whose column
    i*dq + j is the product of e_i and e_j."""
    return _sparse_out(nrows, ncols, (
        (k, i * dq + j, c) for (i, j), entry in table.items() for k, c in entry.items()))


def _vector_out(v) -> list:
    return [str(x) for x in v]


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spec_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def save_spec(path: str, doc: dict) -> str:
    """Write the canonical text of ``doc`` and a newline; returns its digest."""
    text = canonical_json(doc).encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines((text, b"\n"))
    return hashlib.sha256(text).hexdigest()


def load_spec_file(path: str) -> dict:
    if not os.path.exists(path):
        raise SpecFormatError("no such spec file: %s" % path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError("invalid JSON in %s: %s" % (path, exc))
    if doc.get("format") != FORMAT:
        raise SpecFormatError("unsupported format %r" % doc.get("format"))
    return doc


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def _group_from_doc(doc: dict) -> GroupOracle:
    section = doc.get("group")
    if not isinstance(section, dict):
        raise SpecFormatError("missing group section")
    kind = section.get("kind")
    if kind == "builtin":
        name = section.get("name")
        if name == "integers":
            return integers_group()
        raise SpecFormatError("unknown builtin group %r" % name)
    if kind == "table":
        elements = section.get("elements")
        table = section.get("table")
        if not isinstance(elements, list) or not elements or not isinstance(table, list):
            raise SpecFormatError("table group needs elements and table")
        _index_table(table, len(elements), "group table")
        try:
            return finite_group_from_table(elements, table, name=doc.get("label", ""))
        except GroupAxiomError as exc:
            raise SpecFormatError("group table: %s" % exc)
    raise SpecFormatError("unknown group kind %r" % kind)


def _index_table(table, n: int, what: str) -> list:
    """Check that a table is n x n with entries in range(n)."""
    if (not isinstance(table, list) or len(table) != n
            or any(not isinstance(row, list) or len(row) != n for row in table)):
        raise SpecFormatError("%s must be %dx%d" % (what, n, n))
    for row in table:
        for k in row:
            if type(k) is not int or not 0 <= k < n:
                raise SpecFormatError("%s entry %r is not an index below %d" % (what, k, n))
    return table


def _group_to_doc(g: GroupOracle) -> dict:
    if not g.is_finite:
        return {"kind": "builtin", "name": g.name}
    return {
        "kind": "table",
        "elements": [g.encode(p) for p in g.elements],
        "table": [
            [g.index(g.multiply(p, q)) for q in g.elements] for p in g.elements
        ],
    }


def _section_lookup(section: dict, key: str, what: str):
    if key in section:
        return section[key]
    if "default" in section:
        return section["default"]
    raise SpecFormatError("missing %s entry for %s" % (what, key))


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


@dataclass
class LoadedSpec:
    structure: MhaStructure
    action: Optional[Action]
    pairing_section: Optional[dict]
    window: Optional[Window]
    digest: str
    label: str


def structure_from_doc(doc: dict, window_override: Optional[str] = None) -> LoadedSpec:
    g = _group_from_doc(doc)
    label = doc.get("label", "spec")
    mode = doc.get("mode")
    if mode not in (COGRADED, GRADED):
        raise SpecFormatError("mode must be cograded or graded")

    comp_section = doc.get("components")
    if not isinstance(comp_section, dict):
        raise SpecFormatError("missing components section")

    def component(p):
        entry = _object(_section_lookup(comp_section, g.encode(p), "component"),
                        "component %s" % g.encode(p))
        dim = entry.get("dim")
        if not isinstance(dim, int) or dim <= 0:
            raise SpecFormatError("component %s needs a positive dim" % g.encode(p))
        structure = entry.get("structure")
        unit = entry.get("unit")
        star = entry.get("star")
        if mode == COGRADED:
            if structure is None:
                raise SpecFormatError(
                    "cograded component %s needs structure constants" % g.encode(p)
                )
            section = "components.structure"
            constants = [
                [_vector(row, section) for row in _list(plane, section)]
                for plane in _list(structure, section)
            ]
            if len(constants) != dim:
                raise SpecFormatError(
                    "component %s declares dim %d but its structure constants have dim %d"
                    % (g.encode(p), dim, len(constants))
                )
            return ComponentAlgebra.from_structure_constants(
                constants,
                unit=_vector(unit, "components.unit") if unit else None,
                star=_matrix(star, "components.star") if star else None,
            )
        comp = ComponentAlgebra(dim)
        if star:
            comp.star = _matrix(star, "components.star")
        return comp

    block_fn = None
    unit_components = None
    if mode == GRADED:
        products = doc.get("products")
        if not isinstance(products, dict):
            raise SpecFormatError("graded mode needs a products section")

        def block_fn(p, q):
            key = "%s|%s" % (g.encode(p), g.encode(q))
            raw = _section_lookup(products, key, "product block")
            dq = algebra.dim(q)
            m = _shaped(_matrix(raw, "products"), algebra.dim(g.multiply(p, q)),
                        algebra.dim(p) * dq, "product block %s" % key)
            # column i*dq + j of the block is the product of e_i and e_j
            return {divmod(n, dq): col for n, col in enumerate(m.sparse_columns()) if col}

        unit_section = doc.get("unit_element")
        if unit_section:
            unit_components = {
                g.decode(k): _vector(v, "unit_element")
                for k, v in _object(unit_section, "unit_element").items()
            }

    algebra = GradedAlgebra(
        group=g,
        mode=mode,
        component_fn=component,
        block_fn=block_fn,
        unit_components=unit_components,
        label=label,
    )

    delta_section = doc.get("delta")
    if not isinstance(delta_section, dict):
        raise SpecFormatError("missing delta section")
    if mode == COGRADED:
        def delta_block(p, q):
            key = "%s|%s" % (g.encode(p), g.encode(q))
            raw = _section_lookup(delta_section, key, "delta block")
            return _shaped(
                _matrix(raw, "delta"), algebra.dim(p) * algebra.dim(q),
                algebra.dim(g.multiply(p, q)), "delta block %s" % key,
            ).sparse_columns()

        delta = CogradedBlockDelta(algebra, delta_block)
    else:
        def diag_block(p):
            raw = _section_lookup(delta_section, g.encode(p), "delta block")
            d = algebra.dim(p)
            return _shaped(
                _matrix(raw, "delta"), d * d, d, "delta block %s" % g.encode(p)
            ).sparse_columns()

        delta = DiagonalDelta(algebra, diag_block)

    counit_section = doc.get("counit")
    if not isinstance(counit_section, dict):
        raise SpecFormatError("missing counit section")
    for key in counit_section:
        if key != "default":
            try:
                g.decode(key)
            except (KeyError, ValueError):
                raise SpecFormatError("counit names unknown element %r" % key)

    def counit_fn(p):
        key = g.encode(p)
        if mode == COGRADED and key not in counit_section and "default" not in counit_section:
            # cograded counits vanish off the identity component
            return (ZERO,) * algebra.dim(p)
        return _vector(_section_lookup(counit_section, key, "counit"), "counit")

    antipode_section = doc.get("antipode")
    if not isinstance(antipode_section, dict):
        raise SpecFormatError("missing antipode section")

    def antipode_fn(p):
        raw = _section_lookup(antipode_section, g.encode(p), "antipode")
        return g.invert(p), _shaped(_matrix(raw, "antipode"), algebra.dim(g.invert(p)),
                                    algebra.dim(p), "antipode block %s" % g.encode(p))

    star_section = doc.get("star")
    star = None
    if star_section:
        _object(star_section, "star section")
        def star_fn(p):
            raw = _section_lookup(star_section, g.encode(p), "star")
            target = p if mode == COGRADED else g.invert(p)
            return target, _shaped(_matrix(raw, "star"), algebra.dim(target), algebra.dim(p),
                                   "star block %s" % g.encode(p))

        star = ComponentMap(algebra, algebra, star_fn, antilinear=True, label="*")

    structure = MhaStructure(
        algebra=algebra,
        delta=delta,
        counit_fn=counit_fn,
        antipode=ComponentMap(algebra, algebra, antipode_fn, label="S"),
        star=star,
        label=label,
    )

    window = None
    window_spec = window_override or doc.get("window")
    if not g.is_finite:
        if window_spec is None:
            raise SpecFormatError("infinite group needs a window")
        window = parse_window(g, window_spec)
    else:
        window = Window.full(g)

    action = None
    action_section = doc.get("action")
    if action_section:
        action = _action_from_doc(structure, action_section)

    return LoadedSpec(
        structure=structure,
        action=action,
        pairing_section=doc.get("pairing"),
        window=window,
        digest=spec_digest(doc),
        label=label,
    )


def parse_window(g: GroupOracle, spec) -> Window:
    if isinstance(spec, str) and ".." in spec:
        lo, hi = spec.split("..", 1)
        return Window.integer_range(g, int(lo), int(hi))
    if isinstance(spec, (list, tuple)):
        return Window.of(g, [g.decode(s) for s in spec], label=",".join(map(str, spec)))
    raise SpecFormatError("cannot parse window %r" % (spec,))


def _action_from_doc(structure: MhaStructure, section: dict) -> Action:
    g = structure.group
    rho_spec = _object(section, "action section").get("rho", "trivial")
    if rho_spec == "adjoint":
        from .groups import adjoint_self_action

        rho = adjoint_self_action(g)
    elif rho_spec == "trivial":
        from .groups import trivial_self_action

        rho = trivial_self_action(g)
    elif isinstance(rho_spec, dict) and "table" in rho_spec:
        if not g.is_finite:
            raise SpecFormatError("table self-actions need a finite group")
        table = _index_table(rho_spec["table"], g.order, "rho table")

        def rho_fn(p, q):
            return g.elements[table[g.index(p)][g.index(q)]]

        rho = GroupSelfAction("table", rho_fn)
    else:
        raise SpecFormatError("unknown rho %r" % (rho_spec,))

    blocks = _object(section.get("blocks", {}), "action.blocks")
    default = section.get("default_block")

    def pi_fn(p, q):
        key = "%s|%s" % (g.encode(p), g.encode(q))
        if key in blocks:
            return _matrix(blocks[key], "action.blocks")
        if default is not None:
            return _matrix(default, "action.default_block")
        return Matrix.identity(structure.algebra.dim(q))

    return Action(
        base=structure, rho=rho, pi_fn=pi_fn, label=section.get("label", str(rho_spec))
    )


def structure_to_doc(
    h: MhaStructure,
    label: Optional[str] = None,
    action: Optional[Action] = None,
    pairing_section: Optional[dict] = None,
) -> dict:
    """Serialize a finite structure to its spec document."""
    g = h.group
    if not g.is_finite:
        raise SpecFormatError("only finite structures serialize completely")
    alg = h.algebra
    doc: dict = {
        "format": FORMAT,
        "label": label or h.label,
        "mode": alg.mode,
        "group": _group_to_doc(g),
    }
    comps = {}
    for p in g.elements:
        comp = alg.component(p)
        entry: dict = {"dim": comp.dim}
        if alg.mode == COGRADED:
            d = comp.dim
            flat = _sparse_out(d * d, d, (  # row i*d + j holds the product of e_i and e_j
                (i * d + j, k, c) for (i, j), e in comp.products.items() for k, c in e.items()))
            entry["structure"] = [flat[i * d:(i + 1) * d] for i in range(d)]
            if comp.unit is not None:
                entry["unit"] = _vector_out(comp.unit)
        if comp.star is not None:
            entry["star"] = _matrix_out(comp.star)
        comps[g.encode(p)] = entry
    doc["components"] = comps

    if alg.mode == GRADED:
        doc["products"] = {
            "%s|%s" % (g.encode(p), g.encode(q)): _table_out(
                alg.product_block_sparse(p, q), alg.dim(alg.product_target(p, q)),
                alg.dim(p) * alg.dim(q), alg.dim(q))
            for p in g.elements
            for q in g.elements
        }
        unit = alg.unit_components or {}
        doc["unit_element"] = {g.encode(p): _vector_out(v) for p, v in unit.items()}
        doc["delta"] = {
            g.encode(p): _columns_out(h.delta.block_cols(p, p), alg.dim(p) ** 2)
            for p in g.elements
        }
    else:
        doc["delta"] = {
            "%s|%s" % (g.encode(p), g.encode(q)): _columns_out(
                h.delta.block_cols(p, q), alg.dim(p) * alg.dim(q))
            for p in g.elements
            for q in g.elements
        }

    doc["counit"] = {
        g.encode(p): _vector_out(h.counit_covector(p)) for p in g.elements
    }
    antipode = {}
    for p in g.elements:
        target, m = h.antipode.fn(p)
        if target != g.invert(p):
            raise SpecFormatError("nonstandard antipode typing cannot serialize")
        antipode[g.encode(p)] = _matrix_out(m)
    doc["antipode"] = antipode
    if h.star is not None:
        star = {}
        for p in g.elements:
            target, m = h.star.fn(p)
            expected = p if alg.mode == COGRADED else g.invert(p)
            if target != expected:
                raise SpecFormatError("nonstandard star typing cannot serialize")
            star[g.encode(p)] = _matrix_out(m)
        doc["star"] = star
    if action is not None:
        doc["action"] = _action_to_doc(action)
    if pairing_section is not None:
        doc["pairing"] = pairing_section
    return doc


def _action_to_doc(action: Action) -> dict:
    g = action.base.group
    return {
        "rho": action.rho.name
        if action.rho.name in ("adjoint", "trivial")
        else {
            "table": [
                [g.index(action.rho.apply(p, q)) for q in g.elements]
                for p in g.elements
            ]
        },
        "blocks": {
            "%s|%s" % (g.encode(p), g.encode(q)): _matrix_out(action.block(p, q))
            for p in g.elements
            for q in g.elements
        },
        "label": action.label,
    }


def pairing_to_section(pairing, partner_label: str) -> dict:
    g = pairing.group
    return {
        "partner": partner_label,
        "forms": {
            g.encode(p): _matrix_out(pairing.form(p)) for p in g.elements
        },
    }


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


def builtin_structure(name: str, window_override: Optional[str] = None) -> LoadedSpec:
    """The named stock structures used by the verification pipelines."""
    key = name.lower()
    if key == "kg-s3":
        h = make_kg(s3_group())
    elif key == "kg-z2":
        h = make_kg(cyclic_group(2))
    elif key == "kg-z3":
        h = make_kg(cyclic_group(3))
    elif key == "kg-integers":
        h = make_kg(integers_group())
    elif key == "group-algebra-s3":
        h = make_group_algebra(s3_group())
    elif key == "constant-cz2-s3":
        h = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())
    else:
        raise SpecFormatError("unknown builtin %r" % name)
    g = h.group
    if g.is_finite:
        window = Window.full(g)
        digest = spec_digest(structure_to_doc(h))
    else:
        spec = window_override or "-5..5"
        window = parse_window(g, spec)
        digest = spec_digest({"builtin": key, "window": window.label})
    return LoadedSpec(
        structure=h, action=None, pairing_section=None, window=window,
        digest=digest, label=key,
    )


def builtin_pairing(name: str):
    """Named pairings: returns (pairing, label)."""
    from .double import make_group_function_pairing, reduced_dual

    key = name.lower()
    if key == "pairing-gacs3":
        return make_group_function_pairing(s3_group()), key
    if key == "pairing-dual-cz2-s3":
        b = make_constant_family(make_ungraded_group_algebra(cyclic_group(2)), s3_group())
        rd = reduced_dual(b)
        return rd.pairing, key
    raise SpecFormatError("unknown builtin pairing %r" % name)


def load_structure(target: str, window_override: Optional[str] = None) -> LoadedSpec:
    """Resolve "builtin:<name>" or a file path to a loaded structure."""
    if target.startswith("builtin:"):
        return builtin_structure(target.split(":", 1)[1], window_override)
    doc = load_spec_file(target)
    return structure_from_doc(doc, window_override)
