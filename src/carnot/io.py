"""File formats: group definitions, subalgebra and morphism files, experiment
configs, CSV emission, and run manifests.

Group-definition files are JSON with exact rationals serialized as num/den
integer pairs (bit-exact round trips); emission is canonical, so identical
structures produce identical bytes.
"""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import GradedAlgebra, validate_table
from .metric import metric_weights

Q = Fraction

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# group definition files
# ---------------------------------------------------------------------------

def group_to_dict(algebra):
    """The group-file object of an algebra, with the metric block the algebra
    was read with (kind and per-layer weights, as metric_weights resolves
    them), if any."""
    brackets = []
    for (i, j) in sorted(algebra.struct):
        terms = [{"k": k + 1, "num": c.numerator, "den": c.denominator}
                 for k, c in sorted(algebra.struct[(i, j)].items())]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    out = {
        "name": algebra.name,
        "dim": algebra.dim,
        "step": algebra.step,
        "layers": list(algebra.layer_of),
        "basis_names": list(algebra.basis_names),
        "brackets": brackets,
    }
    spec = algebra.tags.get("metric_spec")
    if spec is not None:
        out["metric"] = {"kind": spec["kind"], "weights": list(metric_weights(
            algebra.step, spec["kind"], spec.get("weights") or None))}
    return out


def emit_group(algebra):
    """Canonical byte-stable serialization."""
    return json.dumps(group_to_dict(algebra), indent=2,
                      sort_keys=False) + "\n"


def _check_metric_block(spec, step):
    """A group file's optional metric block must pass the rule that
    HomogeneousMetric applies; the ValueError names the field at fault."""
    if not isinstance(spec, dict):
        raise ValueError("metric must be an object with kind and weights")
    try:
        metric_weights(step, spec.get("kind"), spec.get("weights") or None)
    except ValueError as e:
        raise ValueError("metric.%s" % e) from None


_KINDS = {int: "an integer", list: "a list", str: "a string"}


def _field(obj, key, path, kind, lo=None, hi=None):
    """obj[key], which must be a JSON `kind` (int, list or str), an int
    within lo..hi.  A float is refused, not truncated; the ValueError opens
    with the field's path."""
    try:
        v = obj[key]
    except (KeyError, IndexError, TypeError):
        raise ValueError("%s: missing" % path) from None
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError("%s: must be %s, got %r" % (path, _KINDS[kind], v))
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        raise ValueError("%s: must be in %s..%s, got %d" % (path, lo, hi, v))
    return v


def _read_group_fields(data):
    """The schema of a group-definition object, shared by every reader:
    returns (layers, step, entries) with 0-based bracket entries
    (i, j, k, coefficient).  Raises ValueError opening with the field at
    fault, e.g. ``brackets[0].terms[0].num: must be an integer``."""
    if not isinstance(data, dict):
        raise ValueError("group: must be a JSON object")
    dim = _field(data, "dim", "dim", int, lo=0)
    step = _field(data, "step", "step", int)
    raw = _field(data, "layers", "layers", list)
    layers = [_field(raw, n, "layers[%d]" % n, int, lo=1) for n in range(len(raw))]
    if len(layers) != dim:
        raise ValueError("layers: has %d entries, dim is %d" % (len(layers), dim))
    if step != max(layers, default=1):
        raise ValueError("step: is %d, max(layers) is %d" % (step, max(layers, default=1)))
    names = data.get("basis_names") or None
    if names is not None and (not isinstance(names, list) or len(names) != dim):
        raise ValueError("basis_names: must be a list of %d names" % dim)
    if "metric" in data:
        _check_metric_block(data["metric"], step)
    brackets = _field(data, "brackets", "brackets", list) if "brackets" in data else []
    entries = []
    for bn, b in enumerate(brackets):
        path = "brackets[%d]." % bn
        i = _field(b, "i", path + "i", int, 1, dim)
        j = _field(b, "j", path + "j", int, 1, dim)
        if i >= j:
            raise ValueError("%sj: must exceed i = %d (canonical i < j orientation),"
                             " got %d" % (path, i, j))
        for tn, t in enumerate(_field(b, "terms", path + "terms", list)):
            tpath = "%sterms[%d]." % (path, tn)
            k = _field(t, "k", tpath + "k", int, 1, dim)
            num = _field(t, "num", tpath + "num", int)
            den = _field(t, "den", tpath + "den", int)
            if den == 0:
                raise ValueError("%sden: must be nonzero" % tpath)
            entries.append((i - 1, j - 1, k - 1, Q(num, den)))
    return layers, step, entries


def parse_group_dict(data):
    """A GradedAlgebra from a group-definition object.  Schema errors raise
    ValueError naming the field; so does a table that fails validation
    (antisymmetry, grading, Jacobi), which the GradedAlgebra constructor
    runs once."""
    layers, step, entries = _read_group_fields(data)
    struct = {}
    for (i, j, k, c) in entries:
        struct.setdefault((i, j), {})[k] = struct.get((i, j), {}).get(k, Q(0)) + c
    alg = GradedAlgebra(data.get("name", "group"), layers, struct,
                        basis_names=data.get("basis_names") or None)
    if "metric" in data:
        alg.tags["metric_spec"] = data["metric"]
    return alg


def load_group(path):
    with open(path) as f:
        data = json.load(f)
    return parse_group_dict(data)


def validate_group_file(path):
    """Parse + validate; returns (report_or_None, error_string_or_None)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        return None, "parse error at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
    try:
        layers, step, entries = _read_group_fields(data)
    except ValueError as e:
        return None, "schema error: %s" % e
    return validate_table(len(layers), step, layers, entries), None


# ---------------------------------------------------------------------------
# rationals, vectors, subalgebras, morphisms
# ---------------------------------------------------------------------------

def parse_rational(text):
    """An exact rational from "p/q" or a decimal; ValueError if it is not one."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Q(int(num), int(den))
        return Q(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_vector(text, dim=None):
    parts = [p for p in text.split(",") if p.strip() != ""]
    if dim is not None and len(parts) != dim:
        raise ValueError("expected %d coordinates, got %d" % (dim, len(parts)))
    return tuple(parse_rational(p) for p in parts)


def format_rational(q):
    q = Q(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator, q.denominator)


def format_vector(coords):
    return ",".join(format_rational(c) for c in coords)


def _rational_rows(data, key, width=None):
    """data[key], a list of rows of rationals given as strings, as tuples of
    Fractions, each of `width` entries if given.  The ValueError opens with
    the path of the field at fault, e.g. ``vectors[1]: expected 3
    coordinates, got 1``."""
    rows = []
    raw = _field(data, key, key, list)
    for pos in range(len(raw)):
        path = "%s[%d]" % (key, pos)
        row = _field(raw, pos, path, list)
        if width is not None and len(row) != width:
            raise ValueError("%s: expected %d coordinates, got %d" % (path, width, len(row)))
        try:
            rows.append(tuple(parse_rational(str(c)) for c in row))
        except ValueError as e:
            raise ValueError("%s: %s" % (path, e)) from None
    return rows


def load_subalgebra_vectors(path, dim):
    """Subalgebra file: {"vectors": [[...], ...]}, each vector with `dim`
    rational coordinates given as strings.  Schema errors raise ValueError
    naming the field."""
    with open(path) as f:
        data = json.load(f)
    return _rational_rows(data, "vectors", dim)


def load_morphism(path, group_loader):
    """Morphism file: {domain, codomain, matrix} with groups as catalog names
    or paths and rationals as strings.  Schema errors raise ValueError
    naming the field."""
    from .morphism import GradedMorphism
    with open(path) as f:
        data = json.load(f)
    dom = group_loader(_field(data, "domain", "domain", str))
    cod = group_loader(_field(data, "codomain", "codomain", str))
    return GradedMorphism(dom, cod, _rational_rows(data, "matrix"))


# ---------------------------------------------------------------------------
# CSV and manifests
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    """Numeric cells are emitted with 17 significant digits (full float
    round trip)."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for c in row:
                if isinstance(c, float):
                    cells.append("%.17g" % c)
                else:
                    cells.append(str(c))
            f.write(",".join(cells) + "\n")
    return path


def constants_csv(path, constants):
    return write_csv(path, ["label", "nu", "samples", "sup"],
                     [c.csv_row() for c in constants])


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    version: str = "0.1.0"
    outputs: list = field(default_factory=list)

    def add_input(self, path):
        self.inputs[str(path)] = sha256_file(path)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"command": self.command, "inputs": self.inputs,
                       "seed": self.seed, "version": self.version,
                       "outputs": self.outputs, "format": FORMAT_VERSION},
                      f, indent=2, sort_keys=True)
            f.write("\n")
        return path
