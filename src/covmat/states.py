"""State constructors: the 3x3 bound entangled tiles state, maximally
entangled states, products, isotropic states, convex mixtures and seeded
random ensembles, plus the text/file vocabulary the CLI accepts.
`mix` and the random generators also build stacks of states: a mixture
for each of several weights, an ensemble member for each of several seeds.
"""
from __future__ import annotations

import json
import math
import re
from functools import reduce

import numpy as np

from .linalg import DensityMatrix, InvalidStateError


def ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of complex vectors along the last axis, in the same
    arithmetic as `np.linalg.norm` of one vector."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for each vector along the last axis."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors along the last axis."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (-1,))


def dm_from_vector(psi: np.ndarray, dims) -> DensityMatrix:
    """|psi><psi| of a unit vector, or of each vector of a (*batch, D) stack."""
    psi = np.asarray(psi, dtype=complex)
    err = np.abs(_norm(psi) - 1.0).max()
    if err > 1e-10:
        raise InvalidStateError(f"state vector norm differs from 1 by {err:.3e}")
    return DensityMatrix(tuple(dims), _projector(psi))


def bennett_state() -> DensityMatrix:
    """Rank-4 bound entangled two-qutrit state built from five tile vectors.

    rho = (I_9 - sum_i |xi_i><xi_i|) / 4 with the tiles spanning a
    5-dimensional subspace; rho is PPT yet entangled.
    """
    e = np.eye(3, dtype=complex)
    s = (e[0] + e[1] + e[2]) / np.sqrt(3)
    lo, hi = (e[0] - e[1]) / np.sqrt(2), (e[1] - e[2]) / np.sqrt(2)
    tiles = _kron(np.array([e[0], lo, e[2], hi, s]), np.array([lo, e[2], hi, e[0], s]))
    proj = _projector(tiles).sum(axis=0)
    return DensityMatrix((3, 3), (np.eye(9) - proj) / 4)


def max_entangled(d: int) -> DensityMatrix:
    """(1/sqrt(d)) sum_i |ii> as a density matrix."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return dm_from_vector(np.eye(d).ravel() / np.sqrt(d), (d, d))


def product_state(locals_: list[DensityMatrix]) -> DensityMatrix:
    """Tensor product of single-party states."""
    mats = [r.mat for r in locals_]
    dims = tuple(d for r in locals_ for d in r.dims)
    return DensityMatrix(dims, reduce(np.kron, mats))


def isotropic(d: int, x: float) -> DensityMatrix:
    """x * MES_d + (1 - x) * I / d^2."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {x}")
    mes = max_entangled(d)
    return DensityMatrix((d, d), x * mes.mat + (1 - x) * np.eye(d * d) / (d * d))


def mix(a: DensityMatrix, b: DensityMatrix, x) -> DensityMatrix:
    """(1 - x) * a + x * b; for an array of weights x, the stack of these
    mixtures, one per weight."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    x = np.asarray(x, dtype=float)[..., None, None]
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"mixing parameter must be in [0, 1], got {x[outside][0]}")
    return DensityMatrix(a.dims, (1 - x) * a.mat + x * b.mat)


def _seeds(seed) -> list:
    """One seed, or each of a sequence of seeds."""
    return [seed] if np.ndim(seed) == 0 else list(seed)


def _member(seed, stack: np.ndarray) -> np.ndarray:
    """The stack itself for a sequence of seeds, its only member for one seed."""
    return stack if np.ndim(seed) else stack[0]


def random_pure(dims, seed) -> DensityMatrix:
    """Haar-random pure state via a normalized complex Gaussian vector.

    Given a sequence of seeds, the stack of the states of each seed."""
    D = int(np.prod(dims))
    draws = np.array([np.random.default_rng(s).standard_normal(2 * D) for s in _seeds(seed)])
    psi = draws[:, :D] + 1j * draws[:, D:]
    return dm_from_vector(_member(seed, psi / _norm(psi)[:, None]), tuple(dims))


def random_mixed(dims, seed, rank: int | None = None) -> DensityMatrix:
    """Random mixed state rho = G G^dag / Tr(...) with Gaussian G."""
    rng = np.random.default_rng(seed)
    D = int(np.prod(dims))
    r = rank or D
    g = rng.standard_normal((D, r)) + 1j * rng.standard_normal((D, r))
    m = g @ g.conj().T
    return DensityMatrix(tuple(dims), m / np.trace(m).real)


def random_separable(dims, terms: int, seed) -> DensityMatrix:
    """Convex mixture of `terms` random pure product states.

    Local factors are Haar-random pure states, weights Dirichlet-uniform;
    fully reproducible from the seed.  Given a sequence of seeds, the
    stack of the states of each seed.
    """
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    dims = tuple(int(d) for d in dims)
    D = int(np.prod(dims))
    draws, normals = [], []
    for s in _seeds(seed):
        # the weights, then per term and party the real and imaginary parts
        rng = np.random.default_rng(s)
        draws.append(rng.standard_exponential(terms))
        normals.append(rng.standard_normal(2 * terms * sum(dims)))
    draws, normals = np.array(draws), np.array(normals).reshape(-1, terms, 2 * sum(dims))
    # Dirichlet(1, ..., 1) weights as `Generator.dirichlet` makes them: the
    # exponential draws summed one at a time, times the reciprocal sum
    total = np.zeros(len(draws))
    for t in range(terms):
        total += draws[:, t]
    weights = draws * (1 / total)[:, None]
    parts = np.split(normals, np.cumsum([2 * d for d in dims])[:-1], axis=-1)
    factors = (p[..., :d] + 1j * p[..., d:] for p, d in zip(parts, dims))
    psi = reduce(_kron, (v / _norm(v)[..., None] for v in factors))
    acc = np.zeros((len(weights), D, D), dtype=complex)
    for t in range(terms):
        acc += weights[:, t, None, None] * _projector(psi[:, t])
    return DensityMatrix(dims, _member(seed, acc))


FILE_FORM = '{"dims": [d1, d2, ...], "matrix": [[[re, im], ...], ...]}'

# A state file is read in blocks of this many bytes, so that loading it
# holds the matrix and a few blocks, never the whole file.
READ_BLOCK = 64 * 1024
# The "matrix" key, not inside a string (no backslash before it), and the
# characters its array may hold besides brackets and commas: JSON
# whitespace and those of numbers, NaN and Infinity.
_MATRIX_KEY = re.compile(rb'(?<!\\)"matrix"\s*:\s*(?=\[)')
_NUMBER_CHARS = b"0123456789.eE+-NaInfity \t\n\r"
# what of a "matrix" key the end of a block can cut off
_KEY_SO_FAR = re.compile(rb'"matrix"\s*(?::\s*)?')
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# numpy reads an entry of whitespace alone as -1
_EMPTY_ENTRY = re.compile(rb"(?:^|,)[ \t\n\r]*(?:,|$)")


def _skeleton(D: int) -> bytes:
    """The brackets and commas of a (D, D, 2) JSON array."""
    row = b"[" + b",".join([b"[,]"] * D) + b"]"
    return b"[" + b",".join([row] * D) + b"]"


def _find_matrix(fh) -> tuple[bytes, int, int, bytes | None]:
    """Scan a state file for its "matrix" array, one block at a time.

    Returns the file with the array replaced by `null`, the offsets of the
    array's first and past its last byte, and the file itself when it was
    read whole: when one block holds it, or when it is a pipe, which cannot
    be read twice.  The array ends at its last "]" before the next key or
    the "}" that closes the object; any other character in it is left to
    the skeleton check."""
    seekable = fh.seekable()
    head = fh.read(READ_BLOCK if seekable else -1)  # up to the end of the block with the key
    eof = not seekable or len(head) < READ_BLOCK
    key = _MATRIX_KEY.search(head)
    if key is None and not eof:
        head = bytearray(head)
    while key is None and not eof:
        block = fh.read(READ_BLOCK)
        eof = len(block) < READ_BLOCK
        cut = len(head)
        head += block
        # a key that the previous block ended in starts at its last "matrix"
        last = head.rfind(b'"matrix"', 0, cut)
        resume = last if last >= 0 and _KEY_SO_FAR.fullmatch(head, last, cut) else cut - 7
        key = _MATRIX_KEY.search(head, max(0, resume))
    if key is None:
        raise ValueError('no "matrix" array')
    start = key.end()
    data, pos, offset, close = head, start, 0, -1
    while True:
        quote, brace = data.find(b'"', pos), data.find(b"}", pos)
        stop = min(quote, brace) if quote >= 0 and brace >= 0 else max(quote, brace)
        found = data.rfind(b"]", pos, len(data) if stop < 0 else stop)
        if found >= 0:
            close = offset + found
        if stop >= 0 or eof:
            break
        offset += len(data)
        data, pos = fh.read(READ_BLOCK), 0
        eof = len(data) < READ_BLOCK
    if close < 0:
        raise ValueError('the "matrix" array is not closed')
    end = close + 1
    if eof and data is head:
        return bytes(head[:start]) + b"null" + head[end:], start, end, bytes(head)
    fh.seek(end)
    return bytes(head[:start]) + b"null" + fh.read(), start, end, None


def _blocks(fh, start: int, end: int):
    """The bytes from offset `start` to `end` of a file, a block at a time,
    each with whether it is the last."""
    fh.seek(start)
    left = end - start
    while left > 0:
        block = fh.read(min(READ_BLOCK, left))
        left = left - len(block) if block else 0  # a file cut short ends here
        yield block, left == 0


def _parse_matrix(blocks, D: int) -> np.ndarray:
    """The 2 D^2 numbers of a (D, D, 2) JSON array, read into one float
    array.  Each block, cut after its last comma, has its brackets and
    commas checked against the skeleton and its numbers read by numpy."""
    skeleton = _skeleton(D)
    parts = np.empty(2 * D * D)
    pending, matched, done = [], 0, 0  # pending: what follows the last comma read
    for block, last in blocks:
        cut = len(block) if last else block.rfind(b",") + 1
        if not cut:
            pending.append(block)
            continue
        piece = b"".join([*pending, block[:cut]])
        pending = [block[cut:]]
        bones = piece.translate(None, _NUMBER_CHARS)
        if bones != skeleton[matched:matched + len(bones)]:
            raise ValueError(f"matrix is not a ({D}, {D}, 2) array")
        matched += len(bones)
        piece = piece.translate(_BRACKETS_TO_SPACES)
        values = np.fromstring(piece, sep=",")
        count = bones.count(b",") + last  # the entries this piece holds
        if values.size != count:
            raise ValueError("matrix has an entry that is not one number")
        if (values == -1).any() and _EMPTY_ENTRY.search(piece):
            raise ValueError("matrix has an empty entry")
        parts[done:done + count] = values
        done += count
    if matched != len(skeleton):
        raise ValueError(f"matrix is not a ({D}, {D}, 2) array")
    return parts


def load_state(path) -> DensityMatrix:
    """Load a state from a JSON file of the form FILE_FORM: the D x D
    matrix, D = d1 * d2 * ..., with each entry an [re, im] pair, and each
    dimension a JSON integer (2.0, "2" and true are errors).

    The one "matrix" key holds numbers only, read as decimals by numpy:
    besides JSON numbers and the NaN/Infinity that `json.dumps` writes,
    spellings such as `.5`, `+1` and `01` read as their values.  The file
    is read in blocks of READ_BLOCK bytes and its numbers go straight into
    the matrix, with no Python object per number, so loading holds the
    matrix and a few blocks, whatever the file's size or layout."""
    with open(path, "rb") as fh:
        try:
            outside, start, end, whole = _find_matrix(fh)
            keys = []
            data = json.loads(outside, object_pairs_hook=lambda pairs:
                              keys.extend(k for k, _ in pairs) or dict(pairs))
            if not isinstance(data, dict) or keys.count("matrix") != 1 or "matrix" not in data:
                raise ValueError('"matrix" must be the only key of that name, at the top level')
            dims = data["dims"]
            if not isinstance(dims, list) or any(type(d) is not int for d in dims):
                raise ValueError(f'"dims" must be a list of integers, got {dims!r}')
            dims = tuple(dims)
            D = math.prod(dims)
            # the skeleton plus at least one character per number
            if end - start < 6 * D * D + 2 * D + 1:
                raise ValueError(f"matrix is not a ({D}, {D}, 2) array")
            blocks = [(whole[start:end], True)] if whole else _blocks(fh, start, end)
            parts = _parse_matrix(blocks, D)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidStateError(
                f"bad state file {path} ({exc!r}), expected {FILE_FORM}") from None
    return DensityMatrix(dims, parts.view(complex).reshape(D, D))


def save_state(rho: DensityMatrix, path) -> None:
    """Write `rho` in the form `load_state` reads, one row at a time: the
    bytes `json.dumps` gives for the whole nested list, without making it."""
    with open(path, "w") as fh:
        fh.write(f'{{"dims": {json.dumps(list(rho.dims))}, "matrix": [')
        for k, row in enumerate(rho.mat):
            fh.write((", " if k else "") + json.dumps(np.stack([row.real, row.imag], -1).tolist()))
        fh.write("]}")


def parse_dims(text: str, sep: str = "x") -> tuple[int, ...]:
    """'3x3' -> (3, 3); every dimension is an integer of at least 2, checked
    before anything is built from them."""
    try:
        dims = tuple(int(p) for p in text.split(sep))
    except ValueError:
        raise ValueError(f"bad dimension list {text!r}, expected e.g. '3{sep}3'") from None
    if min(dims) < 2:
        raise ValueError(f"bad dimension list {text!r}: every dimension must be at least 2")
    return dims


def _product(dims: str) -> DensityMatrix:
    return product_state([dm_from_vector(ket(d, 0), (d,)) for d in parse_dims(dims, ",")])


# head -> (grammar, constructor taking the colon-separated fields)
_LEAVES = {
    "mes": ("mes:<d>", lambda d: max_entangled(int(d))),
    "isotropic": ("isotropic:<d>:<x>", lambda d, x: isotropic(int(d), float(x))),
    "product": ("product:<d1>,<d2>[,...]", _product),
    "random_pure": ("random_pure:<d1>x<d2>[x...]:<seed>",
                    lambda dims, seed: random_pure(parse_dims(dims), int(seed))),
    "random_separable": ("random_separable:<dims>:<terms>:<seed>",
                         lambda dims, terms, seed: random_separable(
                             parse_dims(dims), int(terms), int(seed))),
}
_MIX_FORM = "mix:<x>:<specA>+<specB>"


def _leaf(spec: str) -> DensityMatrix:
    if spec == "bennett3x3":
        return bennett_state()
    head, _, rest = spec.partition(":")
    if head == "file":
        return load_state(rest)
    if head not in _LEAVES:
        raise ValueError(f"unknown state spec {spec!r}")
    form, build = _LEAVES[head]
    fields = rest.split(":")
    if len(fields) != form.count(":"):
        raise ValueError(f"bad state spec {spec!r}, expected {form}")
    try:
        return build(*fields)
    except ValueError as exc:
        raise ValueError(f"bad state spec {spec!r} ({exc}), expected {form}") from None


def _operand(spec: str, chunks: list[str]) -> DensityMatrix:
    """Consume one operand from the '+'-separated chunks of a mix spec.

    A chunk `mix:<x>:<rest>` opens a mixture whose first operand starts
    with <rest>; every mixture then takes exactly two operands, so nested
    mixtures pair up whichever side they are on."""
    if not chunks:
        raise ValueError(f"bad state spec {spec!r}: a mixture is missing its second "
                         f"operand, expected {_MIX_FORM}")
    head = chunks.pop(0)
    if not head:
        raise ValueError(f"bad state spec {spec!r}: empty operand, expected {_MIX_FORM}")
    if not head.startswith("mix:"):
        return _leaf(head)
    parts = head.split(":", 2)
    if len(parts) != 3:
        raise ValueError(f"bad state spec {spec!r}, expected {_MIX_FORM}")
    try:
        x = float(parts[1])
    except ValueError:
        raise ValueError(f"bad mixing weight {parts[1]!r} in {spec!r}") from None
    chunks.insert(0, parts[2])
    a = _operand(spec, chunks)
    return mix(a, _operand(spec, chunks), x)


def build_state(spec: str) -> DensityMatrix:
    """Resolve a textual state description.

    Grammar (colon-separated fields):
      bennett3x3
      mes:<d>
      isotropic:<d>:<x>
      product:<d1>,<d2>[,...]            computational |0...0>
      random_pure:<d1>x<d2>[x...]:<seed>
      random_separable:<dims>:<terms>:<seed>
      mix:<x>:<specA>+<specB>            (1-x)*A + x*B; an operand may be a
                                         mix itself: mix:x:mix:y:A+B+C is
                                         mix(x, mix(y, A, B), C)
      file:<path>
    """
    spec = spec.strip()
    if not spec.startswith("mix:"):
        return _leaf(spec)
    chunks = spec.split("+")
    rho = _operand(spec, chunks)
    if chunks:
        raise ValueError(f"bad state spec {spec!r}: {'+'.join(chunks)!r} left over after "
                         f"the mixture, expected {_MIX_FORM}")
    return rho
