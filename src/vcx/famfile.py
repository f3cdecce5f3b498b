"""Read and write the .fam text format.

Line 1 is "n k" with 1 <= k <= n. Every later non-blank line holds one
member: k strictly increasing integers in 1..n separated by whitespace. An
empty member would be a blank line, so k = 0 has no .fam form. Lines whose
first non-blank character is '#' are comments. Errors carry 1-based line
numbers.
"""

from .bitwords import elements_text, mask_of
from .errors import UsageError
from .families import MAX_GROUND_SET, UniformFamily


def parse_family(text: str, source: str = "<string>") -> UniformFamily:
    n = k = None
    masks = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise UsageError(f"{source}:{lineno}: header must be 'n k', got {raw!r}")
            try:
                n, k = int(fields[0]), int(fields[1])
            except ValueError:
                raise UsageError(f"{source}:{lineno}: header must be two integers") from None
            if not 1 <= n <= MAX_GROUND_SET:
                raise UsageError(f"{source}:{lineno}: n={n} outside 1..{MAX_GROUND_SET}")
            if not 1 <= k <= n:
                raise UsageError(f"{source}:{lineno}: k={k} outside 1..{n}")
            continue
        try:
            elems = [int(f) for f in fields]
        except ValueError:
            raise UsageError(f"{source}:{lineno}: non-integer member line {raw!r}") from None
        if len(elems) != k:
            raise UsageError(f"{source}:{lineno}: expected {k} elements, got {len(elems)}")
        for prev, cur in zip(elems, elems[1:]):
            if cur <= prev:
                raise UsageError(f"{source}:{lineno}: elements must be strictly increasing")
        for e in elems:
            if not 1 <= e <= n:
                raise UsageError(f"{source}:{lineno}: element {e} outside 1..{n}")
        m = mask_of(elems)
        if m in seen:
            raise UsageError(f"{source}:{lineno}: duplicate member (first seen on line {seen[m]})")
        seen[m] = lineno
        masks.append(m)
    if n is None:
        raise UsageError(f"{source}: missing 'n k' header line")
    return UniformFamily.from_masks(n, k, masks)


def format_family(fam: UniformFamily) -> str:
    if fam.k < 1:
        raise UsageError(f"a .fam file needs k >= 1, got a {fam.k}-uniform family")
    lines = [f"{fam.n} {fam.k}", *map(elements_text, fam)]
    return "\n".join(lines) + "\n"


def read_file(path: str, binary: bool = False):
    """path's contents, as bytes or as UTF-8 text; a file that cannot be read
    or decoded is a UsageError."""
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def load_family(path: str) -> UniformFamily:
    return parse_family(read_file(path), source=path)


def dump_family(fam: UniformFamily, path: str) -> str:
    """Write fam to path in .fam form and return the text written."""
    text = format_family(fam)  # refuses k = 0 before the file is created
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
