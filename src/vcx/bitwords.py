"""Low-level helpers for sets encoded as integer bit words.

Element e of the ground set [n] = {1, ..., n} corresponds to bit e-1, so the
integer value of a word doubles as its canonical sort key (colex order on
sets). Every layer of the package holds sets as these plain ints.
"""


def bit(element: int) -> int:
    return 1 << (element - 1)


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def positions_of(mask: int) -> tuple[int, ...]:
    """Decode a bit word into its set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def elements_of(mask: int) -> tuple[int, ...]:
    """Decode a bit word into its sorted tuple of elements."""
    return tuple(p + 1 for p in positions_of(mask))


def set_text(mask: int) -> str:
    """The mask as "{1,2,3}", the set form of messages."""
    return "{" + ",".join(map(str, elements_of(mask))) + "}"


def elements_text(mask: int) -> str:
    """The mask as "1 2 3", the form of .fam lines, table lines and JSON keys."""
    return " ".join(map(str, elements_of(mask)))


def submasks(mask: int):
    """Yield every submask of `mask`, the full mask included, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # classic trick: next submask in increasing order
        sub = (sub - mask) & mask


def k_subset_masks(n: int, k: int):
    """All k-element subsets of [n] as masks, in canonical (ascending) order.

    Gosper's hack: the next mask with the same bit count in increasing integer
    order. Integer order on masks is colex order on the sets, which is the
    canonical order used everywhere here.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)

