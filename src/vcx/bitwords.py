"""Low-level helpers for sets encoded as integer bit words.

Element e of the ground set [n] = {1, ..., n} corresponds to bit e-1, so the
integer value of a word doubles as its canonical sort key (colex order on
sets). All functions here work on plain ints; the typed wrappers live in
vcx.families.
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


def popcount(mask: int) -> int:
    return mask.bit_count()


def submasks(mask: int):
    """Yield every submask of `mask`, the full mask included, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # classic trick: next submask in increasing order
        sub = (sub - mask) & mask


def shadow_masks(mask: int):
    """Yield the (|mask|-1)-subsets of `mask`, lowest dropped element first."""
    rest = mask
    while rest:
        low = rest & -rest
        yield mask ^ low
        rest ^= low


def k_subset_masks(n: int, k: int):
    """All k-element subsets of [n] as masks, in canonical (ascending) order.

    Gosper's hack: the next mask with the same popcount in increasing integer
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

