"""Small shared utilities."""

import zlib


def stable_hash(*parts):
    """A process-independent hash of the given parts.

    Python's built-in ``hash`` is salted per interpreter run; simulation
    code that derives deterministic choices from names or addresses must
    use this instead so results are reproducible across runs.
    """
    text = "\x1f".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def weighted_choice(rng, weighted_items):
    """Pick from ``[(item, weight), ...]`` with the given RNG."""
    total = sum(weight for __, weight in weighted_items)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in weighted_items:
        cumulative += weight
        if point < cumulative:
            return item
    return weighted_items[-1][0]


def percentage(part, whole):
    """``part`` as a percentage of ``whole`` (0.0 when whole is zero)."""
    return 100.0 * part / whole if whole else 0.0


def apportion(total, weights, minimums=None):
    """Split integer ``total`` by ``weights`` with largest-remainder rounding.

    Returns a list of non-negative integers summing to ``total`` (before
    minimums), one per weight, using Hamilton's method: each share gets
    the floor of its exact quota, and the leftover units go to the
    largest fractional remainders (ties broken by position, so the split
    is deterministic).  Independent ``int(round(...))`` per share drifts
    from the total as quotas shrink; this never does.

    ``minimums`` (optional, same length) clamps each share from below
    *after* apportionment.  Clamping can push the sum above ``total`` —
    the same semantics as per-pool ``min_pool_count`` floors.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    quotas = [total * weight / weight_sum for weight in weights]
    counts = [int(quota) for quota in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    if minimums is not None:
        counts = [max(minimum, count)
                  for minimum, count in zip(minimums, counts)]
    return counts


def shard_ranges(total, shards):
    """Split ``[0, total)`` into ``shards`` contiguous, balanced ranges.

    Every index lands in exactly one range, the first ``total % shards``
    ranges one index longer than the rest; empty trailing ranges are
    dropped (fewer indexes than shards yields fewer ranges).
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    size, remainder = divmod(total, shards)
    ranges = []
    start = 0
    for shard in range(shards):
        stop = start + size + (1 if shard < remainder else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges
